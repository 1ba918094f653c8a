"""Detection-rule settings and their JSON config format.

A project's config lives at `<root>/.anticopypaster.json`. Absent keys
take the documented defaults: two duplicate methods, a ten-second
delay, sensitivity 50 everywhere, every submetric enabled and none
required, all 31 keywords active.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .errors import (
    ConfigSyntax,
    InvalidSensitivity,
    InvalidSetting,
    UnknownKeyword,
    UnknownSubmetric,
)
from .metrics import CATEGORIES, KEYWORD_CATALOGUE, SUBMETRIC_BY_NAME, Submetric

CONFIG_FILENAME = ".anticopypaster.json"

DEFAULT_IGNORE = ("**/target/**", "**/build/**")


@dataclass(frozen=True)
class SubmetricFlags:
    enabled: bool = True
    required: bool = False


@dataclass(frozen=True)
class Settings:
    min_duplicate_methods: int = 2
    delay_seconds: int = 10
    sensitivity: dict[str, int] = field(
        default_factory=lambda: {c: 50 for c in CATEGORIES}
    )
    flags: dict[Submetric, SubmetricFlags] = field(
        default_factory=lambda: {m: SubmetricFlags() for m in Submetric}
    )
    keywords: frozenset[str] = KEYWORD_CATALOGUE
    near_match_threshold: float = 0.8
    search_scope: str = "project"
    ignore: tuple[str, ...] = DEFAULT_IGNORE

    def enabled_submetrics(self) -> tuple[Submetric, ...]:
        return tuple(m for m in Submetric if self.flags[m].enabled)


def default_settings() -> Settings:
    return Settings()


def load_settings(config_text: str) -> Settings:
    """Parse a JSON config, merging absent keys with defaults.

    required=true forces enabled=true for that submetric. Unknown
    submetric names, keywords outside the catalogue, and out-of-range
    values are rejected rather than ignored.
    """
    try:
        data = json.loads(config_text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers of more digits than
        # int() converts; RecursionError, arrays or objects nested too deeply.
        raise ConfigSyntax(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigSyntax("config root must be a JSON object")

    known = {
        "minDuplicateMethods", "delaySeconds", "sensitivity", "submetrics",
        "keywords", "nearMatchThreshold", "searchScope", "ignore",
    }
    for key in data:
        if key not in known:
            raise InvalidSetting(f"unknown config key {key!r}")

    settings = default_settings()

    if "minDuplicateMethods" in data:
        value = data["minDuplicateMethods"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise InvalidSetting(f"minDuplicateMethods must be an integer >= 1, got {value!r}")
        settings = replace(settings, min_duplicate_methods=value)

    if "delaySeconds" in data:
        value = data["delaySeconds"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise InvalidSetting(f"delaySeconds must be an integer >= 0, got {value!r}")
        settings = replace(settings, delay_seconds=value)

    if "sensitivity" in data:
        block = data["sensitivity"]
        if not isinstance(block, dict):
            raise InvalidSetting("sensitivity must be an object of category -> value")
        merged = dict(settings.sensitivity)
        for category, value in block.items():
            if category not in CATEGORIES:
                raise InvalidSetting(f"unknown metric category {category!r}")
            if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= 100:
                raise InvalidSensitivity(f"sensitivity for {category!r} must be 1..100, got {value!r}")
            merged[category] = value
        settings = replace(settings, sensitivity=merged)

    if "submetrics" in data:
        block = data["submetrics"]
        if not isinstance(block, dict):
            raise InvalidSetting("submetrics must be an object of name -> flags")
        merged_flags = dict(settings.flags)
        for name, flag_obj in block.items():
            if name not in SUBMETRIC_BY_NAME:
                raise UnknownSubmetric(f"unknown submetric {name!r}")
            if not isinstance(flag_obj, dict):
                raise InvalidSetting(f"flags for {name!r} must be an object")
            submetric = SUBMETRIC_BY_NAME[name]
            current = merged_flags[submetric]
            enabled = flag_obj.get("enabled", current.enabled)
            required = flag_obj.get("required", current.required)
            if not isinstance(enabled, bool) or not isinstance(required, bool):
                raise InvalidSetting(f"flags for {name!r} must be booleans")
            if required:
                enabled = True
            merged_flags[submetric] = SubmetricFlags(enabled, required)
        settings = replace(settings, flags=merged_flags)

    if "keywords" in data:
        block = data["keywords"]
        if not isinstance(block, list) or not all(isinstance(k, str) for k in block):
            raise InvalidSetting("keywords must be a list of strings")
        unknown = sorted(set(block) - KEYWORD_CATALOGUE)
        if unknown:
            raise UnknownKeyword(f"not in the configurable catalogue: {', '.join(unknown)}")
        settings = replace(settings, keywords=frozenset(block))

    if "nearMatchThreshold" in data:
        value = data["nearMatchThreshold"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 < value <= 1:
            raise InvalidSetting(f"nearMatchThreshold must be in (0, 1], got {value!r}")
        settings = replace(settings, near_match_threshold=float(value))

    if "searchScope" in data:
        value = data["searchScope"]
        if value not in ("file", "project"):
            raise InvalidSetting(f"searchScope must be 'file' or 'project', got {value!r}")
        settings = replace(settings, search_scope=value)

    if "ignore" in data:
        block = data["ignore"]
        if not isinstance(block, list) or not all(isinstance(g, str) for g in block):
            raise InvalidSetting("ignore must be a list of glob strings")
        settings = replace(settings, ignore=tuple(block))

    return settings
