"""Detection-rule settings and their JSON config format.

A project's config lives at `<root>/.anticopypaster.json`. Absent keys
take the defaults of `Settings()`: two duplicate methods, a ten-second
delay, sensitivity 50 everywhere, every submetric enabled and none
required, all 31 keywords active. `load_settings` checks each key as
it walks the config once, so the first fault in file order is the one
named; a submetric's flags take only `enabled` and `required`.
`with_sensitivity` is the one check of sensitivity values, for the
config's `sensitivity` object and for `thresholds --sensitivity` alike.
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


def with_sensitivity(settings: Settings, block: object) -> Settings:
    """`settings` with the categories `block` names set to its values; each must exist and be an integer in 1..100."""
    if not isinstance(block, dict):
        raise InvalidSetting("sensitivity must be an object of category -> value")
    for category, value in block.items():
        if category not in CATEGORIES:
            raise InvalidSetting(f"unknown metric category {category!r}")
        if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= 100:
            raise InvalidSensitivity(f"sensitivity for {category!r} must be 1..100, got {value!r}")
    return replace(settings, sensitivity={**settings.sensitivity, **block})


def load_settings(config_text: str) -> Settings:
    """Parse a JSON config, merging absent keys with defaults.

    One walk over the keys checks and records each value, so a config with
    several faults names the first in file order. required=true forces
    enabled=true for that submetric. Unknown keys, submetric names and flag
    names, keywords outside the catalogue, and out-of-range values are
    rejected rather than ignored.
    """
    try:
        data = json.loads(config_text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers of more digits than
        # int() converts; RecursionError, arrays or objects nested too deeply.
        raise ConfigSyntax(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigSyntax("config root must be a JSON object")

    defaults = Settings()
    fields: dict[str, object] = {}
    for key, value in data.items():
        if key == "minDuplicateMethods":
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise InvalidSetting(f"minDuplicateMethods must be an integer >= 1, got {value!r}")
            fields["min_duplicate_methods"] = value
        elif key == "delaySeconds":
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InvalidSetting(f"delaySeconds must be an integer >= 0, got {value!r}")
            fields["delay_seconds"] = value
        elif key == "sensitivity":
            fields["sensitivity"] = with_sensitivity(defaults, value).sensitivity
        elif key == "submetrics":
            if not isinstance(value, dict):
                raise InvalidSetting("submetrics must be an object of name -> flags")
            flags = dict(defaults.flags)
            for name, given in value.items():
                if name not in SUBMETRIC_BY_NAME:
                    raise UnknownSubmetric(f"unknown submetric {name!r}")
                if not isinstance(given, dict):
                    raise InvalidSetting(f"flags for {name!r} must be an object")
                if not given.keys() <= {"enabled", "required"}:
                    raise InvalidSetting(f"flags for {name!r} take only 'enabled' and 'required', got {sorted(given)}")
                enabled, required = given.get("enabled", True), given.get("required", False)
                if not isinstance(enabled, bool) or not isinstance(required, bool):
                    raise InvalidSetting(f"flags for {name!r} must be booleans")
                flags[SUBMETRIC_BY_NAME[name]] = SubmetricFlags(enabled or required, required)
            fields["flags"] = flags
        elif key == "keywords":
            if not isinstance(value, list) or not all(isinstance(k, str) for k in value):
                raise InvalidSetting("keywords must be a list of strings")
            unknown = sorted(set(value) - KEYWORD_CATALOGUE)
            if unknown:
                raise UnknownKeyword(f"not in the configurable catalogue: {', '.join(unknown)}")
            fields["keywords"] = frozenset(value)
        elif key == "nearMatchThreshold":
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 < value <= 1:
                raise InvalidSetting(f"nearMatchThreshold must be in (0, 1], got {value!r}")
            fields["near_match_threshold"] = float(value)
        elif key == "searchScope":
            if value not in ("file", "project"):
                raise InvalidSetting(f"searchScope must be 'file' or 'project', got {value!r}")
            fields["search_scope"] = value
        elif key == "ignore":
            if not isinstance(value, list) or not all(isinstance(g, str) for g in value):
                raise InvalidSetting("ignore must be a list of glob strings")
            fields["ignore"] = tuple(value)
        else:
            raise InvalidSetting(f"unknown config key {key!r}")
    return replace(defaults, **fields)
