from __future__ import annotations

import pytest

from anticopypaster.errors import (
    ConfigSyntax,
    InvalidSensitivity,
    InvalidSetting,
    UnknownKeyword,
    UnknownSubmetric,
)
from anticopypaster.metrics import KEYWORD_CATALOGUE, Submetric
from anticopypaster.settings import Settings, load_settings, with_sensitivity


def test_empty_object_yields_all_defaults():
    settings = load_settings("{}")
    assert settings.min_duplicate_methods == 2
    assert settings.delay_seconds == 10
    assert settings.sensitivity == {
        "keyword": 50, "coupling": 50, "complexity": 50, "size": 50,
    }
    assert settings.near_match_threshold == 0.8
    assert settings.search_scope == "project"
    assert settings.keywords == KEYWORD_CATALOGUE
    assert all(f.enabled and not f.required for f in settings.flags.values())
    assert settings == Settings()


def test_partial_override_keeps_other_defaults():
    settings = load_settings('{"nearMatchThreshold": 0.9}')
    assert settings.near_match_threshold == 0.9
    assert settings.delay_seconds == 10
    assert settings.min_duplicate_methods == 2


def test_sensitivity_out_of_range_is_rejected():
    with pytest.raises(InvalidSensitivity):
        load_settings('{"sensitivity": {"size": 150}}')
    with pytest.raises(InvalidSensitivity):
        load_settings('{"sensitivity": {"size": 0}}')


def test_unknown_category_is_rejected():
    with pytest.raises(InvalidSetting):
        load_settings('{"sensitivity": {"sizes": 50}}')


@pytest.mark.parametrize(
    "flags, message",
    [
        ('{"enable": false}', r"^flags for 'keyword\.total' take only 'enabled' and 'required', got \['enable'\]$"),
        ('{"enabled": false, "requird": true}', r"^flags for 'keyword\.total' take only 'enabled' and 'required'"),
        ("false", r"^flags for 'keyword\.total' must be an object$"),
        ('{"enabled": 0}', r"^flags for 'keyword\.total' must be booleans$"),
        ('{"required": "yes"}', r"^flags for 'keyword\.total' must be booleans$"),
    ],
)
def test_a_flag_object_takes_only_boolean_enabled_and_required(flags, message):
    with pytest.raises(InvalidSetting, match=message):
        load_settings(f'{{"submetrics": {{"keyword.total": {flags}}}}}')


def test_with_sensitivity_sets_the_named_categories_and_keeps_the_rest():
    settings = with_sensitivity(Settings(), {"size": 100, "keyword": 1})
    assert settings.sensitivity == {"keyword": 1, "coupling": 50, "complexity": 50, "size": 100}
    assert settings == load_settings('{"sensitivity": {"size": 100, "keyword": 1}}')
    with pytest.raises(InvalidSensitivity, match=r"^sensitivity for 'size' must be 1\.\.100, got True$"):
        with_sensitivity(Settings(), {"size": True})
    with pytest.raises(InvalidSetting, match=r"^unknown metric category 'sizes'$"):
        with_sensitivity(Settings(), {"sizes": 50})
    with pytest.raises(InvalidSetting, match=r"^sensitivity must be an object"):
        with_sensitivity(Settings(), [50])


def test_a_config_with_several_faults_names_the_first_in_file_order():
    with pytest.raises(InvalidSetting, match=r"^delaySeconds"):
        load_settings('{"delaySeconds": -1, "unknownKey": 1, "minDuplicateMethods": 0}')
    with pytest.raises(InvalidSetting, match=r"^unknown config key 'unknownKey'$"):
        load_settings('{"unknownKey": 1, "delaySeconds": -1}')
    with pytest.raises(UnknownSubmetric):
        load_settings('{"submetrics": {"size.loc": true}, "sensitivity": {"size": 0}}')


def test_unknown_submetric_name_is_rejected():
    with pytest.raises(UnknownSubmetric):
        load_settings('{"submetrics": {"size.loc": {"enabled": true}}}')


def test_unknown_keyword_is_rejected():
    with pytest.raises(UnknownKeyword):
        load_settings('{"keywords": ["if", "public"]}')


def test_malformed_json_is_a_config_syntax_error():
    with pytest.raises(ConfigSyntax):
        load_settings("{not json")


def test_required_forces_enabled():
    settings = load_settings(
        '{"submetrics": {"keyword.total": {"enabled": false, "required": true}}}'
    )
    flags = settings.flags[Submetric.KEYWORD_TOTAL]
    assert flags.required and flags.enabled


def test_keyword_subset_is_honored():
    settings = load_settings('{"keywords": ["if", "while"]}')
    assert settings.keywords == frozenset({"if", "while"})


def test_domain_checks_on_scalar_settings():
    with pytest.raises(InvalidSetting):
        load_settings('{"minDuplicateMethods": 0}')
    with pytest.raises(InvalidSetting):
        load_settings('{"delaySeconds": -1}')
    with pytest.raises(InvalidSetting):
        load_settings('{"nearMatchThreshold": 0}')
    with pytest.raises(InvalidSetting):
        load_settings('{"searchScope": "workspace"}')
    with pytest.raises(InvalidSetting):
        load_settings('{"unknownKey": 1}')
