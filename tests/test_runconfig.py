"""Config validation: strict keys, located errors, full defaulting."""

import json
import pathlib
import re

import pytest

from coldflow.runconfig import ConfigError, load_config, validate_config


def test_minimal_config_is_fully_defaulted():
    cfg = validate_config({"seed": 7})
    assert cfg["seed"] == 7
    assert cfg["pool_width"] >= 1
    assert cfg["wrangle"]["window_len"] == 32
    assert cfg["wrangle"]["leads"] == [0.0]
    assert cfg["wrangle"]["features"] == [
        "air_on_temperature", "air_off_temperature", "air_on_diff",
        "targetTemp_on", "targetTemp_off",
    ]
    for section in ("simulate", "faults", "learn", "infer", "select", "report"):
        assert cfg[section] is None


def test_defaulted_output_revalidates_unchanged():
    cfg = validate_config({
        "seed": 3,
        "simulate": {"n_fridges": 4, "days": 2.0},
        "learn": [{"name": "m", "task": "regression"}],
        "infer": [{"model": "m"}],
        "select": {"model": "m", "target_kw": 2.0},
        "report": {"models": ["m"]},
    })
    assert validate_config(cfg) == cfg


def test_unknown_keys_rejected_with_location():
    with pytest.raises(ConfigError, match=r"wrangle\.windw_len: unknown key"):
        validate_config({"seed": 1, "wrangle": {"windw_len": 3}})
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config({"seed": 1, "bogus": True})
    with pytest.raises(ConfigError, match=r"simulate\.dsr_target_kw: unknown key"):
        validate_config({"seed": 1, "simulate": {"dsr_target_kw": 5.0}})


def test_type_errors_carry_location():
    with pytest.raises(ConfigError, match=r"config\.seed"):
        validate_config({"seed": "x"})
    with pytest.raises(ConfigError, match=r"config\.pool_width"):
        validate_config({"seed": 1, "pool_width": 0})
    with pytest.raises(ConfigError, match=r"learn\[0\]\.task"):
        validate_config({"seed": 1, "learn": [{"name": "a", "task": "sorting"}]})


def test_duplicate_learn_names_rejected():
    with pytest.raises(ConfigError, match=r"learn\[1\]\.name: duplicate"):
        validate_config({"seed": 1, "learn": [
            {"name": "a", "task": "regression"},
            {"name": "a", "task": "classification"},
        ]})


def test_model_references_checked_against_learn_section():
    with pytest.raises(ConfigError, match=r"infer\[0\]\.model: references unknown"):
        validate_config({
            "seed": 1,
            "learn": [{"name": "a", "task": "regression"}],
            "infer": [{"model": "b"}],
        })
    with pytest.raises(ConfigError, match=r"select\.model"):
        validate_config({
            "seed": 1,
            "learn": [{"name": "a", "task": "regression"}],
            "select": {"model": "b", "target_kw": 1.0},
        })
    # Without a learn section the store may already hold the model, so the
    # reference cannot be checked statically and must pass.
    cfg = validate_config({"seed": 1, "infer": [{"model": "b"}]})
    assert cfg["infer"][0]["model"] == "b"


def test_fault_patterns_must_compile_and_bind_fridge_id():
    with pytest.raises(ConfigError, match=r"faults\.patterns\[0\]: invalid regex"):
        validate_config({"seed": 1, "faults": {"patterns": ["(unclosed"]}})
    with pytest.raises(ConfigError, match=r"fridge_id"):
        validate_config({"seed": 1, "faults": {"patterns": ["no group"]}})


def test_select_pipeline_may_reference_a_json_file(tmp_path):
    pipeline_file = tmp_path / "only_store_s1.json"
    pipeline_file.write_text(json.dumps([{"$match": {"store_id": "S0000"}}]))
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({
        "seed": 1,
        "learn": [{"name": "a", "task": "regression",
                   "select": "only_store_s1.json"}],
    }))
    cfg = load_config(str(config_file))
    assert cfg["learn"][0]["select"] == [{"$match": {"store_id": "S0000"}}]

    config_file.write_text(json.dumps({
        "seed": 1,
        "learn": [{"name": "a", "task": "regression", "select": "missing.json"}],
    }))
    with pytest.raises(ConfigError, match=r"learn\[0\]\.select: pipeline file"):
        load_config(str(config_file))


@pytest.mark.parametrize("section", ["learn", "infer"])
def test_select_pipelines_are_parsed_up_front(section):
    bad = [{"$match": {"fridge_id": "F0001"}}, {"$match": 5}, {"$bogus": 1}]
    cfg = {"seed": 1, "learn": [{"name": "m", "task": "regression"}]}
    if section == "infer":
        cfg["infer"] = [{"model": "m", "select": bad}]
    else:
        cfg["learn"][0]["select"] = bad
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert str(err.value) == f"{section}[0].select: stage 1: $match body must be an object"
    cfg[section][0]["select"] = bad[:1] + bad[2:]
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert str(err.value) == f"{section}[0].select: stage 1: unknown stage '$bogus'"
    cfg[section][0]["select"] = bad[:1]
    assert validate_config(cfg)[section][0]["select"] == bad[:1]


def test_custom_stages_validated():
    cfg = validate_config({
        "seed": 1,
        "stages": [{"name": "post", "pool_width": 2,
                    "scripts": [{"command": ["true"], "flags": ["--fast"]}]}],
    })
    script = cfg["stages"][0]["scripts"][0]
    assert script["name"] == "true"
    assert script["command"] == ["true"]
    assert script["timeout_s"] is None

    with pytest.raises(ConfigError, match=r"stages\[0\]\.scripts\[0\]\.command"):
        validate_config({"seed": 1, "stages": [
            {"name": "post", "scripts": [{"command": []}]}]})


def test_store_path_and_log_level():
    cfg = validate_config({"seed": 1, "store_path": "/tmp/x", "log_level": "info"})
    assert cfg["store_path"] == "/tmp/x"
    assert cfg["log_level"] == "info"
    with pytest.raises(ConfigError, match=r"config\.log_level"):
        validate_config({"seed": 1, "log_level": "loud"})


def test_load_config_reads_json_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 5, "pool_width": 3}))
    cfg = load_config(str(path))
    assert cfg["seed"] == 5
    assert cfg["pool_width"] == 3

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def readme_config_rows() -> dict:
    """Each row of README's configuration table: its key -> its text."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `(\w+)` *\|(.*)\|$", table, re.M))


def test_readme_config_table_names_every_validated_key():
    cfg = validate_config({
        "seed": 1, "pool_width": 2, "store_path": "s", "log_level": "info",
        "simulate": {"n_fridges": 2, "days": 1, "faults": {"count": 1}},
        "wrangle": {}, "faults": {},
        "learn": [{"name": "m", "task": "regression"}],
        "infer": [{"model": "m"}],
        "select": {"model": "m", "target_kw": 1.0},
        "report": {"models": ["m"]},
        "stages": [{"name": "post", "scripts": [{"command": ["true"]}]}],
    })
    rows = readme_config_rows()
    assert sorted(cfg) == sorted(rows)
    keys = [(name, cfg[name]) for name in ("simulate", "wrangle", "faults", "select",
                                           "report")]
    keys += [("simulate", cfg["simulate"]["faults"]), ("learn", cfg["learn"][0]),
             ("infer", cfg["infer"][0]), ("stages", cfg["stages"][0]),
             ("stages", cfg["stages"][0]["scripts"][0])]
    unnamed = [(row, key) for row, section in keys for key in section
               if f"`{key}`" not in rows[row]]
    assert unnamed == []
