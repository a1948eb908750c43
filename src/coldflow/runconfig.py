"""Strict project configuration: parse, validate, default.

Configs are JSON objects. Validation is a strict walk: unknown keys,
wrong types and out-of-range values are all errors, each reported with its
location ("learn[1].hidden: must be an integer >= 1") so a typo cannot
silently disable a stage. validate_config returns a fully defaulted copy,
so downstream code reads plain values and never reimplements defaults.
"""

from __future__ import annotations

import json
import os
import re

from coldflow.docstore.pipeline import PipelineSyntaxError, parse_pipeline

# Two defaults that the simulator and the wrangler also use are defined
# here, so that loading a config never imports numpy.

# Matches the fault work orders fridgesim.workorders_for_plans writes.
WORKORDER_PATTERNS = [
    r"store (?P<store_id>S\d+) fridge (?P<fridge_id>F\d+) (?P<fault_name>[a-z ]+) fault",
]
# Plausibility band for defrost durations: anything under 10 minutes is a
# control blip, anything over 3x a long normal defrost (2700 s) is a fault
# or a data gap in disguise.
DEFAULT_TARGET_BAND_S = (600.0, 3 * 2700.0)

# Processes for ingest and for the wrangle stage's telemetry read when the
# config sets no pool_width: one per core of a small machine.
DEFAULT_POOL_WIDTH = 2

# Default window channels. The raw temperatures alone underdetermine a
# fridge's warming rate over a 32-step window; the first-difference and
# setpoint channels carry the rate and the per-fridge operating band.
DEFAULT_WINDOW_FEATURES = (
    "air_on_temperature",
    "air_off_temperature",
    "air_on_diff",
    "targetTemp_on",
    "targetTemp_off",
)

LOG_LEVELS = ("debug", "info", "warning", "error")


class ConfigError(Exception):
    """Invalid configuration; message starts with the offending location."""


def _fail(location: str, message: str):
    raise ConfigError(f"{location}: {message}")


def _require_mapping(value, location):
    if not isinstance(value, dict):
        _fail(location, "must be an object")
    return value


def _check_keys(value: dict, location: str, allowed: set):
    for key in value:
        if key not in allowed:
            _fail(f"{location}.{key}" if location else key, "unknown key")


def _get_int(value: dict, location: str, key: str, default, minimum=None):
    raw = value.get(key, default)
    if isinstance(raw, bool) or not isinstance(raw, int):
        _fail(f"{location}.{key}", "must be an integer")
    if minimum is not None and raw < minimum:
        _fail(f"{location}.{key}", f"must be an integer >= {minimum}")
    return raw


def _get_number(value: dict, location: str, key: str, default, minimum=None,
                exclusive=False):
    raw = value.get(key, default)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        _fail(f"{location}.{key}", "must be a number")
    raw = float(raw)
    if minimum is not None:
        if exclusive and raw <= minimum:
            _fail(f"{location}.{key}", f"must be a number > {minimum}")
        if not exclusive and raw < minimum:
            _fail(f"{location}.{key}", f"must be a number >= {minimum}")
    return raw


def _get_fraction(value: dict, location: str, key: str, default):
    raw = _get_number(value, location, key, default)
    if not 0.0 < raw < 1.0:
        _fail(f"{location}.{key}", "must lie strictly between 0 and 1")
    return raw


def _get_string(value: dict, location: str, key: str, default=None,
                choices=None, required=False):
    raw = value.get(key, default)
    if raw is None and required:
        _fail(f"{location}.{key}" if location else key, "is required")
    if raw is not None and not isinstance(raw, str):
        _fail(f"{location}.{key}", "must be a string")
    if choices is not None and raw not in choices:
        _fail(f"{location}.{key}", f"must be one of {sorted(choices)}")
    return raw


def _get_bool(value: dict, location: str, key: str, default):
    raw = value.get(key, default)
    if not isinstance(raw, bool):
        _fail(f"{location}.{key}", "must be true or false")
    return raw


def _validate_simulate(section) -> dict:
    loc = "simulate"
    _require_mapping(section, loc)
    _check_keys(section, loc, {"n_fridges", "days", "fridges_per_store", "noise",
                               "faults"})
    out = {
        "n_fridges": _get_int(section, loc, "n_fridges", 12, minimum=1),
        "days": _get_number(section, loc, "days", 8.0, minimum=0.0, exclusive=True),
        "fridges_per_store": _get_int(section, loc, "fridges_per_store", 10, minimum=1),
        "noise": _get_bool(section, loc, "noise", True),
        "faults": None,
    }
    if section.get("faults") is not None:
        floc = f"{loc}.faults"
        fsec = _require_mapping(section["faults"], floc)
        _check_keys(fsec, floc, {"count", "noise_workorders"})
        out["faults"] = {
            "count": _get_int(fsec, floc, "count", 0, minimum=0),
            "noise_workorders": _get_int(fsec, floc, "noise_workorders", 0, minimum=0),
        }
    return out


def _validate_number_list(raw, location, minimum=None):
    if not isinstance(raw, list) or not raw:
        _fail(location, "must be a non-empty array of numbers")
    out = []
    for i, item in enumerate(raw):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            _fail(f"{location}[{i}]", "must be a number")
        if minimum is not None and item < minimum:
            _fail(f"{location}[{i}]", f"must be >= {minimum}")
        out.append(float(item))
    return out


def _validate_wrangle(section) -> dict:
    loc = "wrangle"
    _require_mapping(section, loc)
    _check_keys(section, loc, {"window_len", "threshold_temp", "leads",
                               "test_fraction", "val_fraction", "cadence_s",
                               "gap_factor", "target_band_s", "features"})
    out = {
        "window_len": _get_int(section, loc, "window_len", 32, minimum=2),
        "threshold_temp": _get_number(section, loc, "threshold_temp", 8.0),
        "test_fraction": _get_fraction(section, loc, "test_fraction", 1.0 / 11.0),
        "val_fraction": _get_fraction(section, loc, "val_fraction", 1.0 / 11.0),
        "cadence_s": _get_number(section, loc, "cadence_s", 60.0, minimum=0.0,
                                 exclusive=True),
        "gap_factor": _get_number(section, loc, "gap_factor", 3.0, minimum=1.0),
    }
    leads = _validate_number_list(section.get("leads", [0]), f"{loc}.leads", minimum=0)
    if len(set(leads)) != len(leads):
        _fail(f"{loc}.leads", "leads must be distinct")
    out["leads"] = leads
    band = _validate_number_list(
        section.get("target_band_s", list(DEFAULT_TARGET_BAND_S)),
        f"{loc}.target_band_s", minimum=0,
    )
    if len(band) != 2 or band[0] >= band[1]:
        _fail(f"{loc}.target_band_s", "must be [low, high] with low < high")
    out["target_band_s"] = band
    features = section.get("features", list(DEFAULT_WINDOW_FEATURES))
    if not isinstance(features, list) or not features \
            or not all(isinstance(f, str) for f in features):
        _fail(f"{loc}.features", "must be a non-empty array of field names")
    out["features"] = features
    return out


def _validate_faults(section, wrangle: dict) -> dict:
    loc = "faults"
    _require_mapping(section, loc)
    _check_keys(section, loc, {"horizon_s", "window_len", "negatives_per_positive",
                               "balance", "patterns", "test_fraction", "val_fraction"})
    out = {
        "horizon_s": _get_number(section, loc, "horizon_s", 86400.0, minimum=0.0,
                                 exclusive=True),
        "window_len": _get_int(section, loc, "window_len", wrangle["window_len"],
                               minimum=2),
        "negatives_per_positive": _get_number(section, loc, "negatives_per_positive",
                                              1.0, minimum=0.0, exclusive=True),
        "balance": _get_bool(section, loc, "balance", True),
        "test_fraction": _get_fraction(section, loc, "test_fraction",
                                       wrangle["test_fraction"]),
        "val_fraction": _get_fraction(section, loc, "val_fraction",
                                      wrangle["val_fraction"]),
    }
    patterns = section.get("patterns", list(WORKORDER_PATTERNS))
    if not isinstance(patterns, list) or not patterns:
        _fail(f"{loc}.patterns", "must be a non-empty array of regexes")
    for i, pattern in enumerate(patterns):
        if not isinstance(pattern, str):
            _fail(f"{loc}.patterns[{i}]", "must be a string")
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            _fail(f"{loc}.patterns[{i}]", f"invalid regex: {exc}")
        if "fridge_id" not in compiled.groupindex:
            _fail(f"{loc}.patterns[{i}]", "must define a (?P<fridge_id>...) group")
    out["patterns"] = patterns
    return out


def _validate_pipeline_stages(raw, location, base_dir=None):
    # A string names a JSON file holding the stage array; it is resolved
    # against the config's own directory and inlined, so downstream code
    # sees one shape and the file's existence is checked up front.
    if isinstance(raw, str):
        path = raw if os.path.isabs(raw) or base_dir is None \
            else os.path.join(base_dir, raw)
        if not os.path.isfile(path):
            _fail(location, f"pipeline file not found: {path}")
        try:
            with open(path) as handle:
                raw = json.load(handle)
        except json.JSONDecodeError as exc:
            _fail(location, f"pipeline file {path} is not valid JSON: {exc}")
    if not isinstance(raw, list):
        _fail(location, "must be an array of aggregation stages "
                        "(or a path to a JSON file holding one)")
    try:
        parse_pipeline(raw)
    except PipelineSyntaxError as exc:
        _fail(location, str(exc))
    return raw


def _validate_learn(section, base_dir=None) -> list:
    if not isinstance(section, list) or not section:
        _fail("learn", "must be a non-empty array of model definitions")
    out = []
    names = set()
    for i, entry in enumerate(section):
        loc = f"learn[{i}]"
        _require_mapping(entry, loc)
        _check_keys(entry, loc, {"name", "task", "select", "cell", "layers", "hidden",
                                 "epochs", "batch_size", "learning_rate", "seed",
                                 "lead_seconds"})
        name = _get_string(entry, loc, "name", required=True)
        if name in names:
            _fail(f"{loc}.name", f"duplicate model name {name!r}")
        names.add(name)
        model = {
            "name": name,
            "task": _get_string(entry, loc, "task", "regression",
                                choices={"regression", "classification"}),
            "select": _validate_pipeline_stages(entry.get("select", []),
                                                f"{loc}.select", base_dir),
            "cell": _get_string(entry, loc, "cell", "lstm", choices={"rnn", "lstm"}),
            "layers": _get_int(entry, loc, "layers", 2, minimum=1),
            "hidden": _get_int(entry, loc, "hidden", 32, minimum=1),
            "epochs": _get_int(entry, loc, "epochs", 10, minimum=1),
            "batch_size": _get_int(entry, loc, "batch_size", 32, minimum=1),
            "learning_rate": _get_number(entry, loc, "learning_rate", 1e-3,
                                         minimum=0.0, exclusive=True),
            "seed": entry.get("seed"),
            "lead_seconds": _get_number(entry, loc, "lead_seconds", 0.0, minimum=0.0),
        }
        if model["seed"] is not None:
            model["seed"] = _get_int(entry, loc, "seed", None)
        out.append(model)
    return out


def _validate_infer(section, model_names, base_dir=None) -> list:
    if not isinstance(section, list) or not section:
        _fail("infer", "must be a non-empty array")
    out = []
    for i, entry in enumerate(section):
        loc = f"infer[{i}]"
        _require_mapping(entry, loc)
        _check_keys(entry, loc, {"model", "split", "select"})
        model = _get_string(entry, loc, "model", required=True)
        if model_names is not None and model not in model_names:
            _fail(f"{loc}.model", f"references unknown model {model!r}")
        out.append({
            "model": model,
            "split": _get_string(entry, loc, "split", "test",
                                 choices={"train", "test"}),
            "select": _validate_pipeline_stages(entry.get("select", []),
                                                f"{loc}.select", base_dir),
        })
    return out


def _validate_stages(section) -> list:
    """Custom post-pipeline stages running external scripts."""
    if not isinstance(section, list) or not section:
        _fail("stages", "must be a non-empty array of stage objects")
    out = []
    for i, entry in enumerate(section):
        loc = f"stages[{i}]"
        _require_mapping(entry, loc)
        _check_keys(entry, loc, {"name", "pool_width", "scripts"})
        name = _get_string(entry, loc, "name", required=True)
        scripts_raw = entry.get("scripts")
        if not isinstance(scripts_raw, list) or not scripts_raw:
            _fail(f"{loc}.scripts", "must be a non-empty array of script objects")
        scripts = []
        for j, script in enumerate(scripts_raw):
            sloc = f"{loc}.scripts[{j}]"
            _require_mapping(script, sloc)
            _check_keys(script, sloc, {"name", "command", "flags", "timeout_s"})
            command = script.get("command")
            if not isinstance(command, list) or not command \
                    or not all(isinstance(part, str) for part in command):
                _fail(f"{sloc}.command", "must be a non-empty array of strings")
            flags = script.get("flags", [])
            if not isinstance(flags, list) \
                    or not all(isinstance(part, str) for part in flags):
                _fail(f"{sloc}.flags", "must be an array of strings")
            timeout_s = script.get("timeout_s")
            if timeout_s is not None:
                timeout_s = _get_number(script, sloc, "timeout_s", None,
                                        minimum=0.0, exclusive=True)
            scripts.append({
                "name": _get_string(script, sloc, "name", command[0]),
                "command": command,
                "flags": flags,
                "timeout_s": timeout_s,
            })
        out.append({
            "name": name,
            "pool_width": _get_int(entry, loc, "pool_width", 1, minimum=1),
            "scripts": scripts,
        })
    return out


def _validate_select(section, model_names) -> dict:
    loc = "select"
    _require_mapping(section, loc)
    _check_keys(section, loc, {"model", "target_kw", "split", "min_safe_off_s", "tag"})
    model = _get_string(section, loc, "model", required=True)
    if model_names is not None and model not in model_names:
        _fail(f"{loc}.model", f"references unknown model {model!r}")
    return {
        "model": model,
        "target_kw": _get_number(section, loc, "target_kw", None, minimum=0.0,
                                 exclusive=True),
        "split": _get_string(section, loc, "split", "test", choices={"train", "test"}),
        "min_safe_off_s": _get_number(section, loc, "min_safe_off_s", 0.0, minimum=0.0),
        "tag": _get_string(section, loc, "tag", "default"),
    }


def _validate_report(section, model_names) -> dict:
    loc = "report"
    _require_mapping(section, loc)
    _check_keys(section, loc, {"models", "split", "tag", "selection_tag"})
    models = section.get("models")
    if not isinstance(models, list) or not models \
            or not all(isinstance(m, str) for m in models):
        _fail(f"{loc}.models", "must be a non-empty array of model names")
    if model_names is not None:
        for i, name in enumerate(models):
            if name not in model_names:
                _fail(f"{loc}.models[{i}]", f"references unknown model {name!r}")
    return {
        "models": models,
        "split": _get_string(section, loc, "split", "test", choices={"train", "test"}),
        "tag": _get_string(section, loc, "tag", "run"),
        "selection_tag": _get_string(section, loc, "selection_tag"),
    }


TOP_LEVEL_KEYS = {"seed", "pool_width", "store_path", "log_level", "simulate",
                  "wrangle", "faults", "learn", "infer", "select", "report",
                  "stages"}


def validate_config(data, base_dir=None) -> dict:
    """Validate a parsed JSON object; returns a fully defaulted copy.

    base_dir anchors relative paths in the config (aggregation pipeline
    files); pass the config file's directory when loading from disk.
    """
    _require_mapping(data, "config")
    _check_keys(data, "", TOP_LEVEL_KEYS)
    # A key set to null reads the same as an absent key, so a defaulted
    # config (which spells optional sections as null) revalidates cleanly.
    out = {
        "seed": _get_int(data, "config", "seed", 0),
        "pool_width": _get_int(data, "config", "pool_width", DEFAULT_POOL_WIDTH,
                               minimum=1),
        "store_path": _get_string(data, "config", "store_path"),
        "log_level": _get_string(data, "config", "log_level", "warning",
                                 choices=set(LOG_LEVELS)),
        "wrangle": _validate_wrangle(data.get("wrangle") or {}),
        "simulate": None,
        "faults": None,
        "learn": None,
        "infer": None,
        "select": None,
        "report": None,
        "stages": None,
    }
    if data.get("simulate") is not None:
        out["simulate"] = _validate_simulate(data["simulate"])
    if data.get("faults") is not None:
        out["faults"] = _validate_faults(data["faults"], out["wrangle"])
    model_names = None
    if data.get("learn") is not None:
        out["learn"] = _validate_learn(data["learn"], base_dir)
        model_names = {m["name"] for m in out["learn"]}
    if data.get("infer") is not None:
        out["infer"] = _validate_infer(data["infer"], model_names, base_dir)
    if data.get("select") is not None:
        out["select"] = _validate_select(data["select"], model_names)
    if data.get("report") is not None:
        out["report"] = _validate_report(data["report"], model_names)
    if data.get("stages") is not None:
        out["stages"] = _validate_stages(data["stages"])
    return out


def load_config(path: str) -> dict:
    """Read and validate a JSON config file."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    return validate_config(data, base_dir=os.path.dirname(os.path.abspath(path)))
