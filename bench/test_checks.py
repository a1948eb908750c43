"""Each output check accepts an untouched finished store and rejects a
corrupted copy of it.

    python3 -m pytest -q bench/test_checks.py

Builds one fleet store (simulate, ingest, run; about 20 s), so every check
has data to work on: telemetry, defrost examples at two leads, fault
windows, three models' predictions, a selection and a report.
"""

from __future__ import annotations

import json
import shutil

import pytest

import checks
import run

SEED = 1


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    work = tmp_path_factory.mktemp("fleet")
    wl = run.Workload("fleet", SEED, work, run.Runner(work, in_process=False))
    wl.setup(0)
    _, _, ok = wl.round()
    assert ok, wl.run_cli.last_log.read_text()
    return wl


@pytest.fixture
def copy(finished, tmp_path):
    store = tmp_path / "store"
    shutil.copytree(finished.store, store)
    return store


def _corrupt(store, collection, pick, change):
    path = store / f"{collection}.ndjson"
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    change(next(doc for doc in docs if pick(doc)))
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))


def _set(key, fn):
    def change(doc):
        doc[key] = fn(doc[key])
    return change


def _bump_cell(doc):
    doc["observed"][3][1] += 1e-6


def _bump_diff(doc):
    doc["derived"]["air_on_diff"] += 1e-6


def _first_power_up(doc):
    doc["chosen"][0]["power_kw"] += 0.5


def _safe_off_ignores_lead(doc):
    doc["predicted_safe_off_s"] = doc["predicted_seconds"]


def _nudge_mae(doc):
    doc["rows"][0]["mae_s"] *= 1 + 1e-7


CASES = {
    "telemetry_derived_channel": (
        "telemetry", "telemetry", lambda d: d["derived"]["air_on_diff"] != 0.0,
        _bump_diff),
    "defrost_target_off_by_one_cadence": (
        "defrost_examples", "dsr_examples", lambda d: True,
        _set("target_seconds", lambda v: v + 60.0)),
    "defrost_window_cell": (
        "defrost_examples", "dsr_examples", lambda d: d["lead_seconds"] == 120.0,
        _bump_cell),
    "fault_positive_end_off_by_one_cadence": (
        "fault_examples", "fault_examples", lambda d: d["label"] == "fault",
        _set("window_end_ts", lambda v: v - 60.0)),
    "fault_negative_window_cell": (
        "fault_examples", "fault_examples", lambda d: d["label"] == "no_fault",
        _bump_cell),
    "prediction_safe_off_ignores_lead": (
        "predictions", "predictions", lambda d: d.get("lead_seconds") == 120.0,
        _safe_off_ignores_lead),
    "report_mae_nudged": (
        "reports", "reports", lambda d: True, _nudge_mae),
    "chosen_fridge_power": (
        "selections", "selections", lambda d: d["chosen"], _first_power_up),
}


def test_untouched_store_passes(finished):
    assert checks.check_store(finished.data, finished.store, finished.run_config) == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_rejects_corrupted_copy(finished, copy, case):
    check, collection, pick, change = CASES[case]
    _corrupt(copy, collection, pick, change)
    failures = checks.check_store(finished.data, copy, finished.run_config)
    assert check in [f.split(":")[0] for f in failures], failures


def test_identical_reports_pass_and_differing_fail(finished):
    report = checks.report_bytes(finished.store)
    checks.check_identical([report, report])
    with pytest.raises(checks.CheckFailed):
        checks.check_identical([report, report.replace(b"nightly", b"nightlx", 1)])
