"""Output checks for a finished coldflow store, computed apart from the program.

Nothing here imports coldflow. The checks read the simulated CSVs with
``csv`` and numpy, the sidecars and the store's ``.ndjson`` collection files
with ``json``, and recompute what the program should have stored: derived
telemetry channels, defrost examples at every lead, fault windows,
predictions, report figures and shed selections. Each check raises
:class:`CheckFailed` naming the first mismatch it finds.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

# Config defaults the runs rely on, restated from the config reference so
# that a changed default shows up as a failed check instead of passing
# silently.
CADENCE_S = 60.0
GAP_FACTOR = 3.0
TARGET_BAND_S = (600.0, 3 * 2700.0)
THRESHOLD_TEMP = 8.0
WINDOW_FEATURES = ("air_on_temperature", "air_off_temperature", "air_on_diff",
                   "targetTemp_on", "targetTemp_off")
FAULT_HORIZON_S = 86400.0
WORKORDER_PATTERN = (r"store (?P<store_id>S\d+) fridge (?P<fridge_id>F\d+) "
                     r"(?P<fault_name>[a-z ]+) fault")
REL_TOL = 1e-9


class CheckFailed(Exception):
    """The store disagrees with the independent recomputation."""


def _require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def read_collection(store: Path, name: str) -> list[dict]:
    path = Path(store) / f"{name}.ndjson"
    if not path.is_file():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


# ------------------------------------------------------------------ inputs


class FridgeSeries:
    """One fridge's CSV rows as arrays, with the channels the store derives."""

    def __init__(self, rows: list[dict], setpoints):
        rows.sort(key=lambda r: float(r["TimeStamp"]))
        self.store_id = rows[0]["storeId"] or None
        self.t = np.array([float(r["TimeStamp"]) for r in rows])
        on = np.array([float(r["airOnTemp"]) for r in rows])
        off = np.array([float(r["airOffTemp"]) for r in rows])
        self.defrost = np.array([int(r["Def"]) for r in rows])
        self.power = np.array([float(r["power_kw"]) for r in rows])
        sp_on, sp_off = setpoints
        first_diff = lambda a: np.concatenate(([0.0], np.diff(a)))
        self.columns = {
            "timestamp": self.t,
            "timestamp_sec": self.t,
            "air_on_temperature": on,
            "air_off_temperature": off,
            "defrost_state": self.defrost.astype(float),
            "time_diff_sec": first_diff(self.t),
            "air_on_diff": first_diff(on),
            "air_off_diff": first_diff(off),
            "targetTemp_on": np.full(len(rows), float(sp_on)),
            "targetTemp_off": np.full(len(rows), float(sp_off)),
            "targetTemp_on_diff": on - sp_on,
            "targetTemp_off_diff": off - sp_off,
            "power_kw": self.power,
        }

    def matrix(self, features) -> np.ndarray:
        return np.column_stack([self.columns[name] for name in features])

    def last_before(self, ts: float):
        hi = int(np.searchsorted(self.t, ts, side="left"))
        return float(self.t[hi - 1]) if hi else None

    def window(self, boundary: float, window_len: int, require_defrost_free: bool):
        """Index range [lo, hi) of the window_len rows strictly before
        boundary, or None when history is short, a gap exceeds
        GAP_FACTOR cadences, or (if required) a row is in defrost."""
        hi = int(np.searchsorted(self.t, boundary, side="left"))
        if hi < window_len:
            return None
        lo = hi - window_len
        max_gap = GAP_FACTOR * CADENCE_S
        if boundary - self.t[hi - 1] > max_gap:
            return None
        if np.any(np.diff(self.t[lo:hi]) > max_gap):
            return None
        if require_defrost_free and self.defrost[lo:hi].any():
            return None
        return lo, hi


class Fleet:
    """The simulate output directory: telemetry CSVs plus both sidecars."""

    def __init__(self, data_dir):
        data_dir = Path(data_dir)
        setpoints = json.loads((data_dir / "setpoints.json").read_text())
        self.workorders = json.loads((data_dir / "workorders.json").read_text())
        grouped: dict[str, list[dict]] = {}
        for path in sorted((data_dir / "telemetry").glob("*.csv")):
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    grouped.setdefault(row["fridgeId"], []).append(row)
        self.rows = sum(len(rows) for rows in grouped.values())
        self.fridges = {
            fid: FridgeSeries(rows, setpoints[fid])
            for fid, rows in sorted(grouped.items())
        }

    def fault_times(self) -> dict[str, list[float]]:
        pattern = re.compile(WORKORDER_PATTERN)
        faults: dict[str, list[float]] = {}
        for text, ts in self.workorders:
            m = pattern.search(text)
            if m and m.group("fridge_id") in self.fridges:
                faults.setdefault(m.group("fridge_id"), []).append(float(ts))
        return faults


# ------------------------------------------------------------------ checks


def check_telemetry(fleet: Fleet, store) -> None:
    """One stored reading per CSV row, with base and derived fields equal
    to values recomputed from the fridge's rows and setpoints."""
    docs = read_collection(store, "telemetry")
    _require(len(docs) == fleet.rows,
             f"telemetry: {len(docs)} documents for {fleet.rows} CSV rows")
    by_fridge: dict[str, list[dict]] = {}
    for doc in docs:
        by_fridge.setdefault(doc["fridge_id"], []).append(doc)
    _require(set(by_fridge) == set(fleet.fridges),
             "telemetry: fridge ids differ from the CSV files")
    for fid, series in fleet.fridges.items():
        fdocs = sorted(by_fridge[fid], key=lambda d: d["timestamp"])
        _require(len(fdocs) == len(series.t),
                 f"telemetry {fid}: {len(fdocs)} documents for {len(series.t)} rows")
        _require([d["_id"] for d in fdocs] == [f"{fid}:{t!r}" for t in series.t.tolist()],
                 f"telemetry {fid}: _id values differ from <fridge>:<timestamp>")
        _require(all(d["store_id"] == series.store_id for d in fdocs),
                 f"telemetry {fid}: store_id differs from the CSV")
        stored = {
            "timestamp": [d["timestamp"] for d in fdocs],
            "air_on_temperature": [d["air_on_temperature"] for d in fdocs],
            "air_off_temperature": [d["air_off_temperature"] for d in fdocs],
            "defrost_state": [d["defrost_state"] for d in fdocs],
            "power_kw": [d["extra"]["power_kw"] for d in fdocs],
        }
        for name in ("timestamp_sec", "time_diff_sec", "air_on_diff", "air_off_diff",
                     "targetTemp_on", "targetTemp_off", "targetTemp_on_diff",
                     "targetTemp_off_diff"):
            stored[name] = [d["derived"][name] for d in fdocs]
        for name, values in stored.items():
            expected = series.columns[name]
            bad = np.flatnonzero(np.asarray(values, dtype=float) != expected)
            if bad.size:
                raise CheckFailed(f"telemetry {fid}: {name} differs at "
                                  f"t={float(series.t[bad[0]])!r}")


def reference_defrost_examples(fleet: Fleet, wrangle: dict) -> dict:
    """Cut every defrost example the config asks for, keyed by store _id.

    A run (defrost flag 0 -> 1 at t0, first back at 0 at t1) is kept when it
    has history, is complete, has no gap, lasts within the target band, and
    has a defrost-free, gap-free window before t0 - lead at every lead.
    """
    window_len = wrangle["window_len"]
    leads = [float(lead) for lead in wrangle.get("leads", [0.0])]
    band_lo, band_hi = wrangle.get("target_band_s", TARGET_BAND_S)
    features = wrangle.get("features", list(WINDOW_FEATURES))
    max_gap = GAP_FACTOR * CADENCE_S
    out = {}
    for fid, s in fleet.fridges.items():
        matrix = s.matrix(features)
        starts = np.flatnonzero((s.defrost == 1)
                                & (np.concatenate(([0], s.defrost[:-1])) == 0))
        for start in starts:
            if start == 0:
                continue
            after = np.flatnonzero(s.defrost[start:] == 0)
            if after.size == 0:
                continue
            end = start + int(after[0])
            t0, t1 = float(s.t[start]), float(s.t[end])
            if np.any(np.diff(s.t[start:end + 1]) > max_gap):
                continue
            if not band_lo <= t1 - t0 <= band_hi:
                continue
            windows = [s.window(t0 - lead, window_len, True) for lead in leads]
            if any(w is None for w in windows):
                continue
            for lead, (lo, hi) in zip(leads, windows):
                out[f"dsr:{fid}:{t0!r}:{int(lead)}"] = {
                    "fridge_id": fid,
                    "store_id": s.store_id,
                    "defrost_start_ts": t0,
                    "target_seconds": (t1 - t0) + lead,
                    "lead_seconds": lead,
                    "window_end_ts": float(s.t[hi - 1]),
                    "feature_names": list(features),
                    "observed": matrix[lo:hi],
                }
    return out


def check_defrost_examples(fleet: Fleet, store, config: dict) -> None:
    """Every stored defrost example equals its reference cut, every run the
    reference accepts has its example, and all leads of one event share a
    split."""
    expected = reference_defrost_examples(fleet, config["wrangle"])
    docs = read_collection(store, "dsr_examples")
    ids = [d["_id"] for d in docs]
    _require(len(ids) == len(set(ids)), "dsr_examples: duplicate _id")
    missing = sorted(set(expected) - set(ids))
    extra = sorted(set(ids) - set(expected))
    _require(not missing, f"dsr_examples: reference example {missing[:1]} not stored")
    _require(not extra, f"dsr_examples: stored example {extra[:1]} has no reference cut")
    threshold = config["wrangle"].get("threshold_temp", THRESHOLD_TEMP)
    event_split: dict[tuple, str] = {}
    for doc in docs:
        ref = expected[doc["_id"]]
        for key in ("fridge_id", "store_id", "defrost_start_ts", "target_seconds",
                    "lead_seconds", "window_end_ts", "feature_names"):
            _require(doc[key] == ref[key],
                     f"{doc['_id']}: {key} is {doc[key]!r}, reference {ref[key]!r}")
        _require(doc["threshold_temp"] == threshold, f"{doc['_id']}: threshold_temp")
        _require(np.array_equal(np.asarray(doc["observed"], dtype=float), ref["observed"]),
                 f"{doc['_id']}: observed window differs from the CSV rows")
        _require(doc["split"] in ("train", "test"), f"{doc['_id']}: bad split")
        event = (doc["fridge_id"], doc["defrost_start_ts"])
        _require(event_split.setdefault(event, doc["split"]) == doc["split"],
                 f"{doc['_id']}: leads of one event are split apart")


def check_fault_examples(fleet: Fleet, store, config: dict) -> None:
    """Positives end in the last cadence slot before fault_ts - horizon,
    negatives sit at least 2 x horizon from every fault of their fridge,
    windows equal the CSV rows, and the classes are balanced."""
    faults_cfg = config.get("faults")
    docs = read_collection(store, "fault_examples")
    if faults_cfg is None:
        _require(not docs, "fault_examples stored without a faults section")
        return
    horizon = float(faults_cfg.get("horizon_s", FAULT_HORIZON_S))
    window_len = faults_cfg.get("window_len", config["wrangle"]["window_len"])
    features = config["wrangle"].get("features", list(WINDOW_FEATURES))
    fault_times = fleet.fault_times()
    _require(docs, "fault_examples: none stored")
    ids = [d["_id"] for d in docs]
    _require(len(ids) == len(set(ids)), "fault_examples: duplicate _id")
    labels = {"fault": 0, "no_fault": 0}
    for doc in docs:
        fid, label = doc["fridge_id"], doc["label"]
        _require(label in labels, f"{doc['_id']}: unknown label {label!r}")
        _require(fid in fleet.fridges, f"{doc['_id']}: unknown fridge")
        labels[label] += 1
        s = fleet.fridges[fid]
        end = doc["window_end_ts"]
        faults = fault_times.get(fid, [])
        if label == "fault":
            boundaries = [ts - horizon for ts in faults
                          if s.last_before(ts - horizon) == end]
            _require(boundaries,
                     f"{doc['_id']}: window end {end!r} is not the last slot "
                     f"before any fault of {fid} minus the horizon")
            boundary = boundaries[0]
        else:
            nxt = int(np.searchsorted(s.t, end, side="right"))
            _require(nxt < len(s.t) and s.t[nxt - 1] == end,
                     f"{doc['_id']}: window end {end!r} is not followed by a reading")
            boundary = float(s.t[nxt])
            _require(all(abs(boundary - ts) >= 2.0 * horizon for ts in faults),
                     f"{doc['_id']}: negative within 2 x horizon of a fault")
        span = s.window(boundary, window_len, False)
        _require(span is not None and float(s.t[span[1] - 1]) == end,
                 f"{doc['_id']}: no valid window ends at {end!r}")
        lo, hi = span
        _require(np.array_equal(np.asarray(doc["observed"], dtype=float),
                                s.matrix(features)[lo:hi]),
                 f"{doc['_id']}: observed window differs from the CSV rows")
        _require(doc["split"] in ("train", "test"), f"{doc['_id']}: bad split")
    if faults_cfg.get("balance", True):
        _require(labels["fault"] == labels["no_fault"],
                 f"fault_examples: classes unbalanced {labels}")


def _model_index(store) -> dict:
    return {doc["name"]: doc for doc in read_collection(store, "model_index")}


def _examples_for(store, model: dict, split: str) -> list[dict]:
    if model["task"] == "regression":
        return [d for d in read_collection(store, "dsr_examples")
                if d["split"] == split and d["lead_seconds"] == model["lead_seconds"]]
    return [d for d in read_collection(store, "fault_examples") if d["split"] == split]


def check_predictions(store, config: dict) -> None:
    """One prediction per example of the model's lead and split; safe-off
    time is predicted seconds minus the lead; class probabilities sum to 1."""
    models = _model_index(store)
    predictions = read_collection(store, "predictions")
    for entry in config.get("infer") or []:
        name, split = entry["model"], entry.get("split", "test")
        _require(name in models, f"predictions: model {name!r} not in model_index")
        model = models[name]
        examples = {d["_id"]: d for d in _examples_for(store, model, split)}
        preds = [p for p in predictions
                 if p["model_name"] == name and p["split"] == split]
        got = sorted(p["example_id"] for p in preds)
        _require(got == sorted(examples),
                 f"predictions {name}: {len(got)} predictions for "
                 f"{len(examples)} {split} examples")
        for p in preds:
            example = examples[p["example_id"]]
            if model["task"] == "regression":
                lead = float(model["lead_seconds"])
                _require(p["lead_seconds"] == lead, f"{p['_id']}: lead_seconds")
                _require(p["target_seconds"] == example["target_seconds"],
                         f"{p['_id']}: target differs from its example")
                _require(math.isfinite(p["predicted_seconds"]),
                         f"{p['_id']}: non-finite prediction")
                _require(p["predicted_safe_off_s"] == p["predicted_seconds"] - lead,
                         f"{p['_id']}: predicted_safe_off_s is not predicted - lead")
            else:
                probs = p["probabilities"]
                _require(abs(sum(probs.values()) - 1.0) <= 1e-9,
                         f"{p['_id']}: probabilities sum to {sum(probs.values())}")
                _require(p["label_predicted"] == max(sorted(probs), key=probs.get),
                         f"{p['_id']}: predicted label is not the most probable")
                _require(p["label_true"] == example["label"],
                         f"{p['_id']}: label_true differs from its example")


def check_reports(store) -> None:
    """Report MAE and baseline match a numpy recomputation to 1e-9 relative,
    each regression model beats the constant-mean baseline, accuracy is the
    share of correct labels, and an embedded selection is the stored one."""
    reports = read_collection(store, "reports")
    _require(reports, "reports: none stored")
    predictions = read_collection(store, "predictions")
    examples = read_collection(store, "dsr_examples")
    selections = {d["_id"]: d for d in read_collection(store, "selections")}
    for report in reports:
        for row in report["rows"]:
            preds = [p for p in predictions
                     if p["model_name"] == row["model"] and p["split"] == row["split"]]
            _require(len(preds) == row["examples"],
                     f"{report['_id']} {row['model']}: examples count")
            if row["task"] == "regression":
                target = np.array([p["target_seconds"] for p in preds])
                predicted = np.array([p["predicted_seconds"] for p in preds])
                train = np.array([d["target_seconds"] for d in examples
                                  if d["split"] == "train"
                                  and d["lead_seconds"] == row["lead_seconds"]])
                mae = float(np.mean(np.abs(predicted - target)))
                baseline = float(np.mean(np.abs(target - train.mean())))
                _require(_close(row["mae_s"], mae),
                         f"{report['_id']} {row['model']}: mae_s {row['mae_s']!r}, "
                         f"recomputed {mae!r}")
                _require(_close(row["baseline_mae_s"], baseline),
                         f"{report['_id']} {row['model']}: baseline_mae_s "
                         f"{row['baseline_mae_s']!r}, recomputed {baseline!r}")
                _require(mae < baseline,
                         f"{report['_id']} {row['model']}: MAE {mae:.1f} s is not "
                         f"below the baseline {baseline:.1f} s")
            else:
                correct = sum(p["label_true"] == p["label_predicted"] for p in preds)
                _require(_close(row["accuracy"], correct / len(preds)),
                         f"{report['_id']} {row['model']}: accuracy")
        if report["selection"] is not None:
            _require(report["selection"] == selections.get(report["selection"]["_id"]),
                     f"{report['_id']}: embedded selection differs from the stored one")


def check_selections(fleet: Fleet, store) -> None:
    """Chosen power is the fridge's CSV maximum, the number chosen is the
    smallest k whose top-k eligible powers reach the target, and feasible
    holds exactly when all eligible power covers it."""
    selections = read_collection(store, "selections")
    _require(selections, "selections: none stored")
    predictions = read_collection(store, "predictions")
    rated = {fid: float(s.power.max()) for fid, s in fleet.fridges.items()}
    for sel in selections:
        latest: dict[str, dict] = {}
        for p in sorted((p for p in predictions if p["model_name"] == sel["model_name"]
                         and p["split"] == sel["split"]),
                        key=lambda p: p["window_end_ts"]):
            latest[p["fridge_id"]] = p
        eligible = {fid: p for fid, p in latest.items()
                    if p["predicted_safe_off_s"] >= sel["min_safe_off_s"]}
        _require(sel["candidates_considered"] == len(eligible),
                 f"{sel['_id']}: {sel['candidates_considered']} candidates, "
                 f"reference {len(eligible)}")
        powers = sorted((rated[fid] for fid in eligible), reverse=True)
        reach = np.cumsum(powers) if powers else np.zeros(0)
        covered = np.flatnonzero(reach >= sel["target_kw"])
        k = int(covered[0]) + 1 if covered.size else len(powers)
        chosen = sel["chosen"]
        for c in chosen:
            fid = c["fridge_id"]
            _require(fid in eligible, f"{sel['_id']}: {fid} is not eligible")
            _require(c["power_kw"] == rated[fid],
                     f"{sel['_id']}: {fid} power {c['power_kw']!r}, CSV max {rated[fid]!r}")
            _require(c["predicted_safe_off_s"] == eligible[fid]["predicted_safe_off_s"],
                     f"{sel['_id']}: {fid} safe-off differs from its latest prediction")
        _require(len(chosen) == k,
                 f"{sel['_id']}: chose {len(chosen)} fridges, smallest cover is {k}")
        _require(sorted((c["power_kw"] for c in chosen), reverse=True) == powers[:k],
                 f"{sel['_id']}: chosen powers are not the top {k}")
        _require(sel["feasible"] == bool(powers and reach[-1] >= sel["target_kw"]),
                 f"{sel['_id']}: feasible is {sel['feasible']}")
        total = sum(c["power_kw"] for c in chosen)
        _require(math.isclose(sel["total_kw"], total, rel_tol=REL_TOL, abs_tol=1e-12),
                 f"{sel['_id']}: total_kw {sel['total_kw']!r}, chosen sum {total!r}")


def check_identical(blobs: list[bytes]) -> None:
    """Report documents of runs with the same seed are byte-identical."""
    _require(len(blobs) >= 2, "determinism: fewer than two runs to compare")
    _require(all(b == blobs[0] for b in blobs[1:]),
             "determinism: report documents differ between runs of one seed")


def report_bytes(store) -> bytes:
    path = Path(store) / "reports.ndjson"
    return path.read_bytes() if path.is_file() else b""


def check_store(data_dir, store, config: dict) -> list[str]:
    """Run every store check; returns the failure messages (empty if all pass)."""
    fleet = Fleet(data_dir)
    failures = []
    for name, check in (
        ("telemetry", lambda: check_telemetry(fleet, store)),
        ("defrost_examples", lambda: check_defrost_examples(fleet, store, config)),
        ("fault_examples", lambda: check_fault_examples(fleet, store, config)),
        ("predictions", lambda: check_predictions(store, config)),
        ("reports", lambda: check_reports(store)),
        ("selections", lambda: check_selections(fleet, store)),
    ):
        try:
            check()
        except CheckFailed as exc:
            failures.append(f"{name}: {exc}")
    return failures
