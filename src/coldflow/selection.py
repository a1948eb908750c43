"""Demand-response selection, and the names every pipeline task shares.

This module imports no numpy, so ``coldflow select`` runs with only the
document store loaded. It also holds what the other task modules build
on: the collection names, ``PipelineError`` and ``insert_new``.
``coldflow.pipelines`` re-exports all of it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from coldflow.docstore import Encoded

log = logging.getLogger(__name__)

TELEMETRY = "telemetry"
FRIDGE_RATINGS = "fridge_ratings"
WORKORDERS = "workorders"
DSR_EXAMPLES = "dsr_examples"
FAULT_EXAMPLES = "fault_examples"
MODEL_INDEX = "model_index"
PREDICTIONS = "predictions"
SELECTIONS = "selections"
REPORTS = "reports"


class PipelineError(Exception):
    pass


def insert_new(store, collection: str, docs: list[dict] | Encoded) -> tuple[int, int]:
    """Insert only documents whose _id is not already present.

    ``docs`` is a list of documents or an encoded batch, whose ids are
    checked against the collection in one call. Returns (inserted,
    skipped). With deterministic ids this makes every writer task
    idempotent: a re-run finds its output already there.
    """
    encoded = isinstance(docs, Encoded)
    ids = docs.ids if encoded else [doc["_id"] for doc in docs]
    keep = store.absent(collection, ids)
    if keep:
        store.insert_many(collection, docs.take(keep) if encoded else [docs[i] for i in keep])
    return len(keep), len(ids) - len(keep)


@dataclass(frozen=True)
class CandidateSelection:
    chosen: tuple
    total_kw: float
    target_kw: float
    feasible: bool


def select_candidates(candidates: list[dict], target_kw: float) -> CandidateSelection:
    """Greedy shed-capacity selection.

    Candidates are sorted by power (desc), predicted safe-off time (desc),
    fridge id (asc) and taken until the running power total reaches the
    target. Largest-first guarantees that a feasible target is met with the
    fewest fridges, and it is infeasible only when even the full fleet
    falls short.
    """
    ranked = sorted(
        candidates,
        key=lambda c: (-c["power_kw"], -c["predicted_safe_off_s"], c["fridge_id"]),
    )
    chosen = []
    total = 0.0
    for candidate in ranked:
        if total >= target_kw:
            break
        chosen.append(candidate)
        total += candidate["power_kw"]
    return CandidateSelection(
        chosen=tuple(chosen),
        total_kw=total,
        target_kw=target_kw,
        feasible=total >= target_kw,
    )


def select_dsr(store, config: dict) -> dict:
    """Pick fridges for a demand-response event from model predictions.

    One candidate per fridge: its most recent prediction on the configured
    split, eligible only if the predicted safe-off time clears the floor.
    A fridge's power is the highest peak among its ``fridge_ratings``
    documents, written at ingest, or 0.0 kW when no batch had a numeric
    power reading. A predicted fridge with no rating raises PipelineError.
    """
    s = config["select"]
    if s is None:
        raise PipelineError("config has no select section")
    docs = store.aggregate(PREDICTIONS, [
        {"$match": {"model_name": s["model"], "split": s["split"]}},
        {"$sort": {"window_end_ts": 1}},
    ])
    if not docs:
        raise PipelineError(f"select: no predictions for model {s['model']!r} "
                            f"on split {s['split']!r}")
    latest: dict[str, dict] = {}
    for doc in docs:
        latest[doc["fridge_id"]] = doc

    power = {
        g["_id"]: g["kw"]
        for g in store.aggregate(FRIDGE_RATINGS, [
            {"$group": {"_id": "$fridge_id", "kw": {"$max": "$peak_power_kw"}}}
        ])
    }
    unrated = sorted(set(latest) - set(power))
    if unrated:
        raise PipelineError(
            f"select: no power rating for fridge {', '.join(unrated)}; re-run "
            "`coldflow ingest` on its telemetry to write its rating")
    candidates = []
    for fid in sorted(latest):
        doc = latest[fid]
        if doc["predicted_safe_off_s"] < s["min_safe_off_s"]:
            continue
        candidates.append({
            "fridge_id": fid,
            "power_kw": float(power[fid] or 0.0),
            "predicted_safe_off_s": doc["predicted_safe_off_s"],
            "example_id": doc["example_id"],
        })
    selection = select_candidates(candidates, s["target_kw"])
    doc = {
        "_id": f"selection:{s['tag']}",
        "model_name": s["model"],
        "split": s["split"],
        "target_kw": s["target_kw"],
        "min_safe_off_s": s["min_safe_off_s"],
        "candidates_considered": len(candidates),
        "chosen": [dict(c) for c in selection.chosen],
        "total_kw": selection.total_kw,
        "feasible": selection.feasible,
    }
    insert_new(store, SELECTIONS, [doc])
    log.info("select: %d/%d fridges for %.1f kW (feasible=%s)",
             len(selection.chosen), len(candidates), selection.total_kw,
             selection.feasible)
    return doc
