"""The report task: model quality, and any selection, in one document.

This module needs numpy for its means but none of the network, the
simulator or the wrangler, so ``coldflow report`` loads only numpy and
the document store. ``coldflow.pipelines`` re-exports ``make_report``.
"""

from __future__ import annotations

import numpy as np

from coldflow.docstore import NotFound
from coldflow.selection import (
    DSR_EXAMPLES,
    PREDICTIONS,
    REPORTS,
    SELECTIONS,
    PipelineError,
    insert_new,
)


def _regression_row(store, name: str, split: str, preds: list[dict]) -> dict:
    lead = preds[0]["lead_seconds"]
    targets = np.asarray([p["target_seconds"] for p in preds])
    predicted = np.asarray([p["predicted_seconds"] for p in preds])
    mae = float(np.mean(np.abs(predicted - targets)))
    train_docs = store.aggregate(DSR_EXAMPLES, [
        {"$match": {"split": "train", "lead_seconds": lead}},
    ])
    if not train_docs:
        raise PipelineError(f"report: no train examples at lead {lead} for baseline")
    train_mean = float(np.mean([d["target_seconds"] for d in train_docs]))
    baseline = float(np.mean(np.abs(targets - train_mean)))
    return {
        "model": name,
        "task": "regression",
        "split": split,
        "lead_seconds": lead,
        "examples": len(preds),
        "mae_s": mae,
        "baseline_mae_s": baseline,
        "improvement": 1.0 - mae / baseline if baseline > 0 else 0.0,
    }


def _classification_row(name: str, split: str, preds: list[dict]) -> dict:
    correct = sum(1 for p in preds if p["label_true"] == p["label_predicted"])
    return {
        "model": name,
        "task": "classification",
        "split": split,
        "examples": len(preds),
        "accuracy": correct / len(preds),
    }


def _render_table(rows: list[dict]) -> str:
    headers = ("model", "task", "lead_s", "n", "mae_s", "baseline_s", "improvement",
               "accuracy")
    table = [headers]
    for row in rows:
        table.append((
            row["model"],
            row["task"],
            f"{row['lead_seconds']:.0f}" if "lead_seconds" in row else "-",
            str(row["examples"]),
            f"{row['mae_s']:.1f}" if "mae_s" in row else "-",
            f"{row['baseline_mae_s']:.1f}" if "baseline_mae_s" in row else "-",
            f"{100 * row['improvement']:.1f}%" if "improvement" in row else "-",
            f"{100 * row['accuracy']:.1f}%" if "accuracy" in row else "-",
        ))
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in table
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def make_report(store, config: dict) -> dict:
    """Summarize model quality (and any selection) into one report document.

    The report's 'created' stamp is the newest window end among the
    predictions it covers: time comes from the data, never the wall clock.
    A ``selection_tag`` with no stored selection raises PipelineError.
    """
    r = config["report"]
    if r is None:
        raise PipelineError("config has no report section")
    rows = []
    created = None
    for name in r["models"]:
        preds = store.aggregate(PREDICTIONS, [
            {"$match": {"model_name": name, "split": r["split"]}},
            {"$sort": {"example_id": 1}},
        ])
        if not preds:
            raise PipelineError(f"report: no predictions for model {name!r} on "
                                f"split {r['split']!r}")
        newest = max(p["window_end_ts"] for p in preds)
        created = newest if created is None else max(created, newest)
        if "predicted_seconds" in preds[0]:
            rows.append(_regression_row(store, name, r["split"], preds))
        else:
            rows.append(_classification_row(name, r["split"], preds))

    selection = None
    tag = r["selection_tag"]
    if tag is not None:
        try:
            selection = store.get(SELECTIONS, f"selection:{tag}")
        except NotFound:
            raise PipelineError(
                f"report: no selection tagged {tag!r}; run `coldflow select` "
                f"with select.tag {tag!r} first") from None

    doc = {
        "_id": f"report:{r['tag']}",
        "created": created,
        "split": r["split"],
        "rows": rows,
        "table": _render_table(rows),
        "selection": selection,
    }
    insert_new(store, REPORTS, [doc])
    return doc
