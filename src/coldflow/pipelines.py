"""End-to-end pipeline tasks over a document store.

Every task reads from and writes to named collections in one store, so a
pipeline run is fully described by (store, config): telemetry and work
orders go in, supervised examples, trained model blobs, predictions, a
demand-response selection and a final report come out. Documents with
deterministic ids are written once and skipped when already present, so
re-running a stage is harmless.

Nothing in this module reads the wall clock. Model ids hash their content,
report timestamps come from the data's own time axis, and every random
draw is seeded from the config, so two runs from the same config write the
same documents. The orchestrator runs these tasks one at a time in config
order, so every collection file, the model files included, is
byte-identical between the two runs.

Tasks are exposed twice: as plain functions over an open store (library
use, tests) and as builtins in REGISTRY for the stage orchestrator. A
builtin opens the store at its context's path, calls its task with the
script's ``args`` (the validated config, or for learn and infer one
model's config entry) and returns the task's result. The one
wrangle task reads the stored telemetry straight into columns, on
``pool_width`` processes, and never holds its documents; it builds every
fridge's block from those columns and cuts both kinds of example from the
blocks. Ingest also
writes each fridge batch's peak power to ``fridge_ratings``, so selection
reads a few small documents and never parses telemetry.

Selection lives in :mod:`coldflow.selection`, which imports no numpy,
together with the collection names, ``PipelineError`` and ``insert_new``;
reporting lives in :mod:`coldflow.reporting`, which imports numpy but not
the network, the simulator or the wrangler. So ``coldflow select`` and
``coldflow report`` load only what they run. This module re-exports those
names as the same objects and holds every other task.
"""

from __future__ import annotations

import functools
import hashlib
import logging

import numpy as np

from coldflow.docstore import Encoded, canonical_dumps, open_store
from coldflow.fridgesim import (
    SimConfig,
    fleet_specs,
    plan_faults,
    simulate_fleet,
    workorders_for_plans,
)
from coldflow.neural import TrainConfig, from_bytes, predict_labels, predict_values, to_bytes, train
from coldflow.reporting import make_report
from coldflow.selection import (
    DSR_EXAMPLES,
    FAULT_EXAMPLES,
    FRIDGE_RATINGS,
    MODEL_INDEX,
    PREDICTIONS,
    REPORTS,
    SELECTIONS,
    TELEMETRY,
    WORKORDERS,
    CandidateSelection,
    PipelineError,
    insert_new,
    select_candidates,
    select_dsr,
)
from coldflow.telemetry import Readings, Setpoints, derive_features, runs
from coldflow.wrangler import (
    InsufficientHistory,
    Workorder,
    balance_classes,
    document_columns,
    extract_defrost_examples,
    fridge_series,
    merge_faults,
    shift_for_lead_time,
    split_dataset,
)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------- ingest


def ingest_records(store, readings: Readings, setpoints: Setpoints) -> tuple[int, int]:
    """Store one sorted batch of readings: :func:`fridge_batch`, then
    :func:`store_fridge_batch`. Returns the telemetry (inserted, skipped)."""
    return store_fridge_batch(store, *fridge_batch(readings, setpoints))


def fridge_batch(readings: Readings, setpoints: Setpoints) -> tuple[Encoded, list[dict]]:
    """A batch of readings made ready to store, with no store at hand: its
    telemetry documents checked and encoded, and one rating per fridge.

    A rating holds the batch's peak numeric ``extra.power_kw`` (None when
    it has none). Its _id names the fridge, the batch's first and last
    timestamps and its reading count, so re-ingesting the same batch writes
    nothing, while a grown file, another batch, or a retry after a crash
    between the two writes each stores its own rating.
    """
    return derive_features(readings, setpoints), _rating_docs(readings)


def store_fridge_batch(store, telemetry: Encoded, ratings: list[dict]) -> tuple[int, int]:
    """Append a :func:`fridge_batch`'s telemetry not yet stored, then its
    ratings. Returns the telemetry (inserted, skipped)."""
    counts = insert_new(store, TELEMETRY, telemetry)
    insert_new(store, FRIDGE_RATINGS, ratings)
    return counts


def _rating_docs(readings: Readings) -> list[dict]:
    docs = []
    stamps, power = readings.timestamps, readings.extra.get("power_kw", [])
    for lo, hi in runs(readings.fridge_ids):
        fid = readings.fridge_ids[lo]
        powers = [
            value for value in power[lo:hi]
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        docs.append({
            "_id": f"rating:{fid}:{stamps[lo]!r}:{stamps[hi - 1]!r}:{hi - lo}",
            "fridge_id": fid,
            "peak_power_kw": max(powers, default=None),
        })
    return docs


def ingest_workorders(store, orders) -> tuple[int, int]:
    """Store the (raw_text, timestamp) work orders not stored yet, ordered by
    timestamp and text, with positional ids after the stored ones. Returns
    (inserted, skipped)."""
    stored = store.find_all(WORKORDERS)
    known = {(doc["raw_text"], doc["timestamp"]) for doc in stored}
    ordered = sorted((pair for pair in orders if tuple(pair) not in known),
                     key=lambda pair: (pair[1], pair[0]))
    docs = [
        {"_id": f"wo:{i:06d}", "raw_text": text, "timestamp": ts}
        for i, (text, ts) in enumerate(ordered, start=len(stored))
    ]
    inserted, _ = insert_new(store, WORKORDERS, docs)
    return inserted, len(orders) - inserted


def telemetry_blocks(store, feature_names, width: int = 1) -> dict:
    """Every fridge's FridgeSeries, keyed in sorted fridge-id order.

    The stored telemetry is read as columns, on ``width`` processes, one
    byte range of the file each (``DocumentStore.map_ranges``); no
    document is kept. Each fridge's readings are stable-sorted by
    timestamp, so they run forwards in time even from a batch ingested out
    of order. A timestamp that is not a number raises TypeError.
    """
    parts = store.map_ranges(
        TELEMETRY, functools.partial(document_columns, feature_names=feature_names), width)
    return fridge_series(parts, feature_names)


# --------------------------------------------------------------- wrangle


def _dsr_example_doc(example, split: str) -> dict:
    return {
        "_id": f"dsr:{example.fridge_id}:{example.defrost_start_ts!r}:"
               f"{int(example.lead_seconds)}",
        "event_id": example.event_id,
        "fridge_id": example.fridge_id,
        "store_id": example.store_id,
        "defrost_start_ts": example.defrost_start_ts,
        "target_seconds": example.target_seconds,
        "lead_seconds": example.lead_seconds,
        "threshold_temp": example.threshold_temp,
        "window_end_ts": example.window_end_ts,
        "feature_names": list(example.feature_names),
        "observed": [list(map(float, row)) for row in example.observed],
        "split": split,
    }


def wrangle(store, config: dict) -> dict:
    """Build every fridge's block once, then cut and store defrost examples
    and, with a faults section, fault windows. Returns both summaries as
    ``{"dsr": ..., "faults": ... or None}``."""
    blocks = telemetry_blocks(store, config["wrangle"]["features"], config["pool_width"])
    summary = {"dsr": _cut_dsr_examples(store, blocks, config), "faults": None}
    if config["faults"] is not None:
        summary["faults"] = _cut_fault_examples(store, blocks, config)
    return summary


def _cut_dsr_examples(store, blocks: dict, config: dict) -> dict:
    """Cut defrost-duration examples at every configured lead and split them.

    The split is assigned per defrost event, so all leads of one event land
    on the same side and the test set never shares an event with training.
    """
    w = config["wrangle"]
    events = []
    rejects: dict[str, int] = {}
    shift_failures = 0
    per_event_examples: dict[str, list] = {}
    for series in blocks.values():
        examples, fridge_rejects = extract_defrost_examples(
            series,
            window_len=w["window_len"],
            threshold=w["threshold_temp"],
            cadence_s=w["cadence_s"],
            gap_factor=w["gap_factor"],
            target_band_s=tuple(w["target_band_s"]),
        )
        for reject in fridge_rejects:
            rejects[reject.reason] = rejects.get(reject.reason, 0) + 1
        for example in examples:
            variants = []
            for lead in w["leads"]:
                try:
                    variants.append(
                        shift_for_lead_time(series, example, lead,
                                            cadence_s=w["cadence_s"],
                                            gap_factor=w["gap_factor"])
                    )
                except InsufficientHistory:
                    shift_failures += 1
            if len(variants) == len(w["leads"]):
                events.append(example.event_id)
                per_event_examples[example.event_id] = variants

    if not events:
        raise PipelineError("wrangle produced no usable defrost events")
    test_events = set(split_dataset(sorted(events), w["test_fraction"],
                                    w["val_fraction"], config["seed"]))
    docs = []
    for event_id in sorted(per_event_examples):
        tag = "test" if event_id in test_events else "train"
        docs.extend(_dsr_example_doc(ex, tag) for ex in per_event_examples[event_id])
    inserted, skipped = insert_new(store, DSR_EXAMPLES, docs)
    summary = {
        "events": len(events),
        "examples": len(docs),
        "rejected_runs": rejects,
        "lead_shift_failures": shift_failures,
        "train_events": len(events) - len(test_events),
        "test_events": len(test_events),
        "inserted": inserted,
        "skipped": skipped,
    }
    log.info("wrangle dsr: %s", summary)
    return summary


def _fault_example_doc(example) -> dict:
    """A fault window's document, without its split."""
    return {
        "_id": f"fault:{example.fridge_id}:{example.window_end_ts!r}:{example.label}",
        "fridge_id": example.fridge_id,
        "store_id": example.store_id,
        "label": example.label,
        "fault_name": example.fault_name,
        "horizon_seconds": example.horizon_seconds,
        "window_end_ts": example.window_end_ts,
        "feature_names": list(example.feature_names),
        "observed": [list(map(float, row)) for row in example.observed],
    }


def _cut_fault_examples(store, blocks: dict, config: dict) -> dict:
    """Join work orders to the blocks and store labeled fault windows."""
    f = config["faults"]
    w = config["wrangle"]
    orders = sorted(
        (Workorder(doc["raw_text"], doc["timestamp"]) for doc in store.find_all(WORKORDERS)),
        key=lambda order: (order.timestamp, order.raw_text))
    examples, stats = merge_faults(
        blocks,
        orders,
        horizon_seconds=f["horizon_s"],
        window_len=f["window_len"],
        patterns=f["patterns"],
        negatives_per_positive=f["negatives_per_positive"],
        seed=config["seed"],
        cadence_s=w["cadence_s"],
        gap_factor=w["gap_factor"],
    )
    if f["balance"] and examples:
        examples = balance_classes(examples, config["seed"])
    if not examples:
        raise PipelineError("wrangle produced no fault examples; "
                            f"merge stats: {stats}")
    docs = sorted(map(_fault_example_doc, examples), key=lambda d: d["_id"])
    test_ids = set(split_dataset([doc["_id"] for doc in docs], f["test_fraction"],
                                 f["val_fraction"], config["seed"]))
    for doc in docs:
        doc["split"] = "test" if doc["_id"] in test_ids else "train"
    inserted, skipped = insert_new(store, FAULT_EXAMPLES, docs)
    summary = {
        "positives": stats.positives,
        "negatives": stats.negatives,
        "skipped_workorders": stats.skipped_workorders,
        "unmatched_fridges": stats.unmatched_fridges,
        "positive_rejects": stats.positive_rejects,
        "examples": len(docs),
        "inserted": inserted,
        "skipped": skipped,
    }
    log.info("wrangle faults: %s", summary)
    return summary


# ----------------------------------------------------------------- learn


def _examples(store, task: str, lead_seconds: float, select, split: str):
    """The examples in ``split`` that pass ``select``, ordered by _id, and
    their windows as one array: defrost examples cut at ``lead_seconds``
    for regression, fault windows for classification."""
    if task == "regression":
        collection = DSR_EXAMPLES
        match = {"split": split, "lead_seconds": lead_seconds}
    else:
        collection = FAULT_EXAMPLES
        match = {"split": split}
    docs = store.aggregate(collection, [{"$match": match}, *select])
    docs.sort(key=lambda d: d["_id"])
    return docs, np.asarray([doc["observed"] for doc in docs], dtype=float)


def learn_model(store, entry: dict, global_seed: int) -> dict:
    """Train one configured model on the train split and store the blob."""
    docs, X = _examples(store, entry["task"], entry["lead_seconds"], entry["select"], "train")
    if not docs:
        raise PipelineError(f"learn {entry['name']}: no training examples matched")
    seed = entry["seed"] if entry["seed"] is not None else global_seed
    train_config = TrainConfig(
        cell=entry["cell"],
        layers=entry["layers"],
        hidden=entry["hidden"],
        task=entry["task"],
        batch_size=entry["batch_size"],
        epochs=entry["epochs"],
        learning_rate=entry["learning_rate"],
        seed=seed,
        meta={"name": entry["name"], "lead_seconds": entry["lead_seconds"]},
    )
    if entry["task"] == "regression":
        y = np.asarray([doc["target_seconds"] for doc in docs], dtype=float)
    else:
        y = [doc["label"] for doc in docs]
    result = train(X, y, train_config)
    final = result.history[-1]
    select_hash = hashlib.blake2b(
        canonical_dumps(list(entry["select"])).encode("utf-8"), digest_size=8
    ).hexdigest()
    meta = {
        "name": entry["name"],
        "task": entry["task"],
        "lead_seconds": entry["lead_seconds"],
        "cell": entry["cell"],
        "layers": entry["layers"],
        "hidden": entry["hidden"],
        "epochs": entry["epochs"],
        "seed": seed,
        "examples": len(docs),
        # Data clock, not wall clock: the newest window the model saw.
        "created": max(doc["window_end_ts"] for doc in docs),
        "select_hash": select_hash,
        "loss_history": [[e.train_loss, e.val_loss] for e in result.history],
        "final_train_loss": final.train_loss,
        "final_val_loss": final.val_loss,
    }
    if final.val_accuracy is not None:
        meta["final_val_accuracy"] = final.val_accuracy
    model_id = store.put_model(meta, to_bytes(result.artifact))
    index_doc = dict(meta, _id=f"model:{entry['name']}", model_id=model_id)
    insert_new(store, MODEL_INDEX, [index_doc])
    log.info("learn %s: model %s over %d examples, final val %.3f",
             entry["name"], model_id, len(docs), final.val_loss)
    return index_doc


def load_model(store, name: str):
    """Fetch a trained model by its configured name."""
    index_doc = store.get(MODEL_INDEX, f"model:{name}")
    _, weights = store.get_model(index_doc["model_id"])
    return index_doc, from_bytes(weights)


# ----------------------------------------------------------------- infer


def infer_model(store, entry: dict) -> dict:
    """Run a stored model over a split and persist per-example predictions.

    Regression predictions carry predicted_safe_off_s: the predicted
    seconds to threshold minus the decision lead, i.e. how long the fridge
    can stay off after the decision point.
    """
    name = entry["model"]
    index_doc, artifact = load_model(store, name)
    docs, X = _examples(store, index_doc["task"], index_doc["lead_seconds"],
                        entry["select"], entry["split"])
    if not docs:
        raise PipelineError(f"infer {name}: no examples in split {entry['split']!r}")
    out = [{"_id": f"pred:{name}:{doc['_id']}", "model_name": name,
            "model_id": index_doc["model_id"], "example_id": doc["_id"],
            "fridge_id": doc["fridge_id"], "store_id": doc["store_id"],
            "split": doc["split"], "window_end_ts": doc["window_end_ts"]}
           for doc in docs]
    if index_doc["task"] == "regression":
        lead = float(index_doc["lead_seconds"])
        for pred, doc, value in zip(out, docs, predict_values(artifact, X)):
            pred.update(lead_seconds=lead, target_seconds=doc["target_seconds"],
                        predicted_seconds=float(value),
                        predicted_safe_off_s=float(value) - lead)
    else:
        labels, probs = predict_labels(artifact, X)
        for pred, doc, label, p in zip(out, docs, labels, probs):
            pred.update(label_true=doc["label"], label_predicted=label,
                        probabilities={cls: float(v) for cls, v in zip(artifact.classes, p)})
    inserted, skipped = insert_new(store, PREDICTIONS, out)
    summary = {"model": name, "split": entry["split"],
               "predictions": len(out), "inserted": inserted, "skipped": skipped}
    log.info("infer: %s", summary)
    return summary


# ------------------------------------------------------------ run driver


def sim_config_from(config: dict) -> SimConfig:
    sim = config["simulate"]
    if sim is None:
        raise PipelineError("config has no simulate section")
    return SimConfig(
        n_fridges=sim["n_fridges"],
        days=sim["days"],
        seed=config["seed"],
        fridges_per_store=sim["fridges_per_store"],
        noise=sim["noise"],
    )


def plan_fleet_faults(sim_config: SimConfig, config: dict):
    """Returns (fault plans, rendered work orders) for the configured fleet."""
    sim = config["simulate"]
    if not sim["faults"] or sim["faults"]["count"] == 0:
        return [], []
    specs = fleet_specs(sim_config)
    plans = plan_faults(specs, sim_config, sim["faults"]["count"], config["seed"])
    orders = workorders_for_plans(plans, specs, config["seed"],
                                  sim["faults"]["noise_workorders"])
    return plans, orders


def midband_setpoints(spec) -> Setpoints:
    """Nominal setpoints recorded as provenance on ingested telemetry."""
    mid = (spec.t_set_low + spec.t_set_high) / 2.0
    return Setpoints(on=mid, off=mid - spec.spread)


def simulate_into_store(store, config: dict) -> dict:
    """Simulate the configured fleet and ingest telemetry plus work orders."""
    sim_config = sim_config_from(config)
    plans, orders = plan_fleet_faults(sim_config, config)
    if orders:
        ingest_workorders(store, orders)
    total = 0
    for spec, readings in simulate_fleet(sim_config, plans):
        inserted, _ = ingest_records(store, readings, midband_setpoints(spec))
        total += inserted
    summary = {"fridges": sim_config.n_fridges, "records": total,
               "faults": len(plans)}
    log.info("simulate: %s", summary)
    return summary


def _with_store(fn):
    """The builtin that runs ``fn(store, **args)`` on the store at
    ``ctx.store_path`` and returns what ``fn`` returns."""
    def task(ctx, **args):
        with open_store(ctx.store_path, wait_for_lock_s=60.0) as store:
            return fn(store, **args)

    return task


REGISTRY = {
    "wrangle_dsr": _with_store(wrangle),  # bench traces name task spans by key
    "learn": _with_store(learn_model),
    "infer": _with_store(infer_model),
    "select": _with_store(select_dsr),
    "report": _with_store(make_report),
}


def build_stages(config: dict):
    """Translate a validated config into orchestrator stages."""
    from coldflow.orchestrator import ScriptSpec, StageSpec

    stages = [StageSpec(
        name="wrangle",
        scripts=(ScriptSpec(name="wrangle_dsr", builtin="wrangle_dsr",
                            args={"config": config}),),
    )]
    if config["learn"]:
        stages.append(StageSpec(
            name="learn",
            scripts=tuple(
                ScriptSpec(name=f"learn:{entry['name']}", builtin="learn",
                           args={"entry": entry, "global_seed": config["seed"]})
                for entry in config["learn"]
            ),
        ))
    if config["infer"]:
        stages.append(StageSpec(
            name="infer",
            scripts=tuple(
                ScriptSpec(name=f"infer:{entry['model']}", builtin="infer",
                           args={"entry": entry})
                for entry in config["infer"]
            ),
        ))
    serve_scripts = []
    if config["select"] is not None:
        serve_scripts.append(ScriptSpec(name="select", builtin="select",
                                        args={"config": config}))
    if config["report"] is not None:
        serve_scripts.append(ScriptSpec(name="report", builtin="report",
                                        args={"config": config}))
    if serve_scripts:
        stages.append(StageSpec(name="serve", scripts=tuple(serve_scripts)))
    # User-supplied external stages run last; the orchestrator hands them
    # the store and config through PE_*/STORE_PATH/CONFIG_PATH env vars.
    for stage in config.get("stages") or []:
        stages.append(StageSpec(
            name=stage["name"],
            scripts=tuple(
                ScriptSpec(name=script["name"], command=tuple(script["command"]),
                           flags=tuple(script["flags"]),
                           timeout_s=script["timeout_s"])
                for script in stage["scripts"]
            ),
            pool_width=stage["pool_width"],
        ))
    return stages


def run_project(store_path: str, config: dict, config_path: str | None = None):
    """Full pipeline: simulate/ingest, then staged wrangle-learn-infer-serve.

    Returns (stage_reports, ok). Simulation and ingest run sequentially up
    front; the remaining tasks go through the stage orchestrator with a
    barrier between stages. config_path is advertised to external scripts
    via CONFIG_PATH and is only needed when the config defines extra stages.
    """
    from coldflow.orchestrator import run_pipeline

    if config["simulate"] is not None:
        with open_store(store_path, wait_for_lock_s=60.0) as store:
            simulate_into_store(store, config)
    stages = build_stages(config)
    reports = run_pipeline(stages, REGISTRY, store_path, config_path=config_path)
    ok = all(report.ok for report in reports) and len(reports) == len(stages)
    return reports, ok
