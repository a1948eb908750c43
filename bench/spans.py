"""Spans around coldflow's public functions, installed from outside the program.

The benchmark patches each function at the name its callers look it up
by (``coldflow.pipelines.open_store``, ``coldflow.pipelines.train``, the
task registry, ...) so that an in-process run records one span per call:
name, thread, parent span, start, end, the thread's CPU time and a work
count. Nothing inside ``src/`` changes.

Stage and task figures are wall time; a task's time is its span minus the
store opens it made. Layer figures (opens, aggregates, training, rates)
use the calling thread's CPU time, so two scripts that share the
interpreter lock in a width-2 pool do not count each other's work.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time


class Tracer:
    """Keeps spans in memory; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, count=None, before=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = {
                "id": next(tracer._ids),
                "name": name(args) if callable(name) else name,
                "thread": threading.get_ident(),
                "parent": stack[-1]["id"] if stack else None,
                "phase": tracer.phase,
                "count": 0,
            }
            if before is not None:
                span.update(before(*args, **kwargs))
            stack.append(span)
            cpu = time.thread_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.thread_time() - cpu
                stack.pop()
                tracer.spans.append(span)
            if count is not None:
                span["count"] = count(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, count=None, before=None):
        """Replace owner.attr (or owner[attr] for a dict) with a traced call."""
        is_map = isinstance(owner, dict)
        original = owner[attr] if is_map else getattr(owner, attr)
        wrapped = self._wrap(name, original, count, before)
        if is_map:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, is_map))

    def uninstall(self):
        for owner, attr, original, is_map in reversed(self._patches):
            if is_map:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        """Wrap every layer boundary the per-layer metrics are read from."""
        import coldflow.cli as cli
        import coldflow.fridgesim as fridgesim
        import coldflow.neural.training as training
        import coldflow.orchestrator as orchestrator
        import coldflow.pipelines as pipelines
        from coldflow.docstore.store import DocumentStore

        for module in (cli, pipelines):
            self.patch(module, "open_store", "docstore.open", before=_ndjson_bytes)
        self.patch(DocumentStore, "insert_many", "docstore.insert_many",
                   count=lambda ids, *a, **k: len(ids))
        self.patch(DocumentStore, "aggregate", "docstore.aggregate")
        self.patch(cli, "parse_telemetry_csv", "telemetry.parse_csv",
                   count=lambda out, *a, **k: len(out[0]))
        self.patch(pipelines, "derive_features", "telemetry.derive_features",
                   count=lambda out, *a, **k: len(out))
        self.patch(fridgesim, "simulate_fridge", "fridgesim.simulate_fridge",
                   count=lambda out, *a, **k: len(out))
        self.patch(pipelines, "extract_defrost_examples", "wrangler.defrost_examples",
                   count=lambda out, *a, **k: len(out[0]))
        # Lead-0 calls return the example unchanged; only real shifts count.
        self.patch(pipelines, "shift_for_lead_time", "wrangler.shift_for_lead_time",
                   before=lambda records, example, lead, *a, **k: {"shift": lead > 0})
        self.patch(pipelines, "merge_faults", "wrangler.merge_faults",
                   count=lambda out, *a, **k: len(out[0]))
        self.patch(pipelines, "train", "neural.train",
                   count=lambda out, X, *a, **k: len(X))
        # One backward pass per optimizer step.
        self.patch(training, "backward", "neural.backward")
        for fn in ("predict_values", "predict_labels"):
            self.patch(pipelines, fn, "neural.predict",
                       count=lambda out, artifact, X, *a, **k: len(X))
        self.patch(orchestrator, "run_stage",
                   lambda args: f"orchestrator.stage.{args[0].name}")
        for key in list(pipelines.REGISTRY):
            self.patch(pipelines.REGISTRY, key, f"task.{key}")
        # The serve requests run these subcommands as their own scripts.
        for key in ("infer", "select", "report"):
            self.patch(cli.COMMANDS, key, f"task.{key}")


def _ndjson_bytes(path, *args, **kwargs) -> dict:
    try:
        entries = list(os.scandir(path))
    except FileNotFoundError:
        entries = []
    return {"bytes": sum(e.stat().st_size for e in entries if e.name.endswith(".ndjson"))}


def _duration(span) -> float:
    return span["end"] - span["start"]


STAGES = ("wrangle", "learn", "infer", "serve")
TASKS = ("wrangle_dsr", "wrangle_faults", "learn", "infer", "select", "report")


def layer_metrics(spans: list[dict], rounds: int) -> dict:
    """Reduce spans to per-layer figures: (value, unit) by metric name.

    Rates divide all counted work by all CPU time in that layer, set-up
    included. Store opens and aggregates are CPU seconds per measured
    round; training is CPU seconds per model and per optimizer step
    (validation passes included). Stage and task times are wall-time
    medians per call. Layers a workload does not reach are left out.
    """
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def busy(name, phase=None):
        return sum(s["cpu"] for s in by_name.get(name, [])
                   if phase is None or s["phase"] == phase)

    def work(name):
        return sum(s["count"] for s in by_name.get(name, []))

    def rate(name):
        cpu = busy(name)
        return work(name) / cpu if cpu > 0 and work(name) else None

    def median(name, less_opens=False):
        values = []
        for s in by_name.get(name, []):
            value = _duration(s)
            if less_opens:
                value -= sum(_duration(c) for c in children.get(s["id"], [])
                             if c["name"] == "docstore.open")
            values.append(value)
        return statistics.median(values) if values else None

    round_opens = [s for s in by_name.get("docstore.open", []) if s["phase"] == "round"]
    open_busy = sum(s["cpu"] for s in round_opens)
    steps = len(by_name.get("neural.backward", []))
    trains = [s["cpu"] for s in by_name.get("neural.train", [])]
    shifts = [s for s in by_name.get("wrangler.shift_for_lead_time", []) if s["shift"]]
    shift_busy = sum(s["cpu"] for s in shifts)
    metrics = {
        "docstore.opens": (len(round_opens) / rounds, "count"),
        "docstore.open_s": (open_busy / rounds, "s"),
        "docstore.open_mb_per_s": (
            sum(s["bytes"] for s in round_opens) / 1e6 / open_busy if open_busy else None,
            "MB/s"),
        "docstore.insert_docs_per_s": (rate("docstore.insert_many"), "docs/s"),
        "docstore.aggregate_s": (busy("docstore.aggregate", "round") / rounds, "s"),
        "telemetry.csv_rows_per_s": (rate("telemetry.parse_csv"), "rows/s"),
        "telemetry.derive_records_per_s": (rate("telemetry.derive_features"), "records/s"),
        "fridgesim.records_per_s": (rate("fridgesim.simulate_fridge"), "records/s"),
        "wrangler.defrost_examples_per_s": (rate("wrangler.defrost_examples"), "1/s"),
        "wrangler.lead_shifts_per_s": (
            len(shifts) / shift_busy if shifts and shift_busy > 0 else None, "1/s"),
        "wrangler.fault_windows_per_s": (rate("wrangler.merge_faults"), "1/s"),
        "neural.train_s": (statistics.median(trains) if trains else None, "s"),
        "neural.train_step_ms": (1000.0 * sum(trains) / steps if steps else None, "ms"),
        "neural.predict_examples_per_s": (rate("neural.predict"), "1/s"),
    }
    for stage in STAGES:
        metrics[f"orchestrator.stage_s.{stage}"] = (
            median(f"orchestrator.stage.{stage}"), "s")
    for task in TASKS:
        metrics[f"pipelines.task_s.{task}"] = (median(f"task.{task}", less_opens=True), "s")
    return {name: value for name, value in metrics.items() if value[0] is not None}
