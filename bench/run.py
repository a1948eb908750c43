#!/usr/bin/env python3
"""Benchmark for coldflow: time a workload end to end, check its outputs.

    python3 bench/run.py --workload quickstart|fleet|serve|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. The program is run as a user runs it,
``python -m coldflow.cli ...`` with ``src`` on PYTHONPATH. Set-up makes the
workload's inputs with ``coldflow simulate`` (three times; the median is
``setup_s``), then whole rounds run until ``--seconds`` would be exceeded
(at least one): ``ingest`` then ``run`` for quickstart and fleet, one
``infer``/``select``/``report`` request for serve. A few more ingests of
the inputs then feed ``ingest_docs_per_s``, and every output is checked
against an independent recomputation (bench/checks.py).

With ``--trace 1`` the same work runs in this process through
``coldflow.cli.main``, alternating untraced and traced passes; it prints
the per-layer metrics, the tracing overhead, and writes every span to
``bench/results/``. The last line of output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``; a run that cannot set
up, or whose every round fails, prints an error and exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 3
# ingest_docs_per_s is the median rate over the run's ingests, topped up
# after the rounds until they add up to this many seconds: a single 1.5-4 s
# ingest reads up to 30% apart on a shared machine.
INGEST_SECONDS = 6.0
CALL_TIMEOUT_S = 120.0


class RunFailed(Exception):
    """Set-up failed, or every round did: there is nothing to measure."""


def _store_mb(store: Path) -> float:
    return sum(e.stat().st_size for e in os.scandir(store) if e.is_file()) / 1e6


def _csv_rows(data_dir: Path) -> int:
    rows = 0
    for path in (data_dir / "telemetry").glob("*.csv"):
        with open(path, "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return rows


class Runner:
    """Runs coldflow CLI commands: as child processes, or in this process."""

    def __init__(self, work: Path, in_process: bool):
        self.work = work
        self.in_process = in_process
        self.calls = 0
        self.last_log = None

    def failure(self, what: str) -> RunFailed:
        tail = self.last_log.read_text().strip().splitlines()[-5:]
        return RunFailed("\n  ".join([what] + tail))

    def __call__(self, *args) -> tuple[float, float, bool]:
        """Returns (seconds, peak RSS in MB, ok) for one command."""
        self.calls += 1
        log = self.last_log = self.work / f"call{self.calls:05d}-{args[0]}.log"
        if self.in_process:
            from coldflow.cli import main

            with open(log, "w") as out, contextlib.redirect_stdout(out):
                start = time.perf_counter()
                code = main([str(a) for a in args])
                elapsed = time.perf_counter() - start
            return elapsed, 0.0, code == 0
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(log, "w") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "coldflow.cli", *map(str, args)],
                                    stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux.
        return elapsed, usage.ru_maxrss * 1024 / 1e6, proc.returncode == 0


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=1, sort_keys=True))
    return path


class Workload:
    """One workload at one seed: set-up, measured rounds, checks."""

    def __init__(self, name: str, seed: int, work: Path, runner: Runner):
        self.name = name
        self.seed = seed
        self.work = work
        self.run_cli = runner
        self.sim_config, self.run_config = workloads.configs(name, seed)
        self.sim_path = _write_config(work / "simulate.json", self.sim_config)
        self.run_path = _write_config(work / "run.json", self.run_config)
        self.data = None
        self.store = None
        self.ingests = []  # (rows, seconds) of every timed ingest
        self.reports = []  # report bytes of whole pipelines of this seed
        self.rounds = 0

    # -- set-up ----------------------------------------------------------

    def setup(self, index: int) -> float:
        """Make the inputs (and, for serve, the trained store); returns seconds."""
        data = self.work / f"data{index}"
        seconds, _, ok = self.run_cli("simulate", "--config", self.sim_path, "--out", data)
        if not ok:
            raise self.run_cli.failure(f"{self.name}: simulate failed")
        if self.name == "serve":
            store = self.work / f"store-setup{index}"
            took, _, ok = self._pipeline(data, store)
            if not ok:
                raise self.run_cli.failure("serve: building the store failed")
            seconds += took
            self.reports.append(checks.report_bytes(store))
            self._replace("store", store)
        self._replace("data", data)
        return seconds

    def _replace(self, attr: str, path: Path):
        old = getattr(self, attr)
        if old is not None:
            shutil.rmtree(old)
        setattr(self, attr, path)

    def ingest_probe(self) -> bool:
        """One more timed ingest of the inputs, for ingest_docs_per_s only."""
        store = self.work / "store-ingest"
        seconds, _, ok = self.run_cli("ingest", "--config", self.run_path,
                                      "--store", store, "--from", self.data)
        if ok:
            self.ingests.append((_csv_rows(self.data), seconds))
        shutil.rmtree(store, ignore_errors=True)
        return ok

    def _pipeline(self, data: Path, store: Path) -> tuple[float, float, bool]:
        """ingest then run into a fresh store; returns (seconds, peak RSS MB, ok)."""
        ingest_s, ingest_rss, ok = self.run_cli("ingest", "--config", self.run_path,
                                                "--store", store, "--from", data)
        if not ok:
            return ingest_s, ingest_rss, False
        self.ingests.append((_csv_rows(data), ingest_s))
        run_s, run_rss, ok = self.run_cli("run", "--config", self.run_path, "--store", store)
        return ingest_s + run_s, max(ingest_rss, run_rss), ok

    # -- measured rounds -------------------------------------------------

    def round(self) -> tuple[float, float, bool]:
        """One measured operation; returns (seconds, peak RSS MB, ok)."""
        index = self.rounds
        self.rounds += 1
        if self.name == "serve":
            config = workloads.serve_request(self.run_config, self.seed, index)
            path = _write_config(self.work / f"request{index:05d}.json", config)
            seconds, peak = 0.0, 0.0
            for command in ("infer", "select", "report"):
                took, rss, ok = self.run_cli(command, "--config", path, "--store", self.store)
                seconds, peak = seconds + took, max(peak, rss)
                if not ok:
                    return seconds, peak, False
            return seconds, peak, True
        store = self.work / f"store-round{index}"
        seconds, peak, ok = self._pipeline(self.data, store)
        if ok:
            self.reports.append(checks.report_bytes(store))
            self._replace("store", store)
        else:
            shutil.rmtree(store, ignore_errors=True)
        return seconds, peak, ok

    def check(self) -> list[str]:
        failures = checks.check_store(self.data, self.store, self.run_config)
        if len(self.reports) >= 2:
            try:
                checks.check_identical(self.reports)
            except checks.CheckFailed as exc:
                failures.append(str(exc))
        return failures


def _new_workdir(name: str, seed: int) -> Path:
    work = BENCH / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def measure(name: str, seed: int, seconds: float) -> dict:
    """End-to-end run: child processes, no tracing."""
    work = _new_workdir(name, seed)
    try:
        wl = Workload(name, seed, work, Runner(work, in_process=False))
        setup_s = statistics.median([wl.setup(i) for i in range(SETUPS)])
        times, peaks, sizes = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            took, peak, ok = wl.round()
            attempted += 1
            if ok:
                times.append(took)
                peaks.append(peak)
                sizes.append(_store_mb(wl.store))
            else:
                failed += 1
            if time.perf_counter() - start + took > seconds:
                break
        if not times:
            raise RunFailed(f"{name}: every round failed")
        while True:
            attempted += 1
            if not wl.ingest_probe():
                failed += 1
                break
            if sum(seconds for _, seconds in wl.ingests) >= INGEST_SECONDS:
                break
        failures = wl.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"CHECK FAILED {name}: {failure}")
    print(f"{name}: seed {seed}, {attempted} operations ({failed} failed), "
          f"{len(times)} timed rounds, {len(wl.reports)} report files compared")
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(times), "s"),
        "ingest_docs_per_s": (statistics.median(r / s for r, s in wl.ingests), "docs/s"),
        "store_mb": (statistics.median(sizes), "MB"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    return _result(not failures, attempted, failed, metrics)


def trace(name: str, seed: int, seconds: float) -> dict:
    """Per-layer run: in this process, untraced and traced passes alternating."""
    sys.path.insert(0, str(SRC))
    import coldflow.cli  # noqa: F401  imported before any timed pass
    import spans

    work = _new_workdir(name, seed)
    tracer = spans.Tracer()
    passes = {False: [], True: []}

    @contextlib.contextmanager
    def tracing(on: bool):
        if on:
            tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()

    try:
        wl = Workload(name, seed, work, Runner(work, in_process=True))
        for index, on in enumerate((False, True)):
            with tracing(on):
                passes[on].append(wl.setup(index))
        tracer.phase = "round"
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            # Alternate which pass of a pair goes first, so warm-up favours neither.
            for on in (attempted % 4 == 2, attempted % 4 != 2):
                with tracing(on):
                    took, _, ok = wl.round()
                passes[on].append(took)
                attempted += 1
                failed += not ok
            if time.perf_counter() - start + 2 * took > seconds:
                break
        failures = wl.check()
        telemetry = wl.store / "telemetry.ndjson"
        with open(telemetry, "rb") as fh:
            telemetry_docs = sum(1 for _ in fh)
        bytes_per_doc = telemetry.stat().st_size / telemetry_docs
        mae = _dsr_mae(wl.store)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"CHECK FAILED {name}: {failure}")
    metrics = spans.layer_metrics(tracer.spans, len(passes[True]) - 1)
    metrics["docstore.telemetry_bytes_per_doc"] = (bytes_per_doc, "B")
    metrics["neural.dsr_mae_s"] = (mae, "s")
    untraced, traced = sum(passes[False]), sum(passes[True])
    overhead = traced / untraced - 1.0
    print(f"{name}: trace overhead {100 * overhead:+.1f}% (traced {traced:.2f} s, "
          f"untraced {untraced:.2f} s, {len(passes[True])} passes each)")
    out = BENCH / "results" / f"trace-{name}-{seed}.json"
    out.parent.mkdir(exist_ok=True)
    origin = min((s["start"] for s in tracer.spans), default=0.0)
    out.write_text(json.dumps({
        "workload": name, "seed": seed,
        "overhead": {"share": overhead, "traced_s": traced, "untraced_s": untraced},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": [dict(s, start=s["start"] - origin, end=s["end"] - origin)
                  for s in tracer.spans],
    }, indent=1))
    print(f"{name}: spans and per-layer metrics written to {out.relative_to(ROOT)}")
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["per_layer"]]
    missing = [m for m in per_layer if m not in metrics]
    if missing:
        print(f"{name}: no reading for {', '.join(missing)}")
    return _result(not failures and not missing, attempted, failed,
                   {m: metrics[m] for m in per_layer if m in metrics})


def _dsr_mae(store: Path) -> float:
    """Test MAE of the lead-0 safe-off model, from the last report."""
    report = checks.read_collection(store, "reports")[-1]
    return next(row["mae_s"] for row in report["rows"]
                if row["task"] == "regression" and row["lead_seconds"] == 0)


def _result(correct, attempted, failed, metrics) -> dict:
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coldflow" / "cli.py").is_file():
        print(f"error: no coldflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        result = (trace if args.trace else measure)(args.workload, args.seed, args.seconds)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for metric, reading in result["metrics"].items():
        print(f"{args.workload} {metric} = {reading['value']:.6g} {reading['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own harness process.

    A child's peak RSS includes its parent's at the time it was started, so
    one workload's checks must not swell the harness that starts the next.
    """
    results = {}
    for name in sorted(workloads.WORKLOADS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
