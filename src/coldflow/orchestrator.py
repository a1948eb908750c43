"""Staged orchestration.

A pipeline is a sequence of stages; each stage is a list of scripts.
Stages are hard barriers: every script in stage N finishes before stage
N+1 starts, because later stages read what earlier ones wrote.

Scripts come in two kinds. Builtins are Python callables from a registry,
handed a WorkerContext. They spend their run in the interpreter, where
threads would only take turns, so a stage with any builtin runs its
scripts one after another, in index order, on the calling thread, and what
they write lands in a fixed order. Externals are argv lists run as
subprocesses with the context exported through environment variables
(PE_INDEX, PE_TOTAL, WINDOW_WIDTH, STAGE, STORE_PATH, CONFIG_PATH) plus
any per-script flags appended to the command line; exit status 0 is
success. A stage of externals alone runs on a pool of threads that wait on
the children: a sliding window of at most ``pool_width`` scripts in
flight. A failing script never cancels its siblings: the stage drains
fully and reports every outcome, with monotonic start/end times for each
script so the actual schedule can be audited afterwards.
"""

from __future__ import annotations

import logging
import os
import subprocess
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScriptSpec:
    """One unit of work: exactly one of builtin or command must be set."""

    name: str
    builtin: str | None = None
    args: dict = field(default_factory=dict)
    command: tuple | None = None
    flags: tuple = ()
    timeout_s: float | None = None

    def __post_init__(self):
        if (self.builtin is None) == (self.command is None):
            raise ValueError(f"script {self.name!r}: set exactly one of builtin/command")


@dataclass(frozen=True)
class StageSpec:
    name: str
    scripts: tuple
    pool_width: int = 1

    def __post_init__(self):
        if self.pool_width < 1:
            raise ValueError(f"stage {self.name!r}: pool_width must be >= 1")


@dataclass(frozen=True)
class WorkerContext:
    """What a script gets told about its place in the schedule."""

    store_path: str
    config_path: str | None
    stage: str
    index: int
    total: int
    width: int


@dataclass(frozen=True)
class ScriptEvent:
    """One script's observed execution: monotonic times, outcome, error."""

    script: str
    index: int
    start_s: float
    end_s: float
    ok: bool
    error: str | None = None
    returncode: int | None = None


@dataclass(frozen=True)
class StageReport:
    stage: str
    events: tuple

    @property
    def ok(self) -> bool:
        return all(event.ok for event in self.events)

    def failures(self):
        return [event for event in self.events if not event.ok]


def _run_builtin(spec: ScriptSpec, registry: dict, ctx: WorkerContext) -> ScriptEvent:
    start = time.monotonic()
    fn = registry.get(spec.builtin)
    if fn is None:
        return ScriptEvent(
            script=spec.name, index=ctx.index, start_s=start, end_s=time.monotonic(),
            ok=False, error=f"unknown builtin {spec.builtin!r}",
        )
    try:
        fn(ctx, **spec.args)
        return ScriptEvent(
            script=spec.name, index=ctx.index, start_s=start,
            end_s=time.monotonic(), ok=True,
        )
    except Exception:
        return ScriptEvent(
            script=spec.name, index=ctx.index, start_s=start, end_s=time.monotonic(),
            ok=False, error=traceback.format_exc(limit=8),
        )


def _run_external(spec: ScriptSpec, ctx: WorkerContext) -> ScriptEvent:
    env = dict(os.environ)
    env.update(
        PE_INDEX=str(ctx.index),
        PE_TOTAL=str(ctx.total),
        WINDOW_WIDTH=str(ctx.width),
        STAGE=ctx.stage,
        STORE_PATH=ctx.store_path,
    )
    if ctx.config_path is not None:
        env["CONFIG_PATH"] = ctx.config_path
    argv = list(spec.command) + list(spec.flags)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=spec.timeout_s
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return ScriptEvent(
            script=spec.name, index=ctx.index, start_s=start, end_s=time.monotonic(),
            ok=False, error=str(exc),
        )
    end = time.monotonic()
    if proc.returncode == 0:
        return ScriptEvent(
            script=spec.name, index=ctx.index, start_s=start, end_s=end,
            ok=True, returncode=0,
        )
    tail = (proc.stderr or proc.stdout or "").strip()[-2000:]
    return ScriptEvent(
        script=spec.name, index=ctx.index, start_s=start, end_s=end, ok=False,
        error=f"exit status {proc.returncode}: {tail}", returncode=proc.returncode,
    )


def run_stage(
    stage: StageSpec,
    registry: dict,
    store_path: str,
    config_path: str | None = None,
) -> StageReport:
    """Run one stage's scripts: in index order on this thread when any is a
    builtin, else on a pool of stage.pool_width threads."""
    total = len(stage.scripts)
    if total == 0:
        return StageReport(stage=stage.name, events=())

    def run_one(pair):
        index, spec = pair
        ctx = WorkerContext(
            store_path=store_path, config_path=config_path, stage=stage.name,
            index=index, total=total, width=stage.pool_width,
        )
        log.debug("stage %s: starting %s (%d/%d)", stage.name, spec.name, index + 1, total)
        event = (
            _run_builtin(spec, registry, ctx)
            if spec.builtin is not None
            else _run_external(spec, ctx)
        )
        if not event.ok:
            log.warning("stage %s: %s failed: %s", stage.name, spec.name, event.error)
        else:
            log.debug("stage %s: %s finished in %.2fs", stage.name, spec.name,
                      event.end_s - event.start_s)
        return event

    if any(spec.builtin is not None for spec in stage.scripts):
        events = tuple(map(run_one, enumerate(stage.scripts)))
    else:
        with ThreadPoolExecutor(max_workers=stage.pool_width) as pool:
            events = tuple(pool.map(run_one, enumerate(stage.scripts)))
    return StageReport(stage=stage.name, events=events)


def run_pipeline(
    stages: list[StageSpec],
    registry: dict,
    store_path: str,
    config_path: str | None = None,
) -> list[StageReport]:
    """Run stages in order with a full barrier between consecutive stages.

    A stage containing any failed script ends the run; the failing stage's
    report is still included.
    """
    reports = []
    for stage in stages:
        report = run_stage(stage, registry, store_path, config_path)
        reports.append(report)
        if not report.ok:
            log.error("pipeline stopped: stage %s had %d failure(s)",
                      stage.name, len(report.failures()))
            break
    return reports
