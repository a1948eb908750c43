"""Stages: width limits, serial builtins, barriers, failure isolation, subprocess env."""

import sys
import threading
import time

import pytest

from coldflow.orchestrator import (
    ScriptSpec,
    StageSpec,
    run_pipeline,
    run_stage,
)


def max_concurrency(events):
    """Peak number of simultaneously running scripts, from the event log."""
    boundaries = []
    for event in events:
        boundaries.append((event.start_s, 1))
        boundaries.append((event.end_s, -1))
    running = peak = 0
    for _, delta in sorted(boundaries):
        running += delta
        peak = max(peak, running)
    return peak


def test_script_spec_validation():
    with pytest.raises(ValueError):
        ScriptSpec(name="both", builtin="x", command=("echo",))
    with pytest.raises(ValueError):
        ScriptSpec(name="neither")
    with pytest.raises(ValueError):
        StageSpec(name="bad", scripts=(), pool_width=0)


def test_pool_width_caps_concurrency():
    # External scripts each sleep in their own child process; the pool's
    # threads only wait on them.
    sleep = (sys.executable, "-c", "import time; time.sleep(0.05)")
    stage = StageSpec(
        name="post",
        scripts=tuple(ScriptSpec(name=f"s{i}", command=sleep) for i in range(6)),
        pool_width=2,
    )
    report = run_stage(stage, {}, store_path="/tmp/ignored")
    assert report.ok
    assert len(report.events) == 6
    assert max_concurrency(report.events) <= 2
    # With 6 scripts of equal length through 2 workers, the pool is
    # actually used: some pair overlaps.
    assert max_concurrency(report.events) == 2


def test_builtins_run_in_order_on_the_calling_thread():
    threads = []

    def probe(ctx):
        threads.append(threading.get_ident())
        time.sleep(0.01)

    stage = StageSpec(
        name="learn",
        scripts=tuple(ScriptSpec(name=f"s{i}", builtin="probe") for i in range(4)),
        pool_width=2,
    )
    report = run_stage(stage, {"probe": probe}, store_path="/tmp/ignored")
    assert report.ok
    assert [e.index for e in report.events] == [0, 1, 2, 3]
    for before, after in zip(report.events, report.events[1:]):
        assert before.end_s <= after.start_s
    assert threads == [threading.get_ident()] * 4


def test_context_fields_and_results():
    seen = []
    lock = threading.Lock()

    def probe(ctx, tag=None):
        with lock:
            seen.append((ctx.index, ctx.total, ctx.width, ctx.stage, ctx.store_path, tag))

    stage = StageSpec(
        name="wrangle",
        scripts=(
            ScriptSpec(name="a", builtin="probe", args={"tag": "A"}),
            ScriptSpec(name="b", builtin="probe", args={"tag": "B"}),
        ),
        pool_width=2,
    )
    report = run_stage(stage, {"probe": probe}, store_path="/data/store", config_path="/c.json")
    assert report.ok
    assert sorted(seen) == [
        (0, 2, 2, "wrangle", "/data/store", "A"),
        (1, 2, 2, "wrangle", "/data/store", "B"),
    ]


def test_failure_does_not_cancel_siblings():
    ran = []
    lock = threading.Lock()

    def worker(ctx, boom=False):
        if boom:
            raise RuntimeError("controlled failure")
        time.sleep(0.01)
        with lock:
            ran.append(ctx.index)

    stage = StageSpec(
        name="learn",
        scripts=(
            ScriptSpec(name="ok1", builtin="worker"),
            ScriptSpec(name="bad", builtin="worker", args={"boom": True}),
            ScriptSpec(name="ok2", builtin="worker"),
            ScriptSpec(name="ok3", builtin="worker"),
        ),
        pool_width=2,
    )
    report = run_stage(stage, {"worker": worker}, store_path="/tmp/ignored")
    assert not report.ok
    assert sorted(ran) == [0, 2, 3]
    failures = report.failures()
    assert len(failures) == 1
    assert failures[0].script == "bad"
    assert "controlled failure" in failures[0].error


def test_unknown_builtin_is_a_failure_not_a_crash():
    stage = StageSpec(name="learn", scripts=(ScriptSpec(name="x", builtin="nope"),))
    report = run_stage(stage, {}, store_path="/tmp/ignored")
    assert not report.ok
    assert "unknown builtin" in report.events[0].error


def test_external_script_env_flags_and_exit_status(tmp_path):
    out = tmp_path / "env.txt"
    code = (
        "import os, sys\n"
        "with open(sys.argv[1], 'w') as f:\n"
        "    for key in ('PE_INDEX', 'PE_TOTAL', 'WINDOW_WIDTH', 'STAGE',"
        " 'STORE_PATH', 'CONFIG_PATH'):\n"
        "        f.write(f'{key}={os.environ.get(key)}\\n')\n"
        "    f.write('argv=' + ' '.join(sys.argv[2:]) + '\\n')\n"
    )
    script = tmp_path / "probe.py"
    script.write_text(code)
    stage = StageSpec(
        name="serve",
        scripts=(
            ScriptSpec(
                name="probe",
                command=(sys.executable, str(script), str(out)),
                flags=("--shard", "0"),
            ),
        ),
    )
    report = run_stage(stage, {}, store_path="/data/store", config_path="/tmp/c.json")
    assert report.ok
    assert report.events[0].returncode == 0
    text = out.read_text()
    assert "PE_INDEX=0" in text
    assert "PE_TOTAL=1" in text
    assert "WINDOW_WIDTH=1" in text
    assert "STAGE=serve" in text
    assert "STORE_PATH=/data/store" in text
    assert "CONFIG_PATH=/tmp/c.json" in text
    assert "argv=--shard 0" in text

    failing = StageSpec(
        name="serve",
        scripts=(
            ScriptSpec(
                name="boom",
                command=(sys.executable, "-c", "import sys; print('bad', file=sys.stderr); sys.exit(3)"),
            ),
        ),
    )
    report = run_stage(failing, {}, store_path="/tmp/ignored")
    assert not report.ok
    assert report.events[0].returncode == 3
    assert "bad" in report.events[0].error


def test_pipeline_barriers_and_stop_on_failure():
    def quick(ctx, duration=0.01, boom=False):
        if boom:
            raise RuntimeError("nope")
        time.sleep(duration)

    registry = {"quick": quick}

    def stage(name, n, width, boom_at=None):
        return StageSpec(
            name=name,
            scripts=tuple(
                ScriptSpec(name=f"{name}{i}", builtin="quick",
                           args={"boom": i == boom_at})
                for i in range(n)
            ),
            pool_width=width,
        )

    reports = run_pipeline(
        [stage("wrangle", 4, 2), stage("learn", 3, 3)],
        registry, store_path="/tmp/ignored",
    )
    assert [r.stage for r in reports] == ["wrangle", "learn"]
    assert all(r.ok for r in reports)
    # Barrier: every wrangle event ends before any learn event starts.
    wrangle_end = max(e.end_s for e in reports[0].events)
    learn_start = min(e.start_s for e in reports[1].events)
    assert wrangle_end <= learn_start

    reports = run_pipeline(
        [stage("wrangle", 3, 2, boom_at=1), stage("learn", 2, 1)],
        registry, store_path="/tmp/ignored",
    )
    assert len(reports) == 1 and not reports[0].ok
    assert len(reports[0].events) == 3


def test_empty_stage_is_trivially_ok():
    report = run_stage(StageSpec(name="infer", scripts=()), {}, store_path="/tmp/x")
    assert report.ok and report.events == ()
