"""The benchmark's tracer (bench/spans.py) still fits the package.

The tracer patches pipeline functions and registry keys by name, so a
refactor that drops or renames one of them breaks traced benchmark runs.
"""

import importlib.util
from pathlib import Path

from coldflow import pipelines

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr, is_map):
    return owner[attr] if is_map else getattr(owner, attr)


def test_tracer_installs_and_uninstalls():
    assert "wrangle_dsr" in pipelines.REGISTRY
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original, is_map in patches:
            assert current(owner, attr, is_map) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original, is_map in patches:
        assert current(owner, attr, is_map) is original, attr
