"""The names the benchmark in perfbench/ looks up in chordlab still exist.

The tracer rebinds functions by module and attribute name, and the
verify-b6 workload runs a fixed list of check ids.  Both modules are only
imported here; no tracer is installed.
"""

import inspect
from pathlib import Path

import pytest

import chordlab.cli  # noqa: F401  (imports every module the tracer wraps)
from chordlab import enumeration
from chordlab.checks import check_ids

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    return tracer, workloads


def test_traced_names_resolve(perfbench):
    tracer, _ = perfbench
    for _, mod, attr in tracer.TRACED + tracer.FRAMES:
        assert callable(tracer.Tracer._resolve(mod, attr)), (mod, attr)
    _, mod, attr = tracer.GENERATOR
    assert inspect.isgeneratorfunction(tracer.Tracer._resolve(mod, attr))


def test_benchmarked_checks_are_registered(perfbench):
    _, workloads = perfbench
    assert set(workloads.CHECK_IDS) <= set(check_ids())


def test_the_sweep_cache_counts_the_memo_of_class_sizes(perfbench):
    # enumeration.sweep_cache.* adds up the caches the tracer finds
    tracer, _ = perfbench
    assert enumeration._class_sizes in tracer.Tracer._lru_functions()
