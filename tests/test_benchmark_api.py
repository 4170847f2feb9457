"""The benchmark under perfbench/ imports etkit's modules and hooks their
functions by name. Running each workload's first operation under its
tracer here makes a change that moves or renames one of them fail the
test suite, not only the benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_runs_under_the_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    spans = tracer.Tracer()
    assert spans.hooked()
    with spans.installed():
        for name in workloads.WORKLOADS:
            ops = workloads.build(name, 0)
            assert ops, name
            ops[0].run()
    spans.assert_pristine()
    # the first operations call mhc_rate_numeric, barrier and tafel_sweep
    assert {"rates.numeric", "barriers.exact", "analysis.sweep"} <= set(spans.names)
