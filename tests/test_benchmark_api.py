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


# the hooks whose targets resolve today: moving or renaming one of these
# functions would drop its hook silently and zero its per-layer metrics
LIVE_HOOKS = {
    ("etkit.barriers", "lower_adiabat"),
    ("etkit.barriers", "barrier"),
    ("etkit.numerics", "integrate"),
    ("etkit.rates", "mhc_rate_numeric"),
    ("etkit.rates", "extract_coupling"),
    ("etkit.analysis", "mhc_rate_numeric"),
    ("etkit.analysis", "tafel_sweep"),
    ("etkit.analysis", "fit_lambda_eff"),
    ("SweepTable", "to_csv"),
    ("SweepTable", "from_csv"),
}


def test_live_hooks_stay_hooked(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    hooked = {(owner.__name__, attr) for owner, attr in tracer.Tracer().hooked()}
    assert LIVE_HOOKS <= hooked
