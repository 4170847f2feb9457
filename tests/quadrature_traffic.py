"""Quadrature traffic of the Marcus-form rates: ``numerics.integrate``
against a dense trapezoid.

Run directly (`PYTHONPATH=src python3 tests/quadrature_traffic.py`); takes
about ten minutes on one core. Each rate runs once through
``mhc_rate_numeric``. Three sets of rates:

- ``bench``: the ``rate_quadrature`` operations of seeds 0-9, from
  ``perfbench/workloads.py`` (imported, not changed);
- ``narrow``: Condon eff channels, lam_eff = lam*(1 - 2V/lam)^2, from
  ``default_rng(2026)`` over lam 0.5-8 eV, 200-400 K and eta -1.5..1 V,
  with lam_eff/lam = 10^U(-4, log10 0.3), 10^U(-6, -2) (300 draws each)
  and 10^U(-7, -5) (200 draws);
- ``broad``: 1,500 draws from ``default_rng(24)`` over lam 0.5-8 eV,
  200-400 K and eta -1.5..1 V, the marcus, shift and eff routes in turn,
  with a constant or linear coupling of coefficients up to 0.45 lam.
  An eff draw whose lam_eff changes sign inside the window, where the
  integrand is not analytic, is marked ``[closes]``.

For each rate it prints the nodes, integrand calls and stop level
(intervals) of ``integrate``. On the narrow and broad sets it also prints
the relative error of the window's integral against a 2^22-interval
trapezoid of the same integrand on the same window
(``reference.dense_trapezoid``), NaN where the rate raised
AccuracyError. A summary line closes each set: the mean nodes per rate,
the mean, smallest and largest calls per rate, the raises and the stop
levels, and the median wall time per rate of each route (µs, the
whole ``mhc_rate_numeric`` call, raises included); on the broad set a
second one covers the ``[closes]`` draws. The times are not scaled to a
reference machine speed, as perfbench's are, so compare the routes
within one run rather than one route across runs.
"""

import importlib
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
from reference import dense_trapezoid

import etkit
from etkit import numerics
from etkit.barriers import effective_lambdas
from etkit.constants import K_B
from etkit.errors import AccuracyError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ROUTES = {
    "marcus": etkit.BarrierMethod.MARCUS,
    "shift": etkit.BarrierMethod.CONSTANT_SHIFT,
    "eff": etkit.BarrierMethod.EFFECTIVE_LAMBDA,
}


class Run:
    """One rate under ``integrate``: nodes, calls, intervals at the stop,
    the window integral and the integrand, or raised=True; and the wall
    time of the rate in µs."""

    def __init__(self, rate):
        self.nodes = self.calls = 0
        self.f = self.window = self.value = None
        self.raised = False
        integrate = numerics.integrate

        def recorded(f, a, b):
            def counted(x):
                self.calls += 1
                self.nodes += len(x)
                return f(x)

            self.f, self.window = f, (a, b)
            self.value = integrate(counted, a, b)
            return self.value

        numerics.integrate = recorded
        start = time.perf_counter()
        try:
            rate()
        except AccuracyError:
            self.raised = True
        finally:
            self.us = 1e6 * (time.perf_counter() - start)
            numerics.integrate = integrate

    @property
    def stop(self):
        return self.nodes - 1


def bench_rates():
    sys.path.insert(0, str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for seed in range(10):
        for op in workloads.build("rate_quadrature", seed):
            yield f"seed {seed} {op.label}", op.label.split()[0], op.run


def rate_of(lam, coupling, T, eta, route):
    kind = "non_adiabatic" if route == "marcus" else "adiabatic"
    req = etkit.RateRequest(
        etkit.DiabaticSystem(lam, 0.0),
        coupling,
        etkit.ElectrodeConditions(T, eta, 1.0, etkit.PrefactorKind(kind)),
        ROUTES[route],
    )
    return lambda: etkit.rates.mhc_rate_numeric(req)


def narrow_rates(lo, hi, n):
    rng = np.random.default_rng(2026)
    lam = rng.uniform(0.5, 8, n)
    T = rng.uniform(200, 400, n)
    eta = rng.uniform(-1.5, 1, n)
    ratio = 10 ** rng.uniform(lo, hi, n)
    for i in range(n):
        v = lam[i] / 2 * (1 - math.sqrt(ratio[i]))
        label = f"lam={lam[i]:.4g} lam_eff/lam={ratio[i]:.3g} T={T[i]:.1f} eta={eta[i]:.4f}"
        yield label, "eff", rate_of(lam[i], etkit.ConstantCoupling(v), T[i], eta[i], "eff")


def broad_rates(n=1500):
    rng = np.random.default_rng(24)
    routes = list(ROUTES)
    for i in range(n):
        route = routes[i % 3]
        lam = rng.uniform(0.5, 8)
        T = rng.uniform(200, 400)
        eta = rng.uniform(-1.5, 1)
        v0 = rng.uniform(0, 0.45) * lam
        if rng.random() < 0.5:
            coupling, clabel = etkit.ConstantCoupling(v0), f"const:{v0:.4g}"
        else:
            v1 = rng.uniform(0, 0.45) * lam
            coupling, clabel = etkit.LinearCoupling(v0, v1), f"linear:{v0:.4g},{v1:.4g}"
        label = f"{route} lam={lam:.4g} {clabel} T={T:.1f} eta={eta:.4f}"
        # lam_eff is linear in the driving force eta - eps, |eps| <= W
        w = 2 * lam + abs(eta) + 40 * K_B * T
        ends = effective_lambdas(lam, coupling, np.array([eta - w, eta + w]))
        if route == "eff" and min(ends) <= 0.0 < max(ends):
            label += " [closes]"
        yield label, route, rate_of(lam, coupling, T, eta, route)


def max_error(errors):
    """The largest error, NaN (a raise) left out, as summary text."""
    return f"; max error vs dense trapezoid {np.nanmax([0.0, *errors]):.2e}"


def report(name, rates, dense):
    print(f"== {name}")
    print(f"{'#':>5} {'nodes':>6} {'calls':>5} {'stop':>5}" + (f" {'err':>9}" if dense else "")
          + "  rate")
    nodes, calls = [], []
    raised = 0
    stops = Counter()
    errors, closing = [], []  # error of every row, of [closes] rows
    times = {}  # wall times (µs) of each route's rates
    for i, (label, route, rate) in enumerate(rates):
        got = Run(rate)
        times.setdefault(route, []).append(got.us)
        raised += got.raised
        nodes.append(got.nodes)
        calls.append(got.calls)
        err = math.nan
        if not got.raised:
            stops[got.stop] += 1
        line = f"{i:5d} {got.nodes:6d} {got.calls:5d} {got.stop:5d}"
        if dense:
            if not got.raised:
                d = dense_trapezoid(got.f, *got.window)
                err = abs(got.value - d) / abs(d)
            line += f" {err:9.2e}"
        print(f"{line}  {label}")
        errors.append(err)
        if label.endswith("[closes]"):
            closing.append(err)
    summary = (
        f"{name}: {len(nodes)} rates; nodes per rate {np.mean(nodes):,.0f}, calls per "
        f"rate {np.mean(calls):.2f} ({min(calls)}-{max(calls)}); raises {raised}; "
        "stop intervals "
        + ", ".join(f"{k}: {v}" for k, v in sorted(stops.items()))
        + (max_error(errors) if dense else "")
        + "; median us per rate "
        + ", ".join(f"{route} {np.median(us):.0f}" for route, us in times.items())
    )
    if closing:
        summary += f"\n{name} [closes]: {len(closing)} rates" + max_error(closing)
    print(summary)
    return summary


def main():
    summaries = [
        report("bench", bench_rates(), dense=False),
        report("narrow 10^U(-4, log10 0.3)", narrow_rates(-4, math.log10(0.3), 300), True),
        report("narrow 10^U(-6, -2)", narrow_rates(-6, -2, 300), True),
        report("narrow 10^U(-7, -5)", narrow_rates(-7, -5, 200), True),
        report("broad", broad_rates(), True),
    ]
    print("\n".join(["== summary", *summaries]))


if __name__ == "__main__":
    main()
