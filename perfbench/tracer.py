"""Spans and counters at etkit's module boundaries, hooked from outside.

``Tracer.installed()`` replaces public etkit functions with wrappers
that record one span per call (name, start, end, parent span, operation
id) and count what the calls return; leaving the block puts the original
objects back. Nothing under ``src/`` changes. A hook whose target no
longer exists is skipped and its metrics read 0.

Spans live in compact arrays while a pass runs. A layer's self time is
the time its spans cover minus the time their child spans cover.
"""

import contextlib
import functools
import importlib
import statistics
import time
from array import array
from collections import Counter

import numpy as np

import etkit
from etkit.errors import AccuracyError, NumericalDomainError, SingularRegimeError

# (owner, attribute, span name, kind). The layer is the span name's
# prefix; the module boundaries are those of src/etkit. ``maximize_1d`` calls ``minimize_1d`` through the module, so one
# hook covers both; ``rates.barrier`` is the exact route's per-node call.
HOOKS = (
    ("etkit.barriers", "lower_adiabat", "model.lower_adiabat", "adiabat"),
    ("etkit.barriers", "barrier", "barriers.exact", "barrier"),
    ("etkit.rates", "barrier", "barriers.exact", "barrier"),
    ("etkit.numerics", "brackets_from_samples", "numerics.brackets", "plain"),
    ("etkit.numerics", "minimize_1d", "numerics.brent", "brent"),
    ("etkit.numerics", "integrate", "numerics.integrate", "integrate"),
    ("etkit.numerics", "erfc", "numerics.erfc", "plain"),
    ("etkit.rates", "mhc_rate_numeric", "rates.numeric", "rate"),
    ("etkit.analysis", "mhc_rate_numeric", "rates.numeric", "rate"),
    ("etkit.analysis", "mhc_rate_closed_form", "rates.closed_form", "closed_form"),
    ("etkit.rates", "extract_coupling", "rates.extract_coupling", "plain"),
    ("etkit.analysis", "tafel_sweep", "analysis.sweep", "sweep"),
    ("etkit.analysis", "fit_lambda_eff", "analysis.fit", "fit"),
    ("etkit.tables:SweepTable", "to_csv", "tables.to_csv", "to_csv"),
    ("etkit.tables:SweepTable", "from_csv", "tables.from_csv", "plain"),
)

LAYERS = ("model", "barriers", "numerics", "rates", "analysis", "tables")

# the window-doubling loop of mhc_rate_numeric: at most 6 extensions,
# converged when one changes the total by at most 1e-6 of it
_MAX_DOUBLINGS = 6
_DOUBLING_TOL = 1e-6

# per-layer metrics: name -> unit, in report order
METRICS = {
    "model.adiabat_calls": "count",
    "model.adiabat_points": "count",
    "model.self_s": "s",
    "barriers.exact_calls": "count",
    "barriers.exact_self_s": "s",
    "barriers.exact_us_per_call": "us",
    "barriers.self_s": "s",
    "numerics.integrate_calls": "count",
    "numerics.integrand_nodes": "count",
    "numerics.integrate_self_s": "s",
    "numerics.accuracy_errors": "count",
    "numerics.brent_calls": "count",
    "numerics.brent_iters": "count",
    "numerics.brent_self_s": "s",
    "numerics.brent_unconverged": "count",
    "numerics.erfc_calls": "count",
    "numerics.erfc_self_s": "s",
    "numerics.self_s": "s",
    "rates.numeric_calls": "count",
    "rates.nodes_per_rate": "count",
    "rates.integrand_us_per_node": "us",
    "rates.window_doublings": "count",
    "rates.window_exhausted": "count",
    "rates.domain_errors": "count",
    "rates.closed_form_calls": "count",
    "rates.closed_form_self_s": "s",
    "rates.self_s": "s",
    "analysis.sweep_self_s": "s",
    "analysis.sweep_warnings": "count",
    "analysis.fit_calls": "count",
    "analysis.fit_self_s": "s",
    "analysis.fit_objective_rates": "count",
    "analysis.fit_unconverged": "count",
    "analysis.self_s": "s",
    "tables.csv_self_s": "s",
    "tables.csv_bytes": "B",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "1",
}


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _doublings(integrals):
    """(k, exhausted) for the integrals one mhc_rate_numeric call made:
    the window total, then a left and a right extension per doubling."""
    k = (len(integrals) - 1) // 2
    total = integrals[0]
    converged = False
    for j in range(k):
        new_total = total + (integrals[1 + 2 * j] + integrals[2 + 2 * j])
        converged = abs(new_total - total) <= _DOUBLING_TOL * abs(new_total)
        total = new_total
    return k, k == _MAX_DOUBLINGS and not converged


class Tracer:
    """Wraps etkit's public functions and records spans while installed."""

    def __init__(self):
        # the original objects, taken before any hook is installed
        self._targets = []
        for path, attr, name, kind in HOOKS:
            owner = _owner(path)
            raw = owner.__dict__.get(attr)
            if raw is not None:
                self._targets.append((owner, attr, name, kind, raw))
        self.current_op = -1
        self.reset()

    # ------------------------------------------------------------ hooks

    def assert_pristine(self):
        """Raise unless every hooked attribute is the original object."""
        for owner, attr, _name, _kind, raw in self._targets:
            now = owner.__dict__.get(attr)
            func = getattr(now, "__func__", now)
            if now is not raw or hasattr(func, "__wrapped__"):
                raise RuntimeError(
                    f"{owner.__name__}.{attr} is not the original object"
                )

    def hooked(self):
        """(owner, attribute) of every hook whose target exists."""
        return [(owner, attr) for owner, attr, *_ in self._targets]

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, name, kind, raw in self._targets:
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, kind)))
            else:
                setattr(owner, attr, self._wrap(raw, name, kind))
        try:
            yield self
        finally:
            for owner, attr, _name, _kind, raw in self._targets:
                setattr(owner, attr, raw)

    def _span(self, span, fn, *args, **kwargs):
        sid = self._open(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def _wrap(self, fn, name, kind):
        span = self._span
        exact = etkit.BarrierMethod.EXACT_ADIABAT

        if kind == "plain":

            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)

        elif kind == "adiabat":

            def wrapper(sys_, c, q):
                self.counts["model.adiabat_points"] += np.size(q)
                return span(name, fn, sys_, c, q)

        elif kind == "barrier":

            def wrapper(sys_, c, method):
                # only the EXACT_ADIABAT method is the scan-and-refine path
                return span(name if method is exact else "barriers.formula", fn, sys_, c, method)

        elif kind == "brent":

            def wrapper(*args, **kwargs):
                res = span(name, fn, *args, **kwargs)
                self.counts["numerics.brent_iters"] += res.iterations
                if not res.converged:
                    self.counts["numerics.brent_unconverged"] += 1
                    self.unconverged_ops.add(self.current_op)
                return res

        elif kind == "integrate":

            def wrapper(f, *args, **kwargs):
                def integrand(x):
                    return span("rates.integrand", f, x)

                try:
                    value = span(name, fn, integrand, *args, **kwargs)
                except AccuracyError:
                    self.counts["numerics.accuracy_errors"] += 1
                    raise
                if self._rate_integrals:
                    self._rate_integrals[-1].append(value)
                return value

        elif kind == "rate":

            def wrapper(*args, **kwargs):
                self._rate_integrals.append([])
                try:
                    k = span(name, fn, *args, **kwargs)
                except (SingularRegimeError, NumericalDomainError):
                    self.counts["rates.domain_errors"] += 1
                    raise
                finally:
                    integrals = self._rate_integrals.pop()
                if integrals:
                    doublings, exhausted = _doublings(integrals)
                    self.counts["rates.window_doublings"] += doublings
                    self.counts["rates.window_exhausted"] += exhausted
                return k

        elif kind == "closed_form":

            def wrapper(*args, **kwargs):
                if self._fit_depth:
                    self.counts["analysis.fit_objective_rates"] += 1
                return span(name, fn, *args, **kwargs)

        elif kind == "sweep":

            def wrapper(*args, **kwargs):
                table = span(name, fn, *args, **kwargs)
                self.counts["analysis.sweep_warnings"] += len(table.warnings)
                return table

        elif kind == "fit":

            def wrapper(*args, **kwargs):
                self._fit_depth += 1
                try:
                    res = span(name, fn, *args, **kwargs)
                finally:
                    self._fit_depth -= 1
                self.counts["analysis.fit_unconverged"] += not res.converged
                return res

        elif kind == "to_csv":

            def wrapper(table):
                text = span(name, fn, table)
                self.counts["tables.csv_bytes"] += len(text)
                return text

        else:
            raise ValueError(f"unknown hook kind {kind!r}")
        return functools.wraps(fn)(wrapper)

    # ------------------------------------------------------------ spans

    def reset(self):
        """Forget every span and count (start of a traced pass)."""
        self._name_ids = {}
        self.names = []
        self.name_idx = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = Counter()
        # operations during which a Brent refinement did not converge
        self.unconverged_ops = set()
        self._stack = []
        self._rate_integrals = []
        self._fit_depth = 0

    def _open(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_idx.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def summary(self, wall):
        """Per-layer metrics of the pass just traced, which took ``wall`` s."""
        k = len(self.names)
        names = np.asarray(self.name_idx, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.intp)
        covered = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_by = dict(zip(self.names, np.bincount(names, dur - covered, k)))
        incl_by = dict(zip(self.names, np.bincount(names, dur, k)))
        calls_by = dict(zip(self.names, np.bincount(names, minlength=k)))

        def calls(n):
            return int(calls_by.get(n, 0))

        def self_s(n):
            return float(self_by.get(n, 0.0))

        def per(total, n, scale=1.0):
            return scale * total / n if n else 0.0

        layer_self = {
            layer: sum(v for n, v in self_by.items() if n.split(".")[0] == layer)
            for layer in LAYERS
        }
        c = self.counts
        nodes = calls("rates.integrand")
        out = {
            "model.adiabat_calls": calls("model.lower_adiabat"),
            "model.adiabat_points": c["model.adiabat_points"],
            "model.self_s": layer_self["model"],
            "barriers.exact_calls": calls("barriers.exact"),
            "barriers.exact_self_s": self_s("barriers.exact"),
            "barriers.exact_us_per_call": per(
                incl_by.get("barriers.exact", 0.0), calls("barriers.exact"), 1e6
            ),
            "barriers.self_s": layer_self["barriers"],
            "numerics.integrate_calls": calls("numerics.integrate"),
            "numerics.integrand_nodes": nodes,
            "numerics.integrate_self_s": self_s("numerics.integrate"),
            "numerics.accuracy_errors": c["numerics.accuracy_errors"],
            "numerics.brent_calls": calls("numerics.brent"),
            "numerics.brent_iters": c["numerics.brent_iters"],
            "numerics.brent_self_s": self_s("numerics.brent"),
            "numerics.brent_unconverged": c["numerics.brent_unconverged"],
            "numerics.erfc_calls": calls("numerics.erfc"),
            "numerics.erfc_self_s": self_s("numerics.erfc"),
            "numerics.self_s": layer_self["numerics"],
            "rates.numeric_calls": calls("rates.numeric"),
            "rates.nodes_per_rate": per(nodes, calls("rates.numeric")),
            "rates.integrand_us_per_node": per(
                incl_by.get("rates.integrand", 0.0), nodes, 1e6
            ),
            "rates.window_doublings": c["rates.window_doublings"],
            "rates.window_exhausted": c["rates.window_exhausted"],
            "rates.domain_errors": c["rates.domain_errors"],
            "rates.closed_form_calls": calls("rates.closed_form"),
            "rates.closed_form_self_s": self_s("rates.closed_form"),
            "rates.self_s": layer_self["rates"],
            "analysis.sweep_self_s": self_s("analysis.sweep"),
            "analysis.sweep_warnings": c["analysis.sweep_warnings"],
            "analysis.fit_calls": calls("analysis.fit"),
            "analysis.fit_self_s": self_s("analysis.fit"),
            "analysis.fit_objective_rates": c["analysis.fit_objective_rates"],
            "analysis.fit_unconverged": c["analysis.fit_unconverged"],
            "analysis.self_s": layer_self["analysis"],
            "tables.csv_self_s": layer_self["tables"],
            "tables.csv_bytes": c["tables.csv_bytes"],
            "bench.self_s": wall - sum(layer_self.values()),
            "trace.wall_s": wall,
        }
        return {k: (float(v) if METRICS[k] in ("s", "us") else v) for k, v in out.items()}

    def write(self, path):
        """Save the recorded spans as arrays in an .npz file: ``names``,
        and per span ``name`` (index into names), ``start``, ``end`` (s),
        ``parent`` (span index, -1 for none) and ``op`` (operation index)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name_idx),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            op=np.asarray(self.op),
        )


def combine(summaries, overhead_frac):
    """One set of per-layer metrics from several traced passes: counts
    from the first, times as medians. Also whether every count repeated
    exactly in the other passes."""
    first = summaries[0]
    out = {"trace.overhead_frac": overhead_frac}
    for name, unit in METRICS.items():
        if name in first:
            if unit in ("s", "us"):
                out[name] = statistics.median(s[name] for s in summaries)
            else:
                out[name] = first[name]
    stable = all(
        s[n] == first[n] for s in summaries for n, u in METRICS.items()
        if u not in ("s", "us") and n in first
    )
    return out, stable
