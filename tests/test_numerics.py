import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special

from recursive_simpson import recursive_simpson

import etkit
from etkit import ConstantCoupling, DiabaticSystem
from etkit.barriers import ExactAdiabat
from etkit.constants import beta
from etkit.errors import AccuracyError, NumericalDomainError
from etkit.model import lower_adiabat
from etkit.numerics import MAX_LEVEL_NODES, Bracket, erfc, integrate, minimize_1d
from etkit.rates import fermi_dirac


def adiabat_fn(lam, v, dg0):
    sys = DiabaticSystem(lam, dg0)
    c = ConstantCoupling(v)
    return lambda q: float(lower_adiabat(sys, c, q))


class TestMinimize:
    def test_shifted_parabola(self):
        res = minimize_1d(
            lambda x: (x - 0.3) ** 2, Bracket(-1.0, 0.0, 1.0), tol_x=1e-10
        )
        assert res.converged
        assert res.x == pytest.approx(0.3, abs=1e-10)

    def test_quartic_flat_minimum(self):
        res = minimize_1d(lambda x: x**4, Bracket(-1.0, 0.3, 1.0))
        assert res.converged
        assert res.x == pytest.approx(0.0, abs=1e-6)

    def test_adiabat_reactant_well(self):
        # closed-form stationary point of the symmetric double well
        res = minimize_1d(
            adiabat_fn(4.0, 1.0, 0.0), Bracket(-0.2, 0.05, 0.4), tol_x=1e-10
        )
        expected = (1.0 - math.sqrt(1.0 - 4.0 / 16.0)) / 2.0
        assert res.x == pytest.approx(expected, abs=1e-8)

    def test_random_convex_quadratics(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(-3.0, 3.0)
            c = rng.uniform(-3.0, 3.0)
            vertex = -b / (2 * a)
            br = Bracket(vertex - 2.0, vertex + rng.uniform(-1.0, 1.0), vertex + 2.0)
            res = minimize_1d(lambda x: a * x * x + b * x + c, br, tol_x=1e-10)
            assert res.converged
            # abscissa accuracy is limited by sqrt(machine eps) near a
            # quadratic minimum, not by tol_x
            assert abs(res.x - vertex) <= 1e-7 * (1.0 + abs(vertex))

    def test_iteration_cap(self):
        res = minimize_1d(
            lambda x: x * x, Bracket(-1.0, 0.1, 1.0), tol_x=1e-10, max_iter=3
        )
        assert not res.converged


def step(x):
    return np.where(x < math.pi / 8, 0.0, 1.0)


def continuum_integrand():
    """(lam, eta, half-width, f) of a Marcus-barrier continuum integrand."""
    kt = 8.617333262e-5 * 300.0
    b = 1.0 / kt
    lam, eta = 4.0, -0.3

    def f(x):
        occ = 1.0 / (1.0 + np.exp(np.minimum(b * x, 700.0)))
        return occ * np.exp(np.maximum(-b * (lam + eta - x) ** 2 / (4 * lam), -700.0))

    return lam, eta, 2 * lam + abs(eta) + 40 * kt, f


def exact_route_integrand(lam=4.0, v=0.5, eta=-0.3, T=300.0):
    """The EXACT_ADIABAT rate integrand of mhc_rate_numeric, vectorized."""
    b = beta(T)
    adiabat = ExactAdiabat(lam, ConstantCoupling(v))

    def f(eps):
        e_star, _q_ts, q_r, single = adiabat.barriers(eta - eps)
        weight = fermi_dirac(eps, T) * np.exp(np.maximum(-b * e_star, -700.0))
        return np.where(single & (q_r < 0.5), 0.0, weight)

    return f


class Counted:
    """Wraps a vectorized f; counts nodes, and evaluates one node as a
    scalar for the recursive reference."""

    def __init__(self, f):
        self.f = f
        self.nodes = 0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        self.nodes += x.size
        return self.f(x)

    def scalar(self, x):
        self.nodes += 1
        return float(self.f(np.array([x]))[0])


def _cubic(coeffs):
    return lambda x: sum(c * x**k for k, c in enumerate(coeffs))


class TestIntegrateMatchesRecursion:
    """Level-at-a-time integrate against the depth-first recursion."""

    def check(self, f, a, b, **kw):
        vec, ref = Counted(f), Counted(f)
        got = integrate(vec, a, b, **kw)
        want = recursive_simpson(ref.scalar, a, b, **kw)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-300)
        assert vec.nodes == ref.nodes
        return vec.nodes

    def test_monomial(self):
        self.check(lambda x: x * x, 0.0, 1.0)

    def test_gaussian(self):
        assert self.check(lambda x: np.exp(-x * x / 2), -40.0, 40.0) > 100

    def test_random_cubics(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.uniform(-3.0, 0.0)
            self.check(
                _cubic(rng.uniform(-2.0, 2.0, size=4)), a, a + rng.uniform(0.5, 4.0)
            )

    def test_continuum_integrand(self):
        _lam, _eta, w, f = continuum_integrand()
        assert self.check(f, -w, w, rel_tol=1e-9) > 100

    def test_exact_route_integrand(self):
        w = 2 * 4.0 + 0.3 + 40 * 8.617333262e-5 * 300.0
        assert self.check(exact_route_integrand(), -w, w, rel_tol=1e-9) > 100

    def test_depth_cap_best_estimate_and_message(self):
        vec, ref = Counted(step), Counted(step)
        with pytest.raises(AccuracyError) as got:
            integrate(vec, 0.0, 1.0, rel_tol=1e-15, max_depth=20)
        with pytest.raises(AccuracyError) as want:
            recursive_simpson(ref.scalar, 0.0, 1.0, rel_tol=1e-15, max_depth=20)
        assert got.value.best_estimate == pytest.approx(
            want.value.best_estimate, rel=1e-13
        )
        assert str(got.value) == str(want.value)
        assert vec.nodes == ref.nodes


class TestIntegrateIntervals:
    def test_sum_of_separate_calls(self):
        _lam, _eta, w, f = continuum_integrand()
        vec, left, right = Counted(f), Counted(f), Counted(f)
        both = integrate(vec, [-2 * w, w], [-w, 2 * w])
        apart = integrate(left, -2 * w, -w) + integrate(right, w, 2 * w)
        assert both == pytest.approx(apart, rel=1e-14)
        assert vec.nodes == left.nodes + right.nodes

    def test_each_interval_keeps_its_own_tolerance(self):
        # next to a large integral, a tiny one is still refined to rel_tol
        # of itself: the same nodes as when integrated alone
        g = lambda x: np.exp(-x * x)
        vec, big, tiny = Counted(g), Counted(g), Counted(g)
        integrate(vec, [-1.0, 5.0], [1.0, 6.0])
        integrate(big, -1.0, 1.0)
        integrate(tiny, 5.0, 6.0)
        assert tiny.nodes > 5
        assert vec.nodes == big.nodes + tiny.nodes

    def test_rejects_mismatched_ends(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, [0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            integrate(lambda x: x, [0.0, 2.0], [1.0, 1.5])


def run_capped(code, limit=1 << 30):
    """Run Python code in a child process whose address space is capped
    at ``limit`` bytes, so that quadrature levels that keep doubling end
    in MemoryError there instead of exhausting the machine."""
    src = os.path.dirname(os.path.dirname(etkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cap = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    return subprocess.run(
        [sys.executable, "-c", cap + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestLevelNodeLimit:
    """A tolerance that cannot be met doubles the open subintervals each
    level; integrate gives up once a level would exceed MAX_LEVEL_NODES."""

    def test_unreachable_tolerance_raises_with_best_estimate(self):
        # an eff-route rate of the rate_quadrature benchmark (seed 223)
        out = run_capped(
            """
import json
from etkit import BarrierMethod, ConstantCoupling, DiabaticSystem
from etkit.errors import AccuracyError
from etkit.rates import ElectrodeConditions, RateRequest, mhc_rate_numeric
req = RateRequest(
    DiabaticSystem(1.1075848292268755, 0.0),
    ConstantCoupling(0.2672038315545804),
    ElectrodeConditions(265.8311390139204, -0.9898754768788157),
    BarrierMethod.EFFECTIVE_LAMBDA,
)
try:
    mhc_rate_numeric(req)
except AccuracyError as exc:
    print(json.dumps([str(exc), exc.best_estimate]))
"""
        )
        assert out.returncode == 0, out.stderr[-2000:]
        message, best = json.loads(out.stdout)
        assert f"limit MAX_LEVEL_NODES = {MAX_LEVEL_NODES}" in message
        assert math.isfinite(best) and best > 0.0

    def test_cli_warns_and_exits_zero(self):
        argv = (
            "tafel --lambda 0.5 --coupling const:0.1 --eta-from -1.5 "
            "--eta-to -1.4 --n 2 --temp 250 --method marcus"
        ).split()
        out = run_capped(
            f"import sys\nfrom etkit.cli import main\nsys.exit(main({argv!r}))\n"
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert out.stdout.splitlines() == ["eta_f_V,log10k_marcus", "-1.5,", "-1.4,"]
        warnings = out.stderr.splitlines()
        assert len(warnings) == 2
        assert all("limit MAX_LEVEL_NODES" in w for w in warnings)


class TestIntegrate:
    def test_monomial(self):
        assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_gaussian_normalization(self):
        val = integrate(lambda x: np.exp(-x * x / 2), -40.0, 40.0)
        assert val == pytest.approx(math.sqrt(2 * math.pi), abs=1e-8)

    def test_polynomial_exactness_random_cubics(self):
        # Simpson's rule is exact through cubics on any interval
        rng = np.random.default_rng(7)
        for _ in range(50):
            coeffs = rng.uniform(-2.0, 2.0, size=4)
            a = rng.uniform(-3.0, 0.0)
            b = a + rng.uniform(0.5, 4.0)
            exact = sum(
                c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                for k, c in enumerate(coeffs)
            )
            got = integrate(
                lambda x: sum(c * x**k for k, c in enumerate(coeffs)), a, b
            )
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_continuum_integrand_vs_dense_trapezoid(self):
        # Marcus-barrier integrand at lam=4, V=0.5, 300 K, eta=-0.3
        lam, eta, w, f = continuum_integrand()
        xs = np.linspace(-w, w, 1_000_001)
        b = 1.0 / (8.617333262e-5 * 300.0)
        occ = 1.0 / (1.0 + np.exp(np.clip(b * xs, -700, 700)))
        dense = np.trapezoid(
            occ * np.exp(np.clip(-b * (lam + eta - xs) ** 2 / (4 * lam), -700, 0)),
            xs,
        )
        adaptive = integrate(f, -w, w, rel_tol=1e-9)
        assert adaptive == pytest.approx(dense, rel=1e-6)

    def test_depth_cap_raises_accuracy_error(self):
        with pytest.raises(AccuracyError) as err:
            integrate(step, 0.0, 1.0, rel_tol=1e-15, max_depth=20)
        assert err.value.best_estimate == pytest.approx(
            1.0 - math.pi / 8, abs=1e-3
        )

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)


class TestErfc:
    def test_at_zero(self):
        assert erfc(0.0) == 1.0

    def test_reflection_at_three_halves(self):
        assert erfc(-1.5) == pytest.approx(2.0 - erfc(1.5), abs=1e-14)

    def test_pinned_value_at_one(self):
        # mpmath 30-digit evaluation
        assert erfc(1.0) == pytest.approx(0.15729920705028513, rel=1e-13)

    def test_reflection_identity_random(self):
        rng = np.random.default_rng(99)
        for x in rng.uniform(-6.0, 6.0, size=1000):
            assert abs(erfc(float(x)) + erfc(float(-x)) - 2.0) <= 1e-13

    def test_against_scipy_across_range(self):
        for x in np.linspace(-10.0, 10.0, 4001):
            ref = scipy.special.erfc(float(x))
            assert erfc(float(x)) == pytest.approx(ref, rel=5e-13)

    def test_underflow_region(self):
        assert erfc(30.0) == 0.0
        assert erfc(-30.0) == 2.0

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalDomainError):
            erfc(math.nan)


class TestBracket:
    def test_invariant(self):
        with pytest.raises(ValueError):
            Bracket(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Bracket(1.0, 0.5, 0.0)
