import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from recursive_simpson import recursive_simpson

import etkit
from etkit import ConstantCoupling
from etkit.barriers import ExactAdiabat
from etkit.constants import beta
from etkit.errors import AccuracyError
from etkit.numerics import (
    MAX_LEVEL_NODES,
    gauss_legendre,
    integrate,
)
from etkit.rates import fermi_dirac


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
        # a rate in 1/s: the integral's best estimate (0.292 eV) times
        # the prefactor kT/h (5.54e12 1/s at 265.8 K) and rho = 1
        assert best == pytest.approx(1.6e12, rel=0.05)

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


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 5, 128])
    def test_matches_numpy_leggauss(self, n):
        x, w = gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert x == pytest.approx(ref_x, abs=1e-15)
        assert w == pytest.approx(ref_w, rel=1e-10)

    def test_exact_through_degree_2n_minus_1(self):
        x, w = gauss_legendre(128)
        for k in (0, 2, 10, 100, 254):
            assert np.dot(w, x**k) == pytest.approx(2.0 / (k + 1), rel=1e-13)
        assert np.dot(w, x**255) == pytest.approx(0.0, abs=1e-15)

    def test_built_once_and_read_only(self):
        x, w = gauss_legendre(128)
        assert gauss_legendre(128)[0] is x
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_rejects_no_nodes(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestImport:
    def test_import_loads_no_scipy_mpmath_or_numpy_polynomial(self):
        # etkit depends on numpy alone (scipy and mpmath are test oracles),
        # and every module it loads adds to its start-up time
        out = run_capped(
            "import sys\n"
            "import etkit\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'mpmath') or m.startswith('numpy.polynomial')))\n"
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"
