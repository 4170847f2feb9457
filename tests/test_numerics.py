import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pin_oracles import trapezoid_marcus_rate

import etkit
from etkit import BarrierMethod, ConstantCoupling, DiabaticSystem
from etkit.cli import main
from etkit.constants import H, K_B
from etkit.errors import AccuracyError
from etkit.numerics import (
    MAX_LEVEL_NODES,
    gauss_legendre,
    integrate,
)
from etkit.rates import (
    ElectrodeConditions,
    PrefactorKind,
    RateRequest,
    mhc_rate_numeric,
    prefactor,
)


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


def run_capped(code, limit=1 << 30):
    """Run Python code in a child process whose address space is capped
    at ``limit`` bytes, so that a runaway allocation ends in MemoryError
    there instead of exhausting the machine."""
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
    """Inputs on which the adaptive Simpson rule reached MAX_LEVEL_NODES
    and gave up: composite Simpson converges on them far below it."""

    def test_seed_223_eff_rate_matches_dense_trapezoid(self):
        # an eff-route rate of the rate_quadrature benchmark (seed 223);
        # with a constant coupling it is the Marcus-route rate at the
        # Condon lam_eff = lam*(1 - 2V/lam)^2
        lam, v = 1.1075848292268755, 0.2672038315545804
        T, eta = 265.8311390139204, -0.9898754768788157
        req = RateRequest(
            DiabaticSystem(lam, 0.0),
            ConstantCoupling(v),
            ElectrodeConditions(T, eta),
            BarrierMethod.EFFECTIVE_LAMBDA,
        )
        ref = trapezoid_marcus_rate(lam * (1.0 - 2.0 * v / lam) ** 2, T, eta)
        assert mhc_rate_numeric(req) == pytest.approx(ref, rel=1e-9)

    def test_cli_prints_both_points_without_warning(self, capsys):
        argv = (
            "tafel --lambda 0.5 --coupling const:0.1 --eta-from -1.5 "
            "--eta-to -1.4 --n 2 --temp 250 --method marcus"
        ).split()
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        header, *rows = out.splitlines()
        assert header == "eta_f_V,log10k_marcus"
        factor = prefactor(
            PrefactorKind.NON_ADIABATIC, DiabaticSystem(0.5, 0.0), 0.1, 250.0
        ) / (K_B * 250.0 / H)
        assert [float(r.split(",")[0]) for r in rows] == [-1.5, -1.4]
        for row in rows:
            eta, logk = map(float, row.split(","))
            ref = trapezoid_marcus_rate(0.5, 250.0, eta) * factor
            # CSV carries 10 significant digits
            assert logk == pytest.approx(math.log10(ref), abs=1e-7)


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
        simpson = integrate(f, -w, w, rel_tol=1e-9)
        assert simpson == pytest.approx(dense, rel=1e-6)

    def test_one_call_per_doubling_and_no_node_twice(self):
        _lam, _eta, w, f = continuum_integrand()
        batches = []

        def recorded(x):
            batches.append(x)
            return f(x)

        integrate(recorded, -w, w, rel_tol=1e-9)
        sizes = [len(x) for x in batches]
        assert sizes == [3] + [2**k for k in range(1, len(batches))]
        nodes = np.sort(np.concatenate(batches))
        grid = np.linspace(-w, w, len(nodes))
        assert nodes == pytest.approx(grid, rel=0, abs=1e-12 * w)

    def test_depth_cap_raises_accuracy_error(self):
        # the jump keeps Simpson's error O(h): no doubling below
        # MAX_LEVEL_NODES new nodes reaches 1e-15
        with pytest.raises(
            AccuracyError, match=f"limit MAX_LEVEL_NODES = {MAX_LEVEL_NODES}"
        ) as err:
            integrate(step, 0.0, 1.0, rel_tol=1e-15)
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
