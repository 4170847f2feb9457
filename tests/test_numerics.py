import math
import os
import subprocess
import sys

import numpy as np
import pytest

from reference import dense_trapezoid, marcus_family_rate

import etkit
from etkit import BarrierMethod, ConstantCoupling, DiabaticSystem, numerics
from etkit.cli import main
from etkit.errors import AccuracyError
from etkit.numerics import (
    FIRST_BATCH,
    MAX_LEVEL_NODES,
    REL_TOL,
    gauss_legendre,
    integrate,
)
from etkit.rates import ElectrodeConditions, PrefactorKind, RateRequest, mhc_rate_numeric


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
    and gave up: integrate converges on them far below it."""

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
        lam_eff = lam * (1.0 - 2.0 * v / lam) ** 2
        ref = marcus_family_rate("marcus", lam_eff, (0.0,), eta, T, "adiabatic")
        assert mhc_rate_numeric(req) == pytest.approx(ref, rel=1e-9, abs=0)

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
        assert [float(r.split(",")[0]) for r in rows] == [-1.5, -1.4]
        for row in rows:
            eta, logk = map(float, row.split(","))
            ref = marcus_family_rate("marcus", 0.5, (0.1,), eta, 250.0, "non_adiabatic")
            # CSV carries 10 significant digits
            assert logk == pytest.approx(math.log10(ref), abs=1e-7)


class TestIntegrate:
    def test_monomial(self):
        assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_gaussian_normalization(self):
        val = integrate(lambda x: np.exp(-x * x / 2), -40.0, 40.0)
        assert val == pytest.approx(math.sqrt(2 * math.pi), rel=0, abs=1e-15)

    def test_continuum_integrand_vs_dense_trapezoid(self):
        # Marcus-barrier integrand at lam=4, V=0.5, 300 K, eta=-0.3
        _lam, _eta, w, f = continuum_integrand()
        dense = dense_trapezoid(f, -w, w, 1_000_000)
        got = integrate(f, -w, w)
        assert got == pytest.approx(dense, rel=1e-6, abs=0)

    def test_one_call_per_doubling_and_no_node_twice(self):
        _lam, _eta, w, f = continuum_integrand()
        batches = []

        def recorded(x):
            batches.append(x)
            return f(x)

        integrate(recorded, -w, w)
        sizes = [len(x) for x in batches]
        # the first call is the 257-node grid of the first test (256
        # against 128 intervals), then each doubling's midpoints up to
        # the stop at 2048 intervals
        assert sizes == [257, 256, 512, 1024]
        nodes = np.sort(np.concatenate(batches))
        assert len(np.unique(nodes)) == len(nodes)
        grid = np.linspace(-w, w, len(nodes))
        assert nodes == pytest.approx(grid, rel=0, abs=1e-12 * w)

    def test_depth_cap_raises_accuracy_error(self):
        # the jump keeps the trapezoid error O(h): no doubling below
        # MAX_LEVEL_NODES new nodes reaches REL_TOL
        with pytest.raises(
            AccuracyError, match=f"limit MAX_LEVEL_NODES = {MAX_LEVEL_NODES}"
        ) as err:
            integrate(step, 0.0, 1.0)
        assert err.value.best_estimate == pytest.approx(
            1.0 - math.pi / 8, abs=1e-3
        )

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)

    @pytest.mark.parametrize(
        "a, b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)]
    )
    def test_rejects_bad_argument_before_any_node(self, a, b):
        # an infinite bound passed a < b: it doubled to MAX_LEVEL_NODES
        # and raised AccuracyError instead of naming the argument
        def f(x):
            raise AssertionError("integrand called")

        with pytest.raises(ValueError):
            integrate(f, a, b)


def reference_rule(f, a, b):
    """Trapezoid sums on 1/2, 1, 2, 4, ... times FIRST_BATCH intervals,
    each from scratch at its own nodes. From FIRST_BATCH intervals on, the
    sum is returned once it agrees with its predecessor to REL_TOL;
    returns (that sum, its number of intervals)."""

    n = FIRST_BATCH // 2
    trap = dense_trapezoid(f, a, b, n)
    while True:
        n *= 2
        last, trap = trap, dense_trapezoid(f, a, b, n)
        if abs(trap - last) <= REL_TOL * abs(trap):
            return trap, n


def rate_integrand(req):
    """(f, a, b) that mhc_rate_numeric passes to numerics.integrate."""
    seen = []

    def recorded(f, a, b):
        seen.append((f, a, b))
        return integrate(f, a, b)

    numerics.integrate = recorded
    try:
        mhc_rate_numeric(req)
    finally:
        numerics.integrate = integrate
    return seen[0]


def reference_cases():
    _lam, _eta, w, f = continuum_integrand()
    # rate_quadrature benchmark rates (seed 0). On the marcus one a
    # Simpson column, tested before the trapezoid one, returned first at
    # 4*FIRST_BATCH intervals: the trapezoid sums stop there too
    marcus = RateRequest(
        DiabaticSystem(1.0504117008274259, 0.0),
        ConstantCoupling(0.13320096268048218),
        ElectrodeConditions(
            335.888463421509, -0.035007082618920715, 1.0, PrefactorKind.NON_ADIABATIC
        ),
        BarrierMethod.MARCUS,
    )
    shift = RateRequest(
        DiabaticSystem(5.16980157707877, 0.0),
        ConstantCoupling(1.1969803757047752),
        ElectrodeConditions(
            294.69471101403764, 0.4985620359255738, 1.0, PrefactorKind.ADIABATIC
        ),
        BarrierMethod.CONSTANT_SHIFT,
    )
    # Condon: lam_eff = lam*(1 - 2V/lam)^2 on every node
    eff = RateRequest(
        DiabaticSystem(3.2860169377844213, 0.0),
        ConstantCoupling(0.5846220792123517),
        ElectrodeConditions(
            316.9451810203385, -0.7375990700256725, 1.0, PrefactorKind.ADIABATIC
        ),
        BarrierMethod.EFFECTIVE_LAMBDA,
    )
    return [
        # polynomials and exp: the O(h^2) error stops the rule far beyond
        # the first test
        pytest.param(lambda x: x * x, 0.0, 1.0, id="square"),
        pytest.param(
            lambda x: 1.5 - 0.5 * x + 2.0 * x**2 - x**3, -1.0, 2.5, id="cubic"
        ),
        pytest.param(np.exp, 0.0, 1.0, id="exp"),
        # analytic in a strip and negligible at both ends: geometric
        # convergence
        pytest.param(f, -w, w, id="continuum"),
        pytest.param(lambda x: np.exp(-x * x / 2), -40.0, 40.0, id="gaussian"),
        pytest.param(*rate_integrand(marcus), id="marcus_rate"),
        pytest.param(*rate_integrand(shift), id="shift_rate"),
        pytest.param(*rate_integrand(eff), id="eff_rate"),
    ]


class TestAgainstReferenceTrapezoid:
    """integrate is the trapezoid rule of ``reference_rule``, however it
    batches its calls of f."""

    @pytest.mark.parametrize("f, a, b", reference_cases())
    def test_same_sum_at_same_level(self, f, a, b):
        sizes = []

        def counted(x):
            sizes.append(len(x))
            return f(x)

        got = integrate(counted, a, b)
        ref, n = reference_rule(f, a, b)
        assert got == pytest.approx(ref, rel=1e-14, abs=0)
        # the nodes of n intervals and no more: one call for the first
        # test (256 intervals) and one per doubling after it
        assert sum(sizes) == n + 1
        assert len(sizes) == 1 + math.log2(n / 256)

    def test_cases_stop_at_and_beyond_the_first_test(self):
        stops = [reference_rule(*p.values)[1] for p in reference_cases()]
        assert stops == [
            2**16, 2**15, 2**14, 8 * FIRST_BATCH, FIRST_BATCH, 4 * FIRST_BATCH,
            16 * FIRST_BATCH, 8 * FIRST_BATCH,
        ]


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 2, 5, 128])
    def test_matches_numpy_leggauss(self, n):
        x, w = gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert x == pytest.approx(ref_x, abs=1e-15)
        assert w == pytest.approx(ref_w, rel=1e-10, abs=0)

    def test_exact_through_degree_2n_minus_1(self):
        x, w = gauss_legendre(128)
        for k in (0, 2, 10, 100, 254):
            assert np.dot(w, x**k) == pytest.approx(2.0 / (k + 1), rel=1e-13, abs=0)
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
