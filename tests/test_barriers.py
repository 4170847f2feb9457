import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from etkit.barriers import (
    BarrierMethod,
    ExactAdiabat,
    adiabatic_driving_force,
    barrier,
    effective_lambda,
    marcus_barrier,
    marcus_ts,
    validity_report,
)
from etkit.errors import SingularRegimeError, SurfaceTopologyError
from etkit.model import (
    ConstantCoupling,
    DiabaticSystem,
    LinearCoupling,
    PolynomialCoupling,
    lower_adiabat,
)


def scan_barrier(s, c, n=20001):
    """Exact barrier by a dense scan of E_minus on [-0.5, 1.5], each
    sampled extremum refined by scipy's Brent search on its three-sample
    bracket, and the package's topology convention (first two minima,
    highest maximum between them, 0 when activationless)."""
    f = lambda q: float(lower_adiabat(s, c, q))
    qs = np.linspace(-0.5, 1.5, n)
    es = lower_adiabat(s, c, qs)
    left, mid, right = es[:-2], es[1:-1], es[2:]
    extrema = []
    for i in np.flatnonzero(((mid < left) & (mid < right)) | ((mid > left) & (mid > right))):
        sign = 1.0 if mid[i] < left[i] else -1.0
        res = scipy.optimize.minimize_scalar(
            lambda q: sign * f(q), bracket=(qs[i], qs[i + 1], qs[i + 2]),
            method="brent", options={"xtol": 1e-14},
        )
        extrema.append((sign > 0, sign * res.fun))
    minima = [k for k, (is_min, _e) in enumerate(extrema) if is_min]
    if len(minima) < 2:
        return 0.0
    r, p = minima[:2]
    tops = [e for is_min, e in extrema[r + 1 : p] if not is_min]
    return max(max(tops) - extrema[r][1], 0.0) if tops else 0.0


couplings = st.one_of(
    st.builds(lambda f: (f,), st.floats(0.0, 0.45)),
    st.builds(lambda f0, f1: (f0, f1 - f0), st.floats(0.0, 0.45), st.floats(0.0, 0.45)),
    st.tuples(st.floats(0.0, 0.3), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
)


class TestMarcus:
    @pytest.mark.parametrize(
        "lam,dg0,expected",
        [(4.0, 0.0, 0.5), (4.0, 0.3, 0.5375), (4.0, -4.0, 0.0)],
    )
    def test_crossing_coordinate(self, lam, dg0, expected):
        assert marcus_ts(DiabaticSystem(lam, dg0)) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "lam,dg0,expected",
        [(4.0, 0.0, 1.0), (4.0, 0.3, 1.155625), (4.0, -4.0, 0.0)],
    )
    def test_barrier(self, lam, dg0, expected):
        assert marcus_barrier(DiabaticSystem(lam, dg0)) == pytest.approx(
            expected, abs=1e-14
        )


class TestEffectiveLambda:
    def test_condon_symmetric(self):
        # lam*(1 - 2V/lam)^2 at lam=4, V=1
        assert effective_lambda(
            DiabaticSystem(4.0, 0.0), ConstantCoupling(1.0)
        ) == pytest.approx(1.0, abs=1e-14)

    def test_zero_coupling_identity(self):
        for dg0 in (-1.0, 0.0, 0.7):
            assert effective_lambda(
                DiabaticSystem(3.3, dg0), ConstantCoupling(0.0)
            ) == pytest.approx(3.3)

    def test_linear_coupling(self):
        # q*=0.5375, V(q*)=0.815: 4 - 3.26 + 0.36
        assert effective_lambda(
            DiabaticSystem(4.0, 0.3), LinearCoupling(0.6, 1.0)
        ) == pytest.approx(1.10, abs=1e-12)

    def test_singular_regime(self):
        with pytest.raises(SingularRegimeError):
            effective_lambda(DiabaticSystem(1.0, 0.0), ConstantCoupling(0.5))


class TestBarrier:
    def test_exact_symmetric_condon(self):
        # stationary analysis: E* = lam/4 - V + V^2/lam = lam_eff/4
        res = barrier(
            DiabaticSystem(4.0, 0.0), ConstantCoupling(1.0),
            BarrierMethod.EXACT_ADIABAT,
        )
        assert res.e_star == pytest.approx(0.25, abs=1e-9)
        assert res.q_r == pytest.approx((1 - math.sqrt(0.75)) / 2, abs=1e-7)
        assert res.q_ts == pytest.approx(0.5, abs=1e-7)
        assert not res.activationless

    def test_exact_zero_coupling_equals_marcus(self):
        res = barrier(
            DiabaticSystem(4.0, 0.3), ConstantCoupling(0.0),
            BarrierMethod.EXACT_ADIABAT,
        )
        assert res.e_star == pytest.approx(1.155625, abs=1e-8)

    def test_constant_shift_goes_negative(self):
        res = barrier(
            DiabaticSystem(4.0, -1.5), ConstantCoupling(1.0),
            BarrierMethod.CONSTANT_SHIFT,
        )
        assert res.e_star == pytest.approx(-0.609375, abs=1e-12)

    def test_effective_lambda_method(self):
        res = barrier(
            DiabaticSystem(4.0, 0.0), ConstantCoupling(1.0),
            BarrierMethod.EFFECTIVE_LAMBDA,
        )
        assert res.e_star == pytest.approx(0.25, abs=1e-12)
        assert res.lambda_used == pytest.approx(1.0)

    def test_effective_lambda_singular(self):
        with pytest.raises(SingularRegimeError):
            barrier(
                DiabaticSystem(1.0, 0.0), ConstantCoupling(0.5),
                BarrierMethod.EFFECTIVE_LAMBDA,
            )

    def test_exact_single_well_is_activationless(self):
        res = barrier(
            DiabaticSystem(4.0, -6.0), ConstantCoupling(0.5),
            BarrierMethod.EXACT_ADIABAT,
        )
        assert res.activationless
        assert res.e_star == 0.0

    def test_zero_coupling_collapse_random(self):
        rng = np.random.default_rng(11)
        c = ConstantCoupling(0.0)
        for _ in range(1000):
            lam = float(rng.uniform(1.0, 8.0))
            dg0 = float(rng.uniform(-0.9 * lam, 0.6))
            s = DiabaticSystem(lam, dg0)
            res = barrier(s, c, BarrierMethod.EXACT_ADIABAT)
            assert abs(res.e_star - marcus_barrier(s)) <= 1e-8

    def test_symmetric_condon_exactness(self):
        for lam in np.linspace(1.0, 8.0, 8):
            for frac in (0.05, 0.15, 0.3, 0.44):
                v = frac * lam
                s = DiabaticSystem(float(lam), 0.0)
                res = barrier(s, ConstantCoupling(v), BarrierMethod.EXACT_ADIABAT)
                lam_eff = effective_lambda(s, ConstantCoupling(v))
                assert abs(res.e_star - lam_eff / 4.0) <= 1e-8

    def test_truncation_error_shrinks_with_coupling(self):
        s = DiabaticSystem(4.0, 0.3)
        errs = []
        for v in (0.4, 0.2, 0.1, 0.05):
            c = ConstantCoupling(v)
            ex = barrier(s, c, BarrierMethod.EXACT_ADIABAT).e_star
            eff = barrier(s, c, BarrierMethod.EFFECTIVE_LAMBDA).e_star
            errs.append(abs(ex - eff))
        assert errs == sorted(errs, reverse=True)
        assert errs[0] / errs[1] <= 10.0

    def test_reduced_lambda_dominates_constant_shift(self):
        c = ConstantCoupling(1.0)
        dev_eff, dev_shift = [], []
        for dg0 in np.arange(-1.0, 0.6001, 0.05):
            s = DiabaticSystem(4.0, float(dg0))
            ex = barrier(s, c, BarrierMethod.EXACT_ADIABAT).e_star
            dev_eff.append(
                abs(barrier(s, c, BarrierMethod.EFFECTIVE_LAMBDA).e_star - ex)
            )
            dev_shift.append(
                abs(barrier(s, c, BarrierMethod.CONSTANT_SHIFT).e_star - ex)
            )
        assert max(dev_eff) < max(dev_shift)

    def test_exact_never_negative_and_flag_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = DiabaticSystem(
                float(rng.uniform(0.5, 8.0)), float(rng.uniform(-6.0, 2.0))
            )
            c = ConstantCoupling(float(rng.uniform(0.0, 0.45 * s.lam)))
            res = barrier(s, c, BarrierMethod.EXACT_ADIABAT)
            assert res.e_star >= 0.0
            if res.activationless:
                assert res.e_star == 0.0


class TestAlgebraicExtrema:
    def test_lower_adiabat_double_well(self):
        # lam=4, V=1, dg0=0: stationary analysis puts the wells at
        # (1 -/+ sqrt(1 - 4V^2/lam^2))/2 and the barrier top at 1/2
        q, _e, is_min, is_max = ExactAdiabat(4.0, ConstantCoupling(1.0)).extrema(
            np.array([0.0])
        )
        q_r = (1.0 - math.sqrt(1.0 - 4.0 / 16.0)) / 2.0
        assert q[is_min] == pytest.approx([q_r, 1.0 - q_r], abs=1e-12)
        assert q[is_max] == pytest.approx([0.5], abs=1e-7)

    def test_tilted_adiabat_barrier_top_is_a_maximum(self):
        s = DiabaticSystem(4.0, 0.3)
        c = ConstantCoupling(1.0)
        res = barrier(s, c, BarrierMethod.EXACT_ADIABAT)
        f = lambda q: float(lower_adiabat(s, c, q))
        h = 1e-4
        second = (f(res.q_ts + h) - 2 * f(res.q_ts) + f(res.q_ts - h)) / (h * h)
        assert second < 0.0

    def test_batch_rows_match_scalar_calls(self):
        c = LinearCoupling(0.2, 1.0)
        dg = np.linspace(-3.0, 2.0, 41)
        e_star, q_ts, q_r, single = ExactAdiabat(4.0, c).barriers(dg)
        for i, d in enumerate(dg):
            res = barrier(DiabaticSystem(4.0, float(d)), c, BarrierMethod.EXACT_ADIABAT)
            assert res.e_star == pytest.approx(e_star[i], abs=1e-12)
            assert res.activationless == single[i]
            assert res.q_r == pytest.approx(q_r[i], abs=1e-9)

    def test_shallow_product_well_is_found(self):
        # a 2001-point scan missed this product well (about 3e-10 eV deep)
        # and returned 0; the inputs are a draw of the barrier_map
        # benchmark workload at seed 43
        s = DiabaticSystem(2.751311463175356, 1.359413637603892)
        c = ConstantCoupling(0.31591450234734236)
        res = barrier(s, c, BarrierMethod.EXACT_ADIABAT)
        assert not res.activationless
        assert res.e_star == pytest.approx(1.3057711841338695, abs=1e-8)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        lam=st.floats(0.5, 8.0), g=st.floats(-0.5, 0.5), shape=couplings,
    )
    def test_matches_dense_scan_and_brent(self, lam, g, shape):
        s = DiabaticSystem(lam, g * lam)
        c = PolynomialCoupling(tuple(f * lam for f in shape))
        got = barrier(s, c, BarrierMethod.EXACT_ADIABAT).e_star
        assert got == pytest.approx(scan_barrier(s, c), abs=1e-8)


class TestAdiabaticDrivingForce:
    def test_zero_coupling(self):
        assert adiabatic_driving_force(
            DiabaticSystem(4.0, 0.3), ConstantCoupling(0.0)
        ) == pytest.approx(0.3, abs=1e-9)

    def test_symmetric_case(self):
        assert adiabatic_driving_force(
            DiabaticSystem(4.0, 0.0), ConstantCoupling(1.0)
        ) == pytest.approx(0.0, abs=1e-9)

    def test_against_scipy_minimizer(self):
        s = DiabaticSystem(4.0, 0.3)
        c = ConstantCoupling(1.0)
        f = lambda q: float(lower_adiabat(s, c, q))
        left = scipy.optimize.minimize_scalar(
            f, bounds=(-0.5, 0.5), method="bounded",
            options={"xatol": 1e-12},
        )
        right = scipy.optimize.minimize_scalar(
            f, bounds=(0.5, 1.5), method="bounded",
            options={"xatol": 1e-12},
        )
        expected = right.fun - left.fun
        got = adiabatic_driving_force(s, c)
        assert got == pytest.approx(expected, abs=1e-9)
        # deviation from the diabatic value is second order in V
        assert abs(got - 0.3) <= 0.3 * (1.0 / 4.0) ** 2 * 4

    def test_single_well_raises(self):
        with pytest.raises(SurfaceTopologyError):
            adiabatic_driving_force(
                DiabaticSystem(4.0, -6.0), ConstantCoupling(0.5)
            )


class TestValidityReport:
    def test_benign_regime_is_clean(self):
        assert validity_report(
            DiabaticSystem(4.0, 0.3), ConstantCoupling(0.5)
        ) == []

    def test_near_singular_lambda(self):
        warnings = validity_report(
            DiabaticSystem(1.0, 0.0), ConstantCoupling(0.4)
        )
        assert any("reorganization" in w for w in warnings)

    def test_large_driving_force(self):
        warnings = validity_report(
            DiabaticSystem(4.0, 1.5), ConstantCoupling(0.5)
        )
        assert any("dg0" in w for w in warnings)

    def test_weak_coupling_flags_non_adiabatic(self):
        warnings = validity_report(
            DiabaticSystem(4.0, 0.0), ConstantCoupling(0.01)
        )
        assert any("non-adiabatic" in w for w in warnings)
