import math
import warnings

import numpy as np
import numpy.polynomial.chebyshev as cheb
import numpy.polynomial.polynomial as npoly
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import bisect, count_float, count_mp, topology_flag

from etkit.barriers import (
    BARRIER,
    CLOSED,
    DOWNHILL,
    SCAN_Q_HI,
    SCAN_Q_LO,
    _SEED_POINTS,
    _SEED_X,
    BarrierMethod,
    ExactAdiabat,
    adiabatic_driving_force,
    barrier,
    effective_lambda,
    exact_adiabat,
    marcus_barrier,
    _barycentric,
    marcus_form,
    marcus_ts,
    piece_shifts,
)
from etkit.errors import SingularRegimeError, SurfaceTopologyError
from etkit.model import (
    ConstantCoupling,
    DiabaticSystem,
    LinearCoupling,
    PolynomialCoupling,
    lower_adiabat,
)
from etkit.rates import (
    ElectrodeConditions,
    PrefactorKind,
    RateRequest,
    mhc_rate_numeric,
    prefactor,
    validity_report,
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
    def test_marcus_form_rejects_the_exact_method(self):
        # the exact barrier has no Marcus form: barrier() routes it apart
        with pytest.raises(TypeError, match="^not a Marcus-form barrier method: "):
            marcus_form(4.0, ConstantCoupling(0.5), BarrierMethod.EXACT_ADIABAT)

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

    @pytest.mark.parametrize("c", [ConstantCoupling(0.0), ConstantCoupling(1e-13)])
    def test_kink_below_minus_lam_is_no_well(self, c):
        # for -2*lam < dg0 < -lam the crossing lies in the window at q < 0,
        # where E_minus = min(E_a, E_b) falls through it: the one well is
        # the product's, at q = 1. The crossing used to be found twice (a
        # root of P and the kink candidate) and pass for a reactant well
        for dg0 in (-7.5, -6.0, -4.5):
            res = barrier(DiabaticSystem(4.0, dg0), c, BarrierMethod.EXACT_ADIABAT)
            assert res.activationless
            assert res.q_r == pytest.approx(1.0, abs=1e-12)

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


class TestShifts:
    """Fold points against bisections of the topology of the lower
    adiabat, independent of the fold polynomial."""

    @pytest.mark.parametrize(
        "lam, coeffs",
        [
            (4.0, (0.5,)),
            (4.0, (0.6, 0.4)),
            (4.0, (0.3, 0.5, -0.4)),
            # V changes sign inside the window
            (4.0, (0.2, -0.4)),
            (2.0, (0.1, -0.5, 0.3)),
            # S has real roots near q = -1772, 1744 and 1.2e5, whose
            # Newton iterates overflowed (a RuntimeWarning)
            (
                4.4130502741804705,
                (
                    -0.018439452543070407,
                    -0.08707572239492894,
                    -0.04452721529016039,
                    -0.0010246964728557546,
                ),
            ),
        ],
    )
    def test_folds_where_stationary_points_appear(self, lam, coeffs):
        # a float scan finds where the number of stationary points
        # changes; each change is bisected in floats to 1e-7 eV, where
        # the two roots that meet are still 1e-4 apart, then in 40-digit
        # arithmetic
        shifts = ExactAdiabat(lam, PolynomialCoupling(coeffs)).shifts
        grid = np.linspace(-3.0 * lam, 3.0 * lam, 401) + 1e-3 * math.pi
        counts = [count_float(lam, coeffs, d) for d in grid]
        changes = []
        for a, b, ca, cb in zip(grid[:-1], grid[1:], counts[:-1], counts[1:]):
            if ca != cb:
                a, b = bisect(lambda d: count_float(lam, coeffs, d), a, b, 1e-7)
                a, b = bisect(lambda d: count_mp(lam, coeffs, d), a, b)
                changes.append(0.5 * (a + b))
        assert len(changes) >= 2
        for x in changes:
            assert np.abs(shifts - x).min() <= 1e-12, (x, shifts)

    @pytest.mark.parametrize(
        "c",
        [
            ConstantCoupling(0.0),
            ConstantCoupling(1e-13),
            LinearCoupling(1e-13, -1e-13),
            PolynomialCoupling((-1e-13, 0.0, 4e-13)),
        ],
    )
    def test_zero_coupling_folds_at_plus_minus_lam(self, c):
        # E_minus = min(E_a, E_b): both diabat minima lie on it exactly
        # when -lam < dg < lam
        lam = 4.0
        wells = lambda dg: (0.0 <= lam + dg) + (dg <= lam)
        adiabat = ExactAdiabat(lam, c)
        for ends in ((-2.0 * lam, 0.0), (0.0, 2.0 * lam)):
            x = 0.5 * sum(bisect(wells, *ends))
            assert np.abs(adiabat.shifts - x).min() <= 1e-12
        lo, hi, kind = adiabat.pieces
        barrier_piece = kind == BARRIER
        assert lo[barrier_piece][0] == pytest.approx(-lam, abs=1e-12)
        assert hi[barrier_piece][-1] == pytest.approx(lam, abs=1e-12)
        assert kind[0] == DOWNHILL and kind[-1] == CLOSED

    def test_single_well_crossing_the_middle(self):
        # for V >= lam/2 the adiabat has one well for every dg; it moves
        # from the product side to the reactant side at dg = 2 V V'/lam = 0
        c = ConstantCoupling(2.5)
        x = 0.5 * sum(bisect(lambda d: topology_flag(4.0, (2.5,), d), -1.0, 1.0))
        adiabat = ExactAdiabat(4.0, c)
        assert np.abs(adiabat.shifts - x).min() <= 1e-12
        lo, hi, kind = adiabat.pieces
        assert list(kind) == [DOWNHILL, CLOSED]

    @pytest.mark.parametrize("v0, v1, kink", [(0.2, -0.2, 0.0), (0.15, -0.35, -1.6)])
    def test_kink_splits_the_barrier_piece(self, v0, v1, kink):
        # V vanishes at q = (1 + kink/lam)/2: E*(dg) has a kink there
        lo, hi, kind = ExactAdiabat(4.0, LinearCoupling(v0, v1)).pieces
        assert list(kind) == [DOWNHILL, BARRIER, BARRIER, CLOSED]
        assert hi[1] == pytest.approx(kink, abs=1e-12)

    def test_middle_shift_inside_a_barrier_piece_is_dropped(self):
        # the transition state passes q = 1/2 at dg = 0 without a change
        adiabat = ExactAdiabat(4.0, ConstantCoupling(0.5))
        lo, hi, kind = adiabat.pieces
        assert list(kind) == [DOWNHILL, BARRIER, CLOSED]
        assert 0.0 in adiabat.shifts and 0.0 not in hi


# a strong cubic coupling whose product well leaves the scan window at
# q = 1.5 near dg = 0.457, inside the barrier piece [-4.460, 0.940]: the
# barrier jumps there with no shift to cut at, and the rate changed by up
# to 41x when the window was widened
WINDOW_EDGE_CASE = (
    5.846682047973708,
    PolynomialCoupling(
        (
            0.08443522759795319,
            1.1056849586628463,
            -1.5244469482118754,
            -1.0880355853884272,
        )
    ),
)


def signed_in_window(shape):
    """Couplings of degree <= 2 whose V keeps one sign, at least 1e-3 lam
    from 0, on the scan window: where V vanishes near a stationary point,
    P has a near-multiple root there and extrema's flags flicker (seen
    1e-6 to 3e-6 eV inside a barrier piece next to a kink at q = 1)."""
    v = npoly.polyval(np.linspace(SCAN_Q_LO, SCAN_Q_HI, 401), shape)
    return bool((v >= 1e-3).all() or (v <= -1e-3).all())


class TestWindowEdges:
    def test_well_leaving_the_window_inside_a_barrier_piece_raises(self):
        adiabat = ExactAdiabat(*WINDOW_EDGE_CASE)
        with pytest.raises(SurfaceTopologyError, match="crosses an end of the scan"):
            adiabat.pieces
        req = RateRequest(
            DiabaticSystem(WINDOW_EDGE_CASE[0], 0.0), WINDOW_EDGE_CASE[1],
            ElectrodeConditions(300.0, 0.8), BarrierMethod.EXACT_ADIABAT,
        )
        with pytest.raises(SurfaceTopologyError):
            mhc_rate_numeric(req)

    def test_no_minimum_in_the_window_raises(self):
        # V = 5 q^3 makes the lower adiabat fall through both ends of the
        # scan window, so it has no minimum inside it
        with pytest.raises(
            SurfaceTopologyError, match="no minimum of the lower adiabat"
        ):
            barrier(
                DiabaticSystem(1.0, -2.0), PolynomialCoupling((0.0, 0.0, 0.0, 5.0)),
                BarrierMethod.EXACT_ADIABAT,
            )

    def test_edge_crossing_is_a_stationary_point_at_the_edge(self):
        lam, c = WINDOW_EDGE_CASE
        crossings = ExactAdiabat(lam, c)._edge_crossings()
        dg = float(crossings[np.abs(crossings - 0.4574).argmin()])
        assert dg == pytest.approx(0.4574, abs=1e-4)
        q = SCAN_Q_HI + np.array([-1e-6, 1e-6])
        e = lower_adiabat(DiabaticSystem(lam, dg), c, q)
        assert abs(e[1] - e[0]) / 2e-6 <= 1e-7

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(lam=st.floats(0.5, 8.0), shape=couplings.filter(signed_in_window))
    def test_barrier_pieces_have_two_minima(self, lam, shape):
        # every node of a barrier piece at least 1e-6 eV from its ends has
        # a reactant and a product well
        adiabat = ExactAdiabat(lam, PolynomialCoupling(tuple(f * lam for f in shape)))
        lo, hi, kind = adiabat.pieces
        for a, b in zip(lo[kind == BARRIER], hi[kind == BARRIER]):
            dg = np.linspace(a, b, 2001)
            dg = dg[(dg - a >= 1e-6) & (b - dg >= 1e-6)]
            _q, _e, is_min, _is_max = adiabat.extrema(dg)
            assert (is_min.sum(axis=1) >= 2).all(), (a, b)


class TestRateNodes:
    # the exact rate's nodes on every barrier piece: the weights carry the
    # sin^2 map's Jacobian, and the split at the Fermi step keeps the rule
    # exact on dg^0 and dg^1

    @pytest.mark.parametrize(
        "lam, coeffs",
        [(4.0, (0.1, 0.4)), (2.0, (0.2, -0.6)), (4.0, (0.1, -0.1, -0.25))],
    )
    def test_weights_integrate_the_level_shift(self, lam, coeffs):
        adiabat = exact_adiabat(lam, PolynomialCoupling(coeffs))
        rule = adiabat.rule
        lo, hi = rule.lo[:, 0], rule.hi[:, 0]
        assert rule.seeded.all()
        # each piece's midpoint is inside it and outside the others;
        # below every piece, each splits at t = 1/2
        for eta in (*(0.5 * (lo + hi)), lo[0] - 1.0):
            dg, weight, e_star = (x.reshape(len(lo), -1) for x in adiabat.rate_nodes(eta))
            # the two parts meet at the Fermi step, or at the midpoint
            # dg(t = 1/2) of a piece that does not hold it
            step = np.where((lo < eta) & (eta < hi), eta, 0.5 * (lo + hi))
            half = dg.shape[1] // 2
            assert (dg[:, :half].max(axis=1) < step).all()
            assert (dg[:, half:].min(axis=1) > step).all()
            assert weight.sum(axis=1) == pytest.approx(hi - lo, rel=1e-13, abs=0)
            moment = (weight * dg).sum(axis=1)
            assert moment == pytest.approx(0.5 * (hi * hi - lo * lo), rel=1e-13, abs=0)
            assert np.isfinite(e_star[rule.seeded]).all()


class TestSeeds:
    # seeded_barriers starts Newton's method from the polynomials through
    # the rule's samples at the Chebyshev-Gauss points _SEED_X

    @pytest.mark.parametrize("lam, coeffs", [(4.0, (0.1, 0.4)), (2.0, (0.2, -0.6))])
    def test_seeds_are_the_interpolant(self, lam, coeffs):
        rule = exact_adiabat(lam, PolynomialCoupling(coeffs)).rule
        assert rule.seeded.all()
        t = np.random.default_rng(11).random((len(rule.seeded), 200))
        got = _barycentric(2.0 * t - 1.0, rule.samples)
        for piece, samples in enumerate(rule.samples):
            coef = cheb.chebfit(_SEED_X, samples.T, _SEED_POINTS - 1)
            want = cheb.chebval(2.0 * t[piece] - 1.0, coef)
            assert np.abs(got[piece] - want).max() <= 1e-13

    def test_a_node_on_a_sample_point(self):
        # there the barycentric formula is 0/0: no warning, and that node
        # alone is refused; every other node of both pieces keeps its E*
        adiabat = exact_adiabat(2.0, PolynomialCoupling((0.2, -0.6)))
        rule = adiabat.rule
        assert rule.seeded.all() and len(rule.seeded) == 2
        t = np.tile(np.linspace(0.05, 0.95, 7), (2, 1))
        e_before, ok_before = adiabat.seeded_barriers(t, piece_shifts(rule.lo, rule.hi, t))
        assert ok_before.all()
        # 2t - 1 gives x_j back exactly where x_j <= -1/2
        x = _SEED_X[-1]
        t[0, 3] = 0.5 * (1.0 + x)
        assert 2.0 * t[0, 3] - 1.0 == x
        dg = piece_shifts(rule.lo, rule.hi, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e_star, ok = adiabat.seeded_barriers(t, dg)
        refused = np.zeros(t.shape, dtype=bool)
        refused[0, 3] = True
        assert (ok == ~refused).all()
        assert e_star[ok] == pytest.approx(e_before[ok], rel=0, abs=1e-12)


class TestExactAdiabatCache:
    # barrier(), adiabatic_driving_force() and the exact rate route share
    # one ExactAdiabat per (lam, coupling), kept by exact_adiabat

    def test_same_pair_same_instance(self):
        c = LinearCoupling(0.6, 1.0)
        adiabat = exact_adiabat(4.0, c)
        assert exact_adiabat(4.0, LinearCoupling(0.6, 1.0)) is adiabat
        assert exact_adiabat(3.0, c) is not adiabat
        assert adiabat.pieces is adiabat.pieces
        assert exact_adiabat.cache_info().maxsize == 64

    def test_cached_arrays_are_read_only(self):
        adiabat = exact_adiabat(4.0, PolynomialCoupling((0.3, 0.5, -0.4)))
        for x in (adiabat.shifts, *adiabat.pieces):
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0

    def test_barriers_and_driving_forces_build_one_set_up(self, monkeypatch):
        built = []
        init = ExactAdiabat.__init__

        def counting_init(self, lam, c):
            built.append((lam, c))
            init(self, lam, c)

        monkeypatch.setattr(ExactAdiabat, "__init__", counting_init)
        exact_adiabat.cache_clear()
        c = PolynomialCoupling((0.3, 0.5, -0.4))
        for dg0 in np.linspace(-1.0, 0.5, 7):
            s = DiabaticSystem(4.0, float(dg0))
            barrier(s, c, BarrierMethod.EXACT_ADIABAT)
            adiabatic_driving_force(s, c)
        assert built == [(4.0, c)]


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

    def test_singular_lambda_reads_zero(self):
        # V = lam/2 makes lam_eff = 0, which effective_lambda rejects
        warnings = validity_report(
            DiabaticSystem(4.0, 0.0), ConstantCoupling(2.0)
        )
        assert len(warnings) == 1
        assert "0 eV is <= 10%" in warnings[0]

    def test_coupling_above_half_lambda(self):
        warnings = validity_report(
            DiabaticSystem(4.0, 0.0), ConstantCoupling(2.5)
        )
        assert len(warnings) == 2
        assert "exceeds lam/2" in warnings[1]

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

    def test_prefactor_ratio_flags_non_adiabatic_above_k_t(self):
        # golden-rule/classical prefactor 0.696 at V = 0.04 eV, above kT
        # at 400 K (0.0345 eV)
        sys, c = DiabaticSystem(16.0, 0.0), ConstantCoupling(0.04)
        ratio = prefactor(PrefactorKind.NON_ADIABATIC, sys, 0.04, 400.0) / prefactor(
            PrefactorKind.ADIABATIC, sys, 0.04, 400.0
        )
        assert ratio == pytest.approx(0.696, abs=1e-3)
        warnings = validity_report(sys, c, temperature=400.0)
        assert not any("below k_B*T" in w for w in warnings)
        assert [w for w in warnings if "golden-rule prefactor is 0.696" in w]

    def test_coupling_checked_against_k_t_at_the_temperature(self):
        # V = 0.03 eV is above kT at 300 K (0.0259 eV), below it at 400 K
        sys, c = DiabaticSystem(4.0, 0.0), ConstantCoupling(0.03)
        assert validity_report(sys, c, temperature=300.0) == []
        warnings = validity_report(sys, c, temperature=400.0)
        assert warnings[0] == (
            "max coupling 0.03 eV is below k_B*T at 400 K; system is in the "
            "non-adiabatic regime"
        )

    def test_prefactor_ratio_silent_below_k_t(self):
        # ratio 1.41 at V = 0.02 eV, below kT at 250 K (0.0215 eV): only
        # the k_B*T threshold fires
        sys, c = DiabaticSystem(1.0, 0.0), ConstantCoupling(0.02)
        ratio = prefactor(PrefactorKind.NON_ADIABATIC, sys, 0.02, 250.0) / prefactor(
            PrefactorKind.ADIABATIC, sys, 0.02, 250.0
        )
        assert ratio == pytest.approx(1.41, abs=1e-2)
        warnings = validity_report(sys, c, temperature=250.0)
        assert not any("golden-rule" in w for w in warnings)
        assert any("below k_B*T" in w for w in warnings)
