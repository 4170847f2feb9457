import math

import numpy as np
import pytest

from etkit.model import (
    ConstantCoupling,
    DiabaticSystem,
    LinearCoupling,
    PolynomialCoupling,
    adiabats,
    as_polynomial,
    coupling_eval,
    coupling_max,
    diabat_a,
    diabat_b,
    surface_table,
)


def random_coupling(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return ConstantCoupling(float(rng.uniform(-2.0, 2.0)))
    if kind == 1:
        return LinearCoupling(
            float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))
        )
    return PolynomialCoupling(tuple(rng.uniform(-1.0, 1.0, size=4)))


class TestDiabats:
    def test_diabat_a_values(self):
        s = DiabaticSystem(4.0, 0.0)
        assert diabat_a(s, 0.0) == 0.0
        assert diabat_a(s, 1.0) == 4.0
        assert diabat_a(s, 0.5) == 1.0

    def test_diabat_b_values(self):
        s = DiabaticSystem(4.0, 0.3)
        assert diabat_b(s, 1.0) == pytest.approx(0.3)
        assert diabat_b(s, 0.0) == pytest.approx(4.3)

    def test_diabats_cross_at_crossing_coordinate(self):
        s = DiabaticSystem(4.0, 0.3)
        q_star = 0.5 * (1.0 + s.dg0 / s.lam)
        assert diabat_a(s, q_star) == pytest.approx(diabat_b(s, q_star), abs=1e-12)

    def test_invariants(self):
        with pytest.raises(ValueError):
            DiabaticSystem(0.0, 0.0)
        with pytest.raises(ValueError):
            DiabaticSystem(4.0, math.inf)


class TestCoupling:
    def test_constant(self):
        assert coupling_eval(ConstantCoupling(1.0), 0.77) == 1.0

    def test_linear_midpoint(self):
        assert coupling_eval(LinearCoupling(0.6, 1.0), 0.5) == pytest.approx(0.8)

    def test_polynomial(self):
        assert coupling_eval(
            PolynomialCoupling((0.1, 0.0, 0.4)), 1.0
        ) == pytest.approx(0.5)

    def test_max_constant(self):
        assert coupling_max(ConstantCoupling(0.5)) == 0.5

    def test_max_linear_endpoint(self):
        assert coupling_max(LinearCoupling(0.6, 1.0)) == pytest.approx(1.0)

    def test_max_quadratic_vertex(self):
        assert coupling_max(PolynomialCoupling((0.0, 1.0, -1.0))) == pytest.approx(
            0.25
        )

    def test_max_quartic_grid(self):
        c = PolynomialCoupling((0.0, 0.0, 0.0, 0.0, 1.0))
        assert coupling_max(c) == pytest.approx(1.0, abs=1e-9)

    def test_max_cubic_interior_root(self):
        # V' = 0.7 - 3.8 q + 3.3 q^2 vanishes at q = 0.2302498711820794;
        # V there from mpmath at 30 digits
        c = PolynomialCoupling((0.1, 0.7, -1.9, 1.1))
        assert coupling_max(c) == pytest.approx(0.17387377120470642, abs=1e-12)

    def test_canonicalization_is_value_identical(self):
        rng = np.random.default_rng(3)
        models = [ConstantCoupling(0.7), LinearCoupling(0.6, 1.0)]
        for c in models:
            poly = as_polynomial(c)
            for q in rng.uniform(-1.0, 2.0, size=200):
                assert abs(
                    float(coupling_eval(c, q)) - float(coupling_eval(poly, q))
                ) <= 1e-15


class TestAdiabats:
    def test_uncoupled_limit(self):
        s = DiabaticSystem(4.0, 0.3)
        for q in (-0.2, 0.0, 0.4, 1.0, 1.3):
            sample = adiabats(s, ConstantCoupling(0.0), q)
            assert sample.e_minus == pytest.approx(min(sample.e_a, sample.e_b))
            assert sample.e_plus == pytest.approx(max(sample.e_a, sample.e_b))

    def test_pinned_value_at_origin(self):
        # mpmath: 2.15 - sqrt(4.3^2 + 4)/2
        sample = adiabats(DiabaticSystem(4.0, 0.3), ConstantCoupling(1.0), 0.0)
        assert sample.e_minus == pytest.approx(-0.22118114027587525, abs=1e-14)

    def test_degenerate_splitting_at_crossing(self):
        s = DiabaticSystem(4.0, 0.3)
        v = 0.7
        q_star = 0.5 * (1.0 + s.dg0 / s.lam)
        sample = adiabats(s, ConstantCoupling(v), q_star)
        e_cross = diabat_a(s, q_star)
        assert sample.e_minus == pytest.approx(e_cross - v, abs=1e-12)
        assert sample.e_plus == pytest.approx(e_cross + v, abs=1e-12)

    def test_random_identities(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            s = DiabaticSystem(
                float(rng.uniform(0.5, 8.0)), float(rng.uniform(-2.0, 2.0))
            )
            c = random_coupling(rng)
            q = float(rng.uniform(-1.0, 2.0))
            sm = adiabats(s, c, q)
            assert sm.e_minus <= sm.e_plus
            assert sm.e_plus + sm.e_minus == pytest.approx(
                sm.e_a + sm.e_b, abs=1e-10
            )
            assert (sm.e_plus - sm.e_minus) ** 2 == pytest.approx(
                (sm.e_a - sm.e_b) ** 2 + 4 * sm.v**2, abs=1e-8
            )
            # gap lower bound from the off-diagonal element
            assert sm.e_plus - sm.e_minus >= 2 * abs(sm.v) - 1e-12


class TestSurfaceTable:
    def test_two_point_table_hits_endpoints(self):
        t = surface_table(
            DiabaticSystem(4.0, 0.0), ConstantCoupling(0.5), 0.0, 1.0, 2
        )
        assert [row[0] for row in t.rows] == [0.0, 1.0]

    def test_double_well_structure(self):
        t = surface_table(
            DiabaticSystem(4.0, 0.3), ConstantCoupling(1.0), -0.5, 1.5, 401
        )
        em = np.asarray(t.column("E_minus"))
        left, mid, right = em[:-2], em[1:-1], em[2:]
        assert np.sum((mid < left) & (mid < right)) == 2
        assert np.sum((mid > left) & (mid > right)) == 1

    def test_trace_identity_rowwise(self):
        t = surface_table(
            DiabaticSystem(4.0, 0.3), LinearCoupling(0.6, 1.0), -0.5, 1.5, 101
        )
        for row in t.rows:
            _q, ea, eb, em, ep, _v = row
            assert ep + em == pytest.approx(ea + eb, abs=1e-12)

    def test_rejects_bad_args(self):
        s = DiabaticSystem(4.0, 0.0)
        with pytest.raises(ValueError):
            surface_table(s, ConstantCoupling(0.5), 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            surface_table(s, ConstantCoupling(0.5), 1.0, 0.0, 10)
