"""Two-state model: parabolic diabats, electronic coupling, adiabats.

Diabat a sits at q=0 with energy lam*q^2; diabat b sits at q=1 with
energy lam*(1-q)^2 + dg0. Mixing them with a coupling V(q) and solving
the 2x2 secular equation gives the adiabats E_minus/E_plus. Only V(q)^2
enters the eigenvalues, so the sign of V is physically irrelevant; signed
values are still allowed (a linear V(q) may cross zero).

All evaluation helpers accept scalars or numpy arrays for q.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tables import SweepTable

__all__ = [
    "DiabaticSystem",
    "ConstantCoupling",
    "LinearCoupling",
    "PolynomialCoupling",
    "SurfaceSample",
    "coupling_eval",
    "coupling_max",
    "as_polynomial",
    "diabat_a",
    "diabat_b",
    "adiabats",
    "adiabat_energies",
    "lower_adiabat",
    "surface_table",
]


@dataclass(frozen=True)
class DiabaticSystem:
    """Reorganization energy lam (eV, > 0) and driving force dg0 (eV)."""

    lam: float
    dg0: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not math.isfinite(self.dg0):
            raise ValueError(f"dg0 must be finite, got {self.dg0}")


@dataclass(frozen=True)
class ConstantCoupling:
    """q-independent coupling (Condon case)."""

    v: float

    def __post_init__(self):
        if not math.isfinite(self.v):
            raise ValueError(f"coupling must be finite, got {self.v}")


@dataclass(frozen=True)
class LinearCoupling:
    """Coupling interpolating from v0 at q=0 to v1 at q=1."""

    v0: float
    v1: float

    def __post_init__(self):
        if not (math.isfinite(self.v0) and math.isfinite(self.v1)):
            raise ValueError(f"coupling must be finite, got {self}")


@dataclass(frozen=True)
class PolynomialCoupling:
    """Coupling sum(coeffs[k] * q**k), coefficients in ascending powers."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial coupling needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError(f"coupling coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)


def as_polynomial(c):
    """Canonical polynomial form; value-identical to the original model."""
    if isinstance(c, ConstantCoupling):
        return PolynomialCoupling((c.v,))
    if isinstance(c, LinearCoupling):
        return PolynomialCoupling((c.v0, c.v1 - c.v0))
    if isinstance(c, PolynomialCoupling):
        return c
    raise TypeError(f"not a coupling model: {c!r}")


def coupling_eval(c, q):
    """V(q) for any coupling model; q may be a scalar or array."""
    if isinstance(c, ConstantCoupling):
        return c.v + 0.0 * q
    if isinstance(c, LinearCoupling):
        return c.v0 + q * (c.v1 - c.v0)
    if isinstance(c, PolynomialCoupling):
        acc = 0.0 * q
        for coef in reversed(c.coeffs):
            acc = acc * q + coef
        return acc
    raise TypeError(f"not a coupling model: {c!r}")


def coupling_max(c):
    """max of |V(q)| over q in [0, 1].

    Taken over q = 0, q = 1 and the real roots of V'(q) inside (0, 1).
    Used for validity heuristics only.
    """
    poly = as_polynomial(c)
    slope = np.polyder(poly.coeffs[::-1])
    candidates = [0.0, 1.0] + [
        r.real for r in np.roots(slope) if r.imag == 0.0 and 0.0 < r.real < 1.0
    ]
    return max(abs(float(coupling_eval(poly, q))) for q in candidates)


def diabat_a(sys, q):
    """Reactant diabat lam*q^2."""
    return sys.lam * q * q


def diabat_b(sys, q):
    """Product diabat lam*(1-q)^2 + dg0."""
    return sys.lam * (1.0 - q) ** 2 + sys.dg0


@dataclass(frozen=True)
class SurfaceSample:
    """Both diabats, both adiabats, and the coupling at one coordinate."""

    q: float
    e_a: float
    e_b: float
    e_minus: float
    e_plus: float
    v: float


def adiabat_energies(sys, c, q):
    """(e_a, e_b, e_minus, e_plus, v) at q; vectorized over q."""
    ea = diabat_a(sys, q)
    eb = diabat_b(sys, q)
    v = coupling_eval(c, q)
    mean = 0.5 * (ea + eb)
    half_gap = 0.5 * np.sqrt((ea - eb) ** 2 + 4.0 * v * v)
    return ea, eb, mean - half_gap, mean + half_gap, v


def lower_adiabat(sys, c, q):
    """Ground adiabat E_minus(q); vectorized over q."""
    return adiabat_energies(sys, c, q)[2]


def adiabats(sys, c, q):
    """SurfaceSample at a single coordinate q."""
    ea, eb, em, ep, v = adiabat_energies(sys, c, q)
    return SurfaceSample(
        q=float(q), e_a=float(ea), e_b=float(eb), e_minus=float(em),
        e_plus=float(ep), v=float(v),
    )


def surface_table(sys, c, q_lo=-0.5, q_hi=1.5, n=401):
    """Uniform sampling of the surfaces on [q_lo, q_hi] as a SweepTable."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not q_lo < q_hi:
        raise ValueError(f"need q_lo < q_hi, got {q_lo}, {q_hi}")
    qs = np.linspace(q_lo, q_hi, n)
    ea, eb, em, ep, v = adiabat_energies(sys, c, qs)
    v = v + 0.0 * qs  # broadcast for constant couplings
    rows = [
        [float(qs[i]), float(ea[i]), float(eb[i]), float(em[i]),
         float(ep[i]), float(v[i])]
        for i in range(n)
    ]
    return SweepTable(
        columns=["q", "E_a", "E_b", "E_minus", "E_plus", "V"], rows=rows
    )
