"""Independent references for every benchmark operation.

None of these routes goes through etkit's numerics. Barriers come from
the real roots of the squared stationarity polynomial of the lower
adiabat (numpy companion-matrix eigenvalues, batched over nodes); rates
come from a dense trapezoid rule over the Fermi-weighted continuum; the
closed form is evaluated in 30-digit mpmath.
"""

import math

import mpmath as mp
import numpy as np

K_B = 8.617333262e-5  # eV/K, CODATA 2018 as in the package
H = 4.135667696e-15  # eV*s
HBAR = 6.582119569e-16  # eV*s

# the package scans the lower adiabat on this window
Q_LO, Q_HI = -0.5, 1.5
# trapezoid spacing in eV: the integrands are analytic in a strip of
# half-width pi*kT >= 0.067 eV around the real axis, so the rule's error
# exp(-2*pi*0.067/h) is far below every tolerance used here
TRAPEZOID_H = 0.002
_EXP_FLOOR = -700.0


def _pmul(a, b):
    """Product of polynomials with ascending coefficients on the last axis."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(shape + (a.shape[-1] + b.shape[-1] - 1,))
    for i in range(a.shape[-1]):
        out[..., i : i + b.shape[-1]] += a[..., i : i + 1] * b
    return out


def _padd(a, b):
    n = max(a.shape[-1], b.shape[-1])
    a = np.concatenate([a, np.zeros(a.shape[:-1] + (n - a.shape[-1],))], -1)
    b = np.concatenate([b, np.zeros(b.shape[:-1] + (n - b.shape[-1],))], -1)
    return a + b


def _lower(lam, dg, coeffs, q):
    ea = lam * q * q
    eb = lam * (1.0 - q) ** 2 + dg
    v = np.polynomial.polynomial.polyval(q, coeffs)
    return 0.5 * (ea + eb) - 0.5 * np.sqrt((ea - eb) ** 2 + 4.0 * v * v)


def _stationary_points(lam, dg, coeffs):
    """Real roots in the scan window of M'^2 g - h^2 = 0, per dg.

    M is the diabat mean, g = Delta^2/4 + V^2 and h = lam*Delta/2 + V V'.
    Returns a (N, d) array with NaN where a root is complex, outside the
    window, or spurious (sign(M') != sign(h), introduced by squaring).
    """
    dg = np.atleast_1d(np.asarray(dg, dtype=float))
    n = dg.size
    c = np.asarray(coeffs, dtype=float)
    dc = c[1:] * np.arange(1, c.size) if c.size > 1 else np.zeros(1)
    mp_ = np.array([-lam, 2.0 * lam])
    delta = np.stack([-lam - dg, np.full(n, 2.0 * lam)], axis=-1)
    g = _padd(0.25 * _pmul(delta, delta), _pmul(c, c))
    h = _padd(0.5 * lam * delta, _pmul(c, dc))
    p = _padd(_pmul(_pmul(mp_, mp_), g), -_pmul(h, h))
    # drop leading coefficients that vanish for every node
    scale = np.max(np.abs(p), axis=-1, keepdims=True)
    while p.shape[-1] > 2 and np.all(np.abs(p[:, -1]) <= 1e-14 * scale[:, 0]):
        p = p[:, :-1]
    d = p.shape[-1] - 1
    comp = np.zeros((n, d, d))
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = -p[:, :-1] / p[:, -1:]
    roots = np.linalg.eigvals(comp)
    q = roots.real.copy()
    ok = np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(q))
    ok &= (q > Q_LO) & (q < Q_HI)
    mprime = lam * (2.0 * q - 1.0)
    hq = 0.5 * lam * (lam * (2.0 * q - 1.0) - dg[:, None]) + np.polynomial.polynomial.polyval(
        q, c
    ) * np.polynomial.polynomial.polyval(q, dc)
    tol = 1e-9 * (1.0 + np.abs(mprime) + np.abs(hq))
    ok &= (mprime * hq > 0.0) | ((np.abs(mprime) <= tol) & (np.abs(hq) <= tol))
    return np.where(ok, q, np.nan)


def exact_barriers(lam, dg, coeffs):
    """Exact-adiabat barriers for every level shift in dg.

    Returns (e_star, single_well, q_r) arrays following the package's
    topology convention: the first two minima in q are reactant and
    product, the transition state is the highest maximum between them,
    and with fewer than two minima the barrier is 0 and q_r is the first.
    """
    dg = np.atleast_1d(np.asarray(dg, dtype=float))
    q = np.sort(_stationary_points(lam, dg, coeffs), axis=1)
    # a double root can come back twice
    dup = np.zeros_like(q, dtype=bool)
    dup[:, 1:] = np.diff(q, axis=1) <= 1e-9
    q = np.where(dup, np.nan, q)
    d = dg[:, None]
    e = _lower(lam, d, coeffs, q)
    step = 1e-5
    curv = _lower(lam, d, coeffs, q + step) + _lower(lam, d, coeffs, q - step) - 2.0 * e
    is_min = curv > 0.0
    is_max = curv < 0.0
    if not np.all(is_min.any(axis=1)):
        raise ValueError("no minimum of the lower adiabat in the scan window")
    rows = np.arange(dg.size)
    first = np.argmax(is_min, axis=1)
    count = np.cumsum(is_min, axis=1)
    has_second = count[:, -1] >= 2
    second = np.argmax(is_min & (count == 2), axis=1)
    q_r, e_r = q[rows, first], e[rows, first]
    q_p = np.where(has_second, q[rows, second], -np.inf)
    between = is_max & (q > q_r[:, None]) & (q < q_p[:, None])
    e_ts = np.max(np.where(between, e, -np.inf), axis=1)
    single = ~between.any(axis=1)
    e_star = np.where(single, 0.0, np.maximum(e_ts - e_r, 0.0))
    return e_star, single, q_r


def _fermi(eps, T):
    # 1/(1 + e^x) = exp(-log(1 + e^x)), finite for every x
    return np.exp(-np.logaddexp(0.0, eps / (K_B * T)))


def _window(lam, eta, T):
    return 2.0 * lam + abs(eta) + 40.0 * K_B * T


def _trapezoid(weight_of_eps, lam, eta, T, span=2.0):
    """Trapezoid of fermi(eps)*weight(eps) on [-span*W, span*W]."""
    w = span * _window(lam, eta, T)
    n = int(math.ceil(2.0 * w / TRAPEZOID_H)) + 1
    eps = np.linspace(-w, w, n)
    return float(np.trapezoid(_fermi(eps, T) * weight_of_eps(eps), eps))


def _boltzmann(e_star, T):
    return np.exp(np.maximum(-e_star / (K_B * T), _EXP_FLOOR))


def _attempt(prefactor, lam, v_half, T):
    if prefactor == "non_adiabatic":
        return (v_half * v_half / HBAR) * math.sqrt(math.pi / (K_B * T) / lam)
    return K_B * T / H


def marcus_family_rate(route, lam, coeffs, eta, T, prefactor, rho=1.0):
    """Rate (1/s) on the MARCUS, CONSTANT_SHIFT or EFFECTIVE_LAMBDA route.

    For EFFECTIVE_LAMBDA, nodes where lam_eff(dg) <= 0 contribute zero:
    the closed-channel convention the exact route uses.
    """
    c = np.asarray(coeffs, dtype=float)
    pv = np.polynomial.polynomial.polyval
    v_half = float(pv(0.5, c))

    def weight(eps):
        dg = eta - eps
        if route == "marcus":
            e = (lam + dg) ** 2 / (4.0 * lam)
        elif route == "shift":
            e = (lam + dg) ** 2 / (4.0 * lam) - v_half
        elif route == "eff":
            q_star = 0.5 * (1.0 + dg / lam)
            lam_eff = lam - 4.0 * pv(q_star, c) + 4.0 * c[0] ** 2 / lam
            open_ = lam_eff > 0.0
            safe = np.where(open_, lam_eff, 1.0)
            e = np.where(open_, (safe + dg) ** 2 / (4.0 * safe), np.inf)
        else:
            raise ValueError(f"unknown route {route!r}")
        return _boltzmann(e, T)

    return _attempt(prefactor, lam, v_half, T) * rho * _trapezoid(weight, lam, eta, T)


def exact_rate(lam, coeffs, eta, T, rho=1.0):
    """EXACT_ADIABAT rate (1/s) with the adiabatic prefactor.

    Single-well nodes contribute 0 when the well is on the reactant side
    (closed channel) and 1 when it is on the product side (downhill).
    """

    def weight(eps):
        e_star, single, q_r = exact_barriers(lam, eta - eps, coeffs)
        out = _boltzmann(e_star, T)
        return np.where(single & (q_r < 0.5), 0.0, out)

    return (K_B * T / H) * rho * _trapezoid(weight, lam, eta, T, span=1.0)


def closed_form_mp(lam_eff, T, eta, rho=1.0):
    """The package's closed-form rate, evaluated in 30-digit mpmath."""
    with mp.workdps(30):
        lam_eff, eta = mp.mpf(lam_eff), mp.mpf(eta)
        b = 1 / (mp.mpf("8.617333262e-5") * mp.mpf(T))
        bl, be = b * lam_eff, b * eta
        arg = (bl - mp.sqrt(1 + mp.sqrt(bl) + be * be)) / (2 * mp.sqrt(bl))
        k = (
            mp.mpf(rho)
            * mp.sqrt(mp.pi * lam_eff / b)
            / (b * mp.mpf("4.135667696e-15") * (1 + mp.exp(be)))
            * mp.erfc(arg)
        )
        return float(k)
