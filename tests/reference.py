"""One etkit-free reference per quantity the tests compare or pin.

Only numpy, scipy and mpmath are imported (no etkit, perfbench or other
tests module), so no reference shares a fault with the code it checks.
The call signatures of ``perfbench/oracles.py`` are kept.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import numpy.polynomial.polynomial as npoly
from scipy.optimize import minimize_scalar
from scipy.special import erfc, expit

K_B = 8.617333262e-5  # eV/K, CODATA 2018 as in the package
H = 4.135667696e-15  # eV s
HBAR = 6.582119569e-16  # eV s
# the q window in which the package looks for stationary points
Q_LO, Q_HI = -0.5, 1.5
# |V| (eV) at the diabatic crossing up to which E_minus has a kink there
KINK_V = 1e-12


def closed_form_mp(lam_eff, T, eta, rho=1):
    """The package's closed-form rate (1/s), in 30-digit mpmath."""
    with mp.workdps(30):
        b = 1 / (mp.mpf("8.617333262e-5") * T)
        bl, be = b * lam_eff, b * eta
        arg = (bl - mp.sqrt(1 + mp.sqrt(bl) + be * be)) / (2 * mp.sqrt(bl))
        return (
            rho
            * mp.sqrt(mp.pi * lam_eff / b)
            / (b * mp.mpf("4.135667696e-15") * (1 + mp.exp(be)))
            * mp.erfc(arg)
        )


def log10_closed_form(lam_eff, eta, T, rho=1.0):
    """log10 of the closed-form rate, evaluated with scipy's erfc."""
    b = 1.0 / (K_B * T)
    bl, be = b * lam_eff, b * eta
    arg = (bl - np.sqrt(1 + np.sqrt(bl) + be * be)) / (2 * np.sqrt(bl))
    return (
        np.log10(rho)
        + 0.5 * np.log10(np.pi * lam_eff / b)
        - np.log10(b * H)
        - np.log10(1 + np.exp(be))
        + np.log10(erfc(arg))
    )


def closed_form_rms(lam_eff, eta, y, T, rho=1.0):
    """Rms residual of log10 closed form plus its best offset against the
    points (eta, y): the objective of ``fit_closed_form``."""
    r = log10_closed_form(lam_eff, eta, T, rho) - y
    return float(np.sqrt(np.mean((r - r.mean()) ** 2)))


def fit_closed_form(eta, y, T, rho=1.0, n_scan=4001):
    """Single lambda_eff of the least-squares fit of log10 closed form
    plus a free offset to the points (eta, y): a dense log scan over
    [0.05, 10] eV refined by scipy.optimize.minimize_scalar (Brent).
    """
    eta, y = np.asarray(eta, dtype=float), np.asarray(y, dtype=float)
    rms = lambda lam_eff: closed_form_rms(lam_eff, eta, y, T, rho)
    grid = np.geomspace(0.05, 10.0, n_scan)
    i = int(np.argmin([rms(g) for g in grid]))
    res = minimize_scalar(
        rms, bracket=(grid[i - 1], grid[i], grid[i + 1]),
        options={"xtol": 1e-12},
    )
    return float(res.x)


def theory_curve_fit_linear(v0, v1, lam=4.0, T=300.0, n=31):
    """``fit_closed_form`` of the reduced-lambda theory's own Tafel curve
    for V(q) = v0 + (v1 - v0)*q: log10 of the closed form at lam_eff(eta)
    = lam - 4*V((lam + eta)/(2*lam)) + 4*V(0)^2/lam on criterion 10's grid
    (eta in [-1, 0.5], n points)."""
    eta = np.linspace(-1.0, 0.5, n)
    q_star = (lam + eta) / (2 * lam)
    lam_eff_eta = lam - 4 * (v0 + (v1 - v0) * q_star) + 4 * v0 * v0 / lam
    return fit_closed_form(eta, log10_closed_form(lam_eff_eta, eta, T), T)


def dense_trapezoid(f, a, b, n=2**22, chunk=2**16):
    """Trapezoid sum of f on n equal intervals of [a, b], in chunks."""
    h = (b - a) / n
    total = 0.0
    for start in range(0, n + 1, chunk):
        total += float(np.sum(f(a + h * np.arange(start, min(start + chunk, n + 1)))))
    ends = f(np.array([a, b]))
    return h * (total - 0.5 * (ends[0] + ends[1]))


def marcus_family_rate(route, lam, coeffs, eta, T, prefactor, rho=1.0, *, n=1_000_001):
    """Rate (1/s) on the "marcus", "shift" or "eff" route for V with
    ascending coefficients coeffs: a trapezoid on n points of eps in
    [-4W, 4W], W = 2 lam + |eta| + 40 kT, times the "non_adiabatic"
    prefactor V(1/2)^2/hbar sqrt(pi/(kT lam)) or the "adiabatic" kT/h.
    The barrier at dg = eta - eps is (lam + dg)^2/(4 lam), less V(1/2) on
    the shift route; the eff route takes lam_eff(dg) = lam - 4 V((1 +
    dg/lam)/2) + 4 V(0)^2/lam for lam, and a node where lam_eff <= 0
    contributes 0 (a closed channel).
    """
    if route not in ("marcus", "shift", "eff"):
        raise ValueError(f"unknown route {route!r}")
    c = np.asarray(coeffs, dtype=float)
    v_half = float(npoly.polyval(0.5, c))
    b = 1.0 / (K_B * T)
    attempt = {
        "non_adiabatic": (v_half * v_half / HBAR) * math.sqrt(math.pi * b / lam),
        "adiabatic": 1.0 / (b * H),
    }[prefactor]

    def integrand(eps):
        dg = eta - eps
        if route == "eff":
            v_ts = npoly.polyval(0.5 * (1.0 + dg / lam), c)
            lam_eff = lam - 4.0 * v_ts + 4.0 * c[0] ** 2 / lam
            open_ = lam_eff > 0.0
            safe = np.where(open_, lam_eff, 1.0)
            e = np.where(open_, (safe + dg) ** 2 / (4.0 * safe), np.inf)
        else:
            e = (lam + dg) ** 2 / (4.0 * lam) - (v_half if route == "shift" else 0.0)
        return expit(-b * eps) * np.exp(np.maximum(-b * e, -700.0))

    w = 4.0 * (2.0 * lam + abs(eta) + 40.0 * K_B * T)
    return attempt * rho * dense_trapezoid(integrand, -w, w, n - 1)


def stationarity_polynomial(lam, coeffs, dg, mul, sub):
    """(P, M', h) as ascending coefficients: P = M'^2 g - h^2 with
    M' = lam*(2q - 1), Delta = M' - dg, g = Delta^2/4 + V^2 and
    h = lam*Delta/2 + V V'."""
    v = list(coeffs)
    dv = [k * c for k, c in enumerate(v)][1:] or [0 * v[0]]
    slope = [-lam, 2 * lam]
    delta = [-lam - dg, 2 * lam]
    g = npoly.polyadd([d / 4 for d in mul(delta, delta)], mul(v, v))
    h = npoly.polyadd([lam * d / 2 for d in delta], mul(v, dv))
    return sub(mul(mul(slope, slope), g), mul(h, h)), slope, h


def count_float(lam, coeffs, dg):
    """Stationary points of E_minus in (-0.5, 1.5) at dg, in floats."""
    p, slope, h = stationarity_polynomial(
        lam, [float(c) for c in coeffs], dg, npoly.polymul, npoly.polysub
    )
    r = npoly.polyroots(p)
    q = r.real[(np.abs(r.imag) < 1e-9) & (r.real > -0.5) & (r.real < 1.5)]
    q = q[npoly.polyval(q, slope) * npoly.polyval(q, h) > 0]
    return len(np.unique(np.round(q, 12)))


def count_mp(lam, coeffs, dg):
    """Stationary points of E_minus in (-0.5, 1.5) at dg: the distinct
    real roots of P where M' h > 0, in 40-digit mpmath."""

    def mul(a, b):
        out = [mp.mpf(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def sub(a, b):
        n = max(len(a), len(b))
        a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
        return [x - y for x, y in zip(a, b)]

    with mp.workdps(40):
        p, slope, h = stationarity_polynomial(
            mp.mpf(lam), [mp.mpf(c) for c in coeffs], mp.mpf(dg), mul, sub
        )
        while p[-1] == 0:
            p.pop()
        real = sorted(
            mp.re(r)
            for r in mp.polyroots(p[::-1], maxsteps=200, extraprec=200)
            if abs(mp.im(r)) < 1e-20 and -0.5 < mp.re(r) < 1.5
        )
        val = lambda c, x: sum(a * x**k for k, a in enumerate(c))
        genuine = [x for x in real if val(slope, x) * val(h, x) > 0]
        # both roots of a double root count once
        return len(genuine) - sum(b - a <= 1e-15 for a, b in zip(genuine, genuine[1:]))


def _adiabat(lam, dg, coeffs, q):
    """E_minus = M - sqrt(g) at q and level shift dg, and the sign of
    dE_minus/dq = M' - h/sqrt(g) there (that of M' sqrt(g) - h); arrays
    broadcast."""
    slope, v = lam * (2.0 * q - 1.0), npoly.polyval(q, coeffs)
    delta = slope - dg
    root_g = np.sqrt(0.25 * delta * delta + v * v)
    h = 0.5 * lam * delta + v * npoly.polyval(q, npoly.polyder(coeffs))
    mean = 0.5 * (lam * q * q + lam * (1.0 - q) ** 2 + dg)
    return mean - root_g, np.sign(slope * root_g - h)


@lru_cache(maxsize=16)
def _abc(lam, coeffs):
    """Rows A, B and C (ascending coefficients) of P = A + dg B + dg^2 C,
    from P at dg = -1, 0 and 1, less top coefficients that vanish for
    every dg."""
    p = [stationarity_polynomial(lam, coeffs, s, npoly.polymul, npoly.polysub)[0]
         for s in (-1.0, 0.0, 1.0)]
    p_m, p_0, p_p = (np.pad(x, (0, max(map(len, p)) - len(x))) for x in p)
    abc = np.array([p_0, 0.5 * (p_p - p_m), 0.5 * (p_p + p_m) - p_0])
    while abc.shape[1] > 2 and (np.abs(abc[:, -1]) <= 1e-14 * np.abs(abc).max()).all():
        abc = abc[:, :-1]
    return abc


def exact_barriers(lam, dg, coeffs):
    """Exact-adiabat barriers (e_star, single, q_r) at every level shift in
    dg, in the package's topology convention: the first two minima in the
    q window are the wells, the transition state is the highest maximum
    between them, and without one the surface is single (e_star 0; closed
    where q_r < 1/2). The candidates are the real parts of the roots of P
    (one stacked eigenvalue call) and the diabatic crossing where |V| <=
    KINK_V; a candidate is a minimum (maximum) where the sign of
    dE_minus/dq at the midpoints to its neighbours goes from - to + (+ to
    -), which unlike comparing E_minus resolves the two points meeting at
    a fold below its rounding. Raises ValueError with no minimum."""
    dg = np.atleast_1d(np.asarray(dg, dtype=float))
    c = np.asarray(coeffs, dtype=float)
    abc = _abc(lam, tuple(c))
    column = dg[:, None]
    p = abc[0] + column * (abc[1] + column * abc[2])
    d = p.shape[1] - 1
    companion = np.zeros((len(dg), d, d))
    companion[:, 1:, :-1] = np.eye(d - 1)
    companion[:, :, -1] = -p[:, :-1] / p[:, -1:]
    roots = np.linalg.eigvals(companion)
    crossing = 0.5 * (1.0 + column / lam)
    kink = np.abs(npoly.polyval(crossing, c)) <= KINK_V
    q = np.concatenate([roots.real, np.where(kink, crossing, Q_HI)], axis=1)
    q = np.where((Q_LO < q) & (q < Q_HI), q, Q_HI)
    q.sort(axis=1)
    # a double root (a complex pair's two equal real parts), or a root at
    # the kink, is one candidate
    q[:, 1:][np.diff(q, axis=1) <= 1e-12] = Q_HI
    q.sort(axis=1)
    ends = np.ones_like(column)
    grid = np.concatenate([Q_LO * ends, q, Q_HI * ends], axis=1)
    rising = _adiabat(lam, column, c, 0.5 * (grid[:, :-1] + grid[:, 1:]))[1]
    inside = q < Q_HI
    is_min = inside & (rising[:, :-1] < 0.0) & (rising[:, 1:] > 0.0)
    is_max = inside & (rising[:, :-1] > 0.0) & (rising[:, 1:] < 0.0)
    e = _adiabat(lam, column, c, q)[0]
    count = is_min.cumsum(axis=1)
    if not count[:, -1].all():
        raise ValueError("no minimum of the lower adiabat in the q window")
    rows = np.arange(len(dg))
    reactant = is_min.argmax(axis=1)
    e_ts = np.where(is_max & (count == 1) & (count[:, -1:] >= 2), e, -np.inf).max(axis=1)
    single = e_ts == -np.inf
    e_star = np.where(single, 0.0, np.maximum(e_ts - e[rows, reactant], 0.0))
    q_r = q[rows, reactant]
    # a single well next to q = 1/2 sits at a near-double root of P (at the
    # center shift 2 V V'/lam), whose eigenvalues are about 1e-8 off: the
    # well lies left of 1/2 where E_minus rises there, and right where it falls
    near = single & (np.abs(q_r - 0.5) <= 1e-6)
    if near.any():
        rises = _adiabat(lam, dg, c, 0.5)[1]
        side = 0.5 - rises * np.maximum(np.abs(q_r - 0.5), 1e-15)
        q_r = np.where(near & (rises != 0.0), side, q_r)
    return e_star, single, q_r


def topology_flag(lam, coeffs, dg):
    """Topology of the lower adiabat at level shift dg (a scalar, or an
    array for an array of flags): "closed" (a single reactant-side well),
    "downhill" (a single product-side well) or "barrier"."""
    _e, single, q_r = exact_barriers(lam, dg, coeffs)
    flag = np.where(single, np.where(q_r < 0.5, "closed", "downhill"), "barrier")
    return flag if np.ndim(dg) else str(flag[0])


def bisect(flag, a, b, tol=1e-13):
    """A bracket of width <= tol where flag changes, inside [a, b]."""
    fa = flag(a)
    assert flag(b) != fa
    while b - a > tol:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if flag(mid) == fa else (a, mid)
    return a, b


def flag_changes(lam, coeffs, lo, hi, n=4001, tol=1e-13):
    """Level shifts in [lo, hi] where ``topology_flag`` changes: a scan on
    n points, then bisection of every change at once, one array
    ``topology_flag`` call per halving. Each bracket halves until its own
    width is <= tol, so it ends where ``bisect`` would."""
    grid = np.linspace(lo, hi, n)
    flags = topology_flag(lam, coeffs, grid)
    changes = np.flatnonzero(flags[1:] != flags[:-1])
    a, b, fa = grid[changes], grid[changes + 1], flags[changes]
    while (wide := (b - a) > tol).any():
        mid = 0.5 * (a[wide] + b[wide])
        same = topology_flag(lam, coeffs, mid) == fa[wide]
        a[wide] = np.where(same, mid, a[wide])
        b[wide] = np.where(same, b[wide], mid)
    return list(0.5 * (a + b))


_leggauss = lru_cache(maxsize=4)(np.polynomial.legendre.leggauss)


def exact_rate(lam, coeffs, eta, T, rho=1.0, *, n=512):
    """EXACT_ADIABAT rate (1/s, prefactor kT/h) on the level-shift axis cut
    where ``topology_flag`` changes in eta +- W and at the kinks lam (2q - 1)
    at the real roots q of V. Closed pieces give 0, downhill ones the
    Fermi integral in closed form, and a barrier piece (lo, hi) n
    Gauss-Legendre nodes each side of the Fermi step under
    dg = lo + (hi - lo) sin^2(pi t / 2). Raises ValueError where a piece
    that carries rate is unbounded."""
    b = 1.0 / (K_B * T)
    w = 2.0 * lam + abs(eta) + 40.0 * K_B * T
    roots = npoly.polyroots(coeffs) if np.any(coeffs) else np.array([])
    q = roots.real[np.abs(roots.imag) <= 1e-12]
    q = q[(Q_LO <= q) & (q <= Q_HI)]
    cuts = flag_changes(lam, coeffs, eta - w, eta + w)
    cuts += [s for s in lam * (2.0 * q - 1.0) if eta - w < s < eta + w]
    edges = np.array([-np.inf, *sorted(cuts), np.inf])
    lo, hi = edges[:-1], edges[1:]
    probes = np.concatenate([[eta - w], 0.5 * (lo[1:-1] + hi[1:-1]), [eta + w]])
    kind = topology_flag(lam, coeffs, probes)
    if np.isinf(hi[kind != "closed"]).any() or np.isinf(lo[kind == "barrier"]).any():
        raise ValueError("a piece of the level-shift axis that carries rate is unbounded")
    down = kind == "downhill"
    # int fermi(eps) deps over eps = eta - dg in (eta - hi, eta - lo)
    total = np.sum(
        np.logaddexp(0.0, -b * (eta - hi[down])) - np.logaddexp(0.0, -b * (eta - lo[down]))
    ) / b
    barrier = kind == "barrier"
    if barrier.any():
        a, z = lo[barrier, None], hi[barrier, None]
        s = (eta - a) / (z - a)
        split = np.arcsin(np.sqrt(np.where((0.0 < s) & (s < 1.0), s, 0.5))) / (0.5 * np.pi)
        x, wx = _leggauss(n)
        u, half_w = 0.5 * (x + 1.0), 0.5 * wx
        t = np.concatenate([split * u, split + (1.0 - split) * u], axis=1)
        length = np.concatenate([split * half_w, (1.0 - split) * half_w], axis=1)
        sin = np.sin(0.5 * np.pi * t)
        dg = a + (z - a) * sin * sin
        weight = length * (z - a) * 0.5 * np.pi * np.sin(np.pi * t)
        e_star, single, q_r = exact_barriers(lam, dg.ravel(), coeffs)
        e_star = np.where(single & (q_r < 0.5), np.inf, e_star).reshape(dg.shape)
        total += np.sum(weight * np.exp(-np.logaddexp(0.0, b * (eta - dg)) - b * e_star))
    return (K_B * T / H) * rho * total
