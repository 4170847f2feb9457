"""Cost and accuracy of the exact route's rates (EXACT_ADIABAT).

Run directly (`PYTHONPATH=src python3 tests/exact_traffic.py`); takes
a few seconds on one core. Three parts:

- ``stages``: one warm rate (lam 4 eV, V = 0.1 + 0.4 q, eta -0.3 V,
  300 K) timed whole and by stage, best of 300 runs: the nodes and
  weights of the rule (``ExactAdiabat.rate_nodes`` less its
  ``seeded_barriers`` call), the seeds (``barriers._barycentric`` of
  ``2t - 1`` on the rate's own nodes), Newton's polish with its checks
  and E* (the rest of ``ExactAdiabat.seeded_barriers``) and the kernel
  (``rates._fermi_boltzmann`` and the sum); the four stages add up to
  the rate, less the downhill closed form and the call overhead.
- ``draws``: 300 rates from ``default_rng(2026)`` over lam U(0.5, 8) eV,
  T U(200, 400) K and eta U(-1.5, 1) V, the couplings taken in turn:
  constant U(0, 0.45) lam; linear, both coefficients U(-0.3, 0.3) lam;
  quadratic, all three U(-0.15, 0.15) lam. Each line gives the Newton
  steps of the seeded pieces (0 where none is seeded), the barrier
  pieces whose every node ``seeded_barriers`` accepts and those with a
  fallback node, the fallback nodes (the one ``barriers`` call of the
  rate), the largest |seed - root| in q over the nodes of the seeded
  pieces (the roots from ``barriers`` at the same level shifts; a node
  at a fold end where ``barriers`` finds no transition state is skipped,
  and NaN means no node is left), the relative gap to a reference file
  of rates (see below) and to ``reference.exact_rate``, which computes
  the rate without etkit: its own pieces, 2 x 512 Gauss-Legendre nodes
  on each barrier piece and its own barriers.
- ``kinks``: the same lines for 36 pairs whose coupling vanishes at a
  well, so that E_minus has a kink at dg = -lam or +lam that ends a
  barrier piece: lam 1, 2, 4 and 6 eV; a = 0.05, 0.2 and 0.5 eV;
  V = a q, a (1 - q) and a (1 - q)(1 - q/2); eta -0.3 V, 300 K.

``--save FILE`` writes the draws' rates as ``repr`` strings (the name of
the exception where a rate raises) and stops; it needs nothing but
``mhc_rate_numeric``, so it runs on an older checkout too
(``PYTHONPATH=<checkout>/src``). ``--against FILE`` reads such a file
for the ``gap`` column; without it the column is NaN. A summary closes
each part. Exits 1 if a draw or kink pair raises or is off the
reference by more than MAX_REFERENCE_ERROR relative, or if more than
MAX_FALLBACK of the draws' barrier pieces have a fallback node: a
seeding regression would only slow rates. The kink pairs' fallback
nodes are reported, not gated.
"""

import argparse
import json
import math
import sys
import timeit
from types import SimpleNamespace

import numpy as np

from reference import exact_rate

from etkit import barriers, rates
from etkit.barriers import ExactAdiabat, exact_adiabat
from etkit.constants import beta
from etkit.errors import SurfaceTopologyError
from etkit.model import DiabaticSystem, LinearCoupling, PolynomialCoupling

N_DRAWS = 300
REPEATS = 300
# the largest error of the draws is 1.4e-11, of the kink pairs 3.6e-13
MAX_REFERENCE_ERROR = 1e-8
# 2 of the draws' 363 barrier pieces have fallback nodes
MAX_FALLBACK = 0.01


def draws(n=N_DRAWS, seed=2026):
    """(label, lam, coupling, T, eta) of n exact-route rates."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        lam = rng.uniform(0.5, 8.0)
        T = rng.uniform(200.0, 400.0)
        eta = rng.uniform(-1.5, 1.0)
        if i % 3 == 0:
            coeffs = (rng.uniform(0.0, 0.45) * lam,)
        elif i % 3 == 1:
            coeffs = tuple(rng.uniform(-0.3, 0.3, 2) * lam)
        else:
            coeffs = tuple(rng.uniform(-0.15, 0.15, 3) * lam)
        label = (f"lam={lam:.4g} V=" + ",".join(f"{c:.4g}" for c in coeffs)
                 + f" T={T:.1f} eta={eta:.4f}")
        out.append((label, lam, PolynomialCoupling(coeffs), T, eta))
    return out


def kink_pairs():
    """(label, lam, coupling, T, eta) of the 36 kink pairs."""
    out = []
    for lam in (1.0, 2.0, 4.0, 6.0):
        for a in (0.05, 0.2, 0.5):
            for shape, coeffs in (
                ("q", (0.0, a)), ("(1-q)", (a, -a)), ("(1-q)(1-q/2)", (a, -1.5 * a, 0.5 * a)),
            ):
                label = f"lam={lam:g} V={a:g}{shape} T=300.0 eta=-0.3000"
                out.append((label, lam, PolynomialCoupling(coeffs), 300.0, -0.3))
    return out


def rate(lam, coupling, T, eta):
    return rates.mhc_rate_numeric(
        rates.RateRequest(
            DiabaticSystem(lam, 0.0), coupling, rates.ElectrodeConditions(T, eta),
            barriers.BarrierMethod.EXACT_ADIABAT,
        )
    )


def saved_rate(lam, coupling, T, eta):
    try:
        return repr(rate(lam, coupling, T, eta))
    except Exception as exc:  # noqa: BLE001 - recorded by name
        return type(exc).__name__


class Traffic:
    """Newton steps, barrier pieces, pieces and nodes that fall back, and
    the largest seed error of one warm rate (the pair's seeds, built on
    its first rate, take Newton steps of their own in ``extrema``)."""

    def __init__(self, lam, coupling, T, eta):
        rate(lam, coupling, T, eta)
        self.steps = self.pieces = self.fallback = self.nodes = 0
        self.seed_error = math.nan
        newton_step, seeded_barriers = ExactAdiabat._newton_step, ExactAdiabat.seeded_barriers

        def counted_step(adiabat, q, dg):
            self.steps += 1
            return newton_step(adiabat, q, dg)

        def counted(adiabat, t, dg):
            ExactAdiabat._newton_step = counted_step
            try:
                e_star, ok = seeded_barriers(adiabat, t, dg)
            finally:
                ExactAdiabat._newton_step = newton_step
            self.pieces += len(ok)
            self.fallback += int((~ok).any(axis=1).sum())
            self.nodes += int((~ok).sum())
            seeded = adiabat.rule.seeded
            if seeded.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    seed = barriers._barycentric(
                        2.0 * t[seeded] - 1.0, adiabat.rule.samples[seeded]
                    )
                _e, q_ts, q_r, single = adiabat.barriers(dg[seeded].ravel())
                # (pieces, 2, nodes) against one (q_r, q_ts) row per node
                seed = seed.transpose(0, 2, 1).reshape(-1, 2)
                error = np.abs(seed - np.stack([q_r, q_ts], axis=1))[~single]
                self.seed_error = np.fmax.reduce(error, axis=None, initial=self.seed_error)
            return e_star, ok

        ExactAdiabat.seeded_barriers = counted
        try:
            self.rate = rate(lam, coupling, T, eta)
        finally:
            ExactAdiabat.seeded_barriers = seeded_barriers


def best_us(f):
    return 1e6 * min(timeit.repeat(f, number=1, repeat=REPEATS))


def seeded_arguments(adiabat, eta):
    """The (t, dg) that ``adiabat.rate_nodes(eta)`` passes to
    ``seeded_barriers``, one row per barrier piece."""
    seen = []
    seeded_barriers = ExactAdiabat.seeded_barriers

    def recorded(adiabat, t, dg):
        seen.append((t, dg))
        return seeded_barriers(adiabat, t, dg)

    ExactAdiabat.seeded_barriers = recorded
    try:
        adiabat.rate_nodes(eta)
    finally:
        ExactAdiabat.seeded_barriers = seeded_barriers
    return seen[0]


def stages():
    lam, coupling, T, eta = 4.0, LinearCoupling(0.1, 0.5), 300.0, -0.3
    adiabat = exact_adiabat(lam, coupling)
    rate(lam, coupling, T, eta)  # warm: pieces and rule
    b = beta(T)
    t, dg = seeded_arguments(adiabat, eta)
    nodes, weight, e_star = adiabat.rate_nodes(eta)
    samples = adiabat.rule.samples
    times = {
        "rate": best_us(lambda: rate(lam, coupling, T, eta)),
        "rate_nodes": best_us(lambda: adiabat.rate_nodes(eta)),
        "seeds": best_us(lambda: barriers._barycentric(2.0 * t - 1.0, samples)),
        "seeded_barriers": best_us(lambda: adiabat.seeded_barriers(t, dg)),
        "kernel": best_us(
            lambda: np.sum(weight * rates._fermi_boltzmann(b, eta - nodes, e_star))
        ),
    }
    times["nodes"] = times["rate_nodes"] - times["seeded_barriers"]
    times["polish"] = times["seeded_barriers"] - times["seeds"]
    print("== stages: lam 4, V = 0.1 + 0.4 q, eta -0.3, 300 K; best of "
          f"{REPEATS}, microseconds")
    for name in ("rate", "nodes", "seeds", "polish", "kernel"):
        print(f"{name:>8} {times[name]:8.1f}")


def report(cases, against=None):
    """One line per case of (label, lam, coupling, T, eta), then a summary;
    returns the tallies."""
    print(f"{'#':>3} {'steps':>5} {'seed':>4} {'fall':>4} {'nodes':>5} {'seed_err':>9} "
          f"{'gap':>9} {'ref_err':>9}  rate")
    got = SimpleNamespace(raised=0, pieces=0, fallback=0, nodes=0, errors=[])
    gaps, steps, seed_errors = [], [], []
    for i, (label, lam, coupling, T, eta) in enumerate(cases):
        gap = err = math.nan
        try:
            one = Traffic(lam, coupling, T, eta)
        except SurfaceTopologyError:
            got.raised += 1
            print(f"{i:3d} {'-':>5} {'-':>4} {'-':>4} {'-':>5} {'-':>9} {gap:9.2e} "
                  f"{err:9.2e}  {label} [raises]")
            continue
        if against is not None and against[i][0].isdigit():  # not an exception's name
            other = float(against[i])
            gap = 0.0 if one.rate == other else abs(one.rate - other) / abs(other)
        ref = exact_rate(lam, coupling.coeffs, eta, T)
        err = abs(one.rate - ref) / abs(ref)
        got.pieces += one.pieces
        got.fallback += one.fallback
        got.nodes += one.nodes
        if one.steps:  # a piece is seeded
            steps.append(one.steps)
        seed_errors.append(one.seed_error)
        gaps.append(gap)
        got.errors.append(err)
        print(f"{i:3d} {one.steps:5d} {one.pieces - one.fallback:4d} {one.fallback:4d} "
              f"{one.nodes:5d} {one.seed_error:9.2e} {gap:9.2e} {err:9.2e}  {label}")
    counts = np.bincount(steps)
    print(
        f"{len(cases)} rates, {got.raised} raise; barrier pieces {got.pieces}, "
        f"{got.fallback} with fallback nodes; fallback nodes {got.nodes}; Newton steps "
        "per seeded rate " + ", ".join(f"{k}: {v}" for k, v in enumerate(counts) if v)
        + f"; max |seed - root| {np.fmax.reduce(seed_errors, initial=math.nan):.2e}"
        + (f"; max gap {np.nanmax([0.0, *gaps]):.2e}" if against is not None else "")
        + f"; error vs reference.exact_rate median {np.median(got.errors):.2e} "
        f"max {max(got.errors):.2e}"
    )
    got.bad = sum(not err <= MAX_REFERENCE_ERROR for err in got.errors)
    return got


def check_draws(against):
    print(f"== draws: {N_DRAWS} rates")
    got = report(draws(), against)
    falls_back = got.fallback > MAX_FALLBACK * got.pieces
    if got.raised or got.bad or falls_back:
        print(f"FAILED: {got.raised} draws raise, {got.bad} are off the reference by "
              f"more than {MAX_REFERENCE_ERROR:g}, {got.fallback} of {got.pieces} "
              f"barrier pieces have fallback nodes (at most {MAX_FALLBACK:.0%})")
    return not (got.raised or got.bad or falls_back)


def check_kinks():
    pairs = kink_pairs()
    print(f"== kinks: {len(pairs)} pairs whose coupling vanishes at a well")
    got = report(pairs)
    if got.raised or got.bad:
        print(f"FAILED: {got.raised} kink pairs raise, {got.bad} are off the reference "
              f"by more than {MAX_REFERENCE_ERROR:g}")
    return not (got.raised or got.bad)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--save", help="write the draws' rates here and stop")
    p.add_argument("--against", help="rates written by --save, for the gap column")
    args = p.parse_args()
    if args.save:
        saved = [saved_rate(*draw[1:]) for draw in draws()]
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=0)
        return
    against = None
    if args.against:
        with open(args.against) as f:
            against = json.load(f)
    stages()
    ok = check_draws(against)
    return 0 if check_kinks() and ok else 1


if __name__ == "__main__":
    sys.exit(main())
