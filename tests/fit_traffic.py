"""Objective traffic and accuracy of ``fit_lambda_eff`` on 300 Tafel lines.

Run directly (`PYTHONPATH=src python3 tests/fit_traffic.py`); takes a
few seconds. The lines are closed-form Tafel data drawn from one fixed seed
over lam_eff 0.06-9 eV, 200-400 K, 8-61 points and 0-0.2 dex of noise.
For each fit it prints:

- ``scan``: lam_eff candidates the scan evaluated, in its two objective
  calls (coarse, then fine) on the 200-point grid;
- ``calls``: objective calls after the scan, counted as calls of the
  closed-form model the fit builds (``closed_form_model``);
- ``evals``: closed-form rates evaluated by the whole fit;
- ``conv``: the ``converged`` flag;
- ``dlam``, ``drms``: lambda_eff and rms_residual less those of the
  scipy-Brent fit ``reference.fit_closed_form`` (NaN when unconverged).

A summary line closes the table. It also counts the scans that picked
the best point of the whole 200-point grid, as one objective call on the
grid picks it. The tool exits 1 when a fit counts fewer than the scan's
two objective calls (the counter counts nothing), when a scan misses the
best point of the whole grid, or when a scan evaluates more than
``MAX_SCAN`` candidates.
"""

import math
import sys

import numpy as np
from reference import closed_form_rms, fit_closed_form

import etkit.analysis
from etkit.rates import closed_form_model, closed_form_rates

N_DRAWS = 300
MAX_SCAN = 60


def draws(n=N_DRAWS, seed=2026):
    """(lam_eff, T, eta, y) of n noisy closed-form Tafel lines."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        lam = 10.0 ** rng.uniform(math.log10(0.06), math.log10(9.0))
        T = rng.uniform(200.0, 400.0)
        n_points = int(rng.integers(8, 62))
        eta = np.linspace(rng.uniform(-1.5, -0.2), rng.uniform(0.0, 0.8), n_points)
        noise = rng.choice([0.0, 0.01, 0.05, 0.2])
        y = (
            np.log10(closed_form_rates(lam, eta, T, 1.0))
            + 1.3
            + rng.normal(0.0, noise, n_points)
        )
        out.append((lam, T, eta, y))
    return out


def rms_residuals(k, y):
    # the objective of fit_lambda_eff on rates k, one row per candidate
    model = np.log10(k)
    s = np.mean(y - model, axis=-1)
    return np.sqrt(np.mean((model + s[..., None] - y) ** 2, axis=-1))


def best_of_grid(eta, y, T):
    """The best point of the whole 200-point grid, from one call."""
    grid = np.geomspace(0.05, 10.0, 200)
    k = closed_form_rates(grid[:, None], eta, T, 1.0)
    return grid[np.argmin(rms_residuals(k, y))]


def counting_model(calls):
    """A stand-in for ``closed_form_model`` whose models append the
    candidates and rates of each call, one objective call of
    ``fit_lambda_eff`` each, to calls."""
    def build(*args):
        rates = closed_form_model(*args)

        def counted(lam_eff):
            k = rates(lam_eff)
            calls.append((np.ravel(lam_eff), k))
            return k

        return counted

    return build


def traffic(eta, y, T):
    """fit_lambda_eff's result, candidates of the scan, objective calls
    after the scan, closed-form evaluations and the scan's best point."""
    calls = []
    etkit.analysis.closed_form_model = counting_model(calls)
    try:
        res = etkit.analysis.fit_lambda_eff(eta, y, T)
    finally:
        etkit.analysis.closed_form_model = closed_form_model
    if len(calls) < 2:
        return res, 0, len(calls) - 2, 0, math.nan
    lam = np.concatenate([c[0] for c in calls[:2]])
    k = np.concatenate([c[1] for c in calls[:2]])
    order = np.argsort(lam)
    best = lam[order][np.argmin(rms_residuals(k[order], y))]
    return (res, len(lam), len(calls) - 2, sum(c[1].size for c in calls),
            best)


def main():
    print(f"{'#':>3} {'lam':>7} {'T':>6} {'n':>3} {'scan':>4} {'calls':>5} "
          f"{'evals':>6} {'conv':>5} {'dlam':>10} {'drms':>10}")
    scans, calls, evals, dlams, drms = [], [], [], [], []
    unconverged = same = 0
    for i, (lam, T, eta, y) in enumerate(draws()):
        res, n_scan, c, e, best = traffic(eta, y, T)
        same += best == best_of_grid(eta, y, T)
        dl = dr = math.nan
        if res.converged:
            ref = fit_closed_form(eta, y, T)
            dl = res.lambda_eff - ref
            dr = res.rms_residual - closed_form_rms(ref, eta, y, T)
            dlams.append(abs(dl))
            drms.append(dr)
        else:
            unconverged += 1
        scans.append(n_scan)
        calls.append(c)
        evals.append(e)
        print(f"{i:3d} {lam:7.4f} {T:6.1f} {len(eta):3d} {n_scan:4d} {c:5d} "
              f"{e:6d} {str(res.converged):>5} {dl:10.2e} {dr:10.2e}")
    print(
        f"scan median {np.median(scans):g} max {max(scans)}; "
        f"best of grid {same} of {len(scans)}; "
        f"calls median {np.median(calls):g} max {max(calls)}; "
        f"evals median {np.median(evals):g}; unconverged {unconverged}; "
        f"|dlam| max {max(dlams):.2e}; drms max {max(drms):.2e}"
    )
    failures = []
    if min(calls) < 0:
        failures.append("a fit counted fewer than the scan's two objective calls")
    if same < len(scans):
        failures.append(f"{len(scans) - same} scans missed the best point of the grid")
    if max(scans) > MAX_SCAN:
        failures.append(f"a scan evaluated {max(scans)} > {MAX_SCAN} candidates")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
