"""Objective traffic and accuracy of ``fit_lambda_eff`` on 300 Tafel lines.

Run directly (`PYTHONPATH=src python3 tests/fit_traffic.py`); takes about
a minute. The lines are closed-form Tafel data drawn from one fixed seed
over lam_eff 0.06-9 eV, 200-400 K, 8-61 points and 0-0.2 dex of noise.
For each fit it prints:

- ``calls``: objective calls after the 200-point scan, counted as
  ``closed_form_rates`` calls;
- ``evals``: closed-form rates evaluated by the whole fit;
- ``conv``: the ``converged`` flag;
- ``dlam``, ``drms``: lambda_eff and rms_residual less those of the
  scipy-Brent fit ``pin_oracles.fit_closed_form`` (NaN when unconverged).

A summary line closes the table.
"""

import math

import numpy as np
from pin_oracles import fit_closed_form, log10_closed_form

import etkit.analysis
from etkit.rates import closed_form_rates

N_DRAWS = 300


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


def oracle_rms(lam_eff, eta, y, T):
    r = log10_closed_form(lam_eff, eta, T) - y
    return float(np.sqrt(np.mean((r - r.mean()) ** 2)))


def traffic(eta, y, T):
    """fit_lambda_eff's result, objective calls after the scan, and
    closed-form evaluations."""
    sizes = []

    def counted(*args):
        k = closed_form_rates(*args)
        sizes.append(k.size)
        return k

    etkit.analysis.closed_form_rates = counted
    try:
        res = etkit.analysis.fit_lambda_eff(eta, y, T)
    finally:
        etkit.analysis.closed_form_rates = closed_form_rates
    return res, len(sizes) - 1, sum(sizes)


def main():
    print(f"{'#':>3} {'lam':>7} {'T':>6} {'n':>3} {'calls':>5} {'evals':>6} "
          f"{'conv':>5} {'dlam':>10} {'drms':>10}")
    calls, evals, dlams, drms, unconverged = [], [], [], [], 0
    for i, (lam, T, eta, y) in enumerate(draws()):
        res, c, e = traffic(eta, y, T)
        dl = dr = math.nan
        if res.converged:
            ref = fit_closed_form(eta, y, T)
            dl = res.lambda_eff - ref
            dr = res.rms_residual - oracle_rms(ref, eta, y, T)
            dlams.append(abs(dl))
            drms.append(dr)
        else:
            unconverged += 1
        calls.append(c)
        evals.append(e)
        print(f"{i:3d} {lam:7.4f} {T:6.1f} {len(eta):3d} {c:5d} {e:6d} "
              f"{str(res.converged):>5} {dl:10.2e} {dr:10.2e}")
    print(
        f"calls median {np.median(calls):g} max {max(calls)}; "
        f"evals median {np.median(evals):g}; unconverged {unconverged}; "
        f"|dlam| max {max(dlams):.2e}; drms max {max(drms):.2e}"
    )


if __name__ == "__main__":
    main()
