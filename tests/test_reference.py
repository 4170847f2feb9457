"""Regressions of the etkit-free references in tests/reference.py."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from reference import (
    K_B,
    bisect,
    exact_rate,
    flag_changes,
    marcus_family_rate,
    topology_flag,
)


@pytest.mark.parametrize("lam, eta", [(4.0, -0.3), (2.0, -0.2)])
@pytest.mark.parametrize("v", [0.0, 1e-13])
def test_zero_coupling_exact_rate_is_the_marcus_rate(lam, eta, v):
    # the diabatic crossing is a kink of E_minus at |V| <= 1e-12 eV; an
    # exact rate without it as a candidate read 11.6% (lam 4) and 16.8%
    # (lam 2) below the Marcus route
    marcus = marcus_family_rate("marcus", lam, (v,), eta, 300.0, "adiabatic")
    assert exact_rate(lam, (v,), eta, 300.0) == pytest.approx(marcus, rel=1e-9, abs=0)


def test_exact_rate_meets_its_pin():
    # lam 4, const:0.5, 300 K, eta -0.3 V: the pin of
    # test_rates.py::TestNumericRate::test_exact_route_pinned
    assert exact_rate(4.0, (0.5,), -0.3, 300.0) == pytest.approx(
        36546.69099305575, rel=1e-12, abs=0
    )


def test_flag_changes_cut_where_scalar_bisection_does():
    # draw 157 of tests/exact_traffic.py: V changes sign inside the
    # window, which holds four topology changes
    lam, coeffs = 2.662623260827285, (0.7666324319134604, -0.7649304145935234)
    T, eta = 358.6988535935767, 0.5620783809514625
    w = 2.0 * lam + abs(eta) + 40.0 * K_B * T
    flag = lambda dg: topology_flag(lam, coeffs, dg)
    grid = np.linspace(eta - w, eta + w, 4001)
    flags = flag(grid)
    changes = np.flatnonzero(flags[1:] != flags[:-1])
    expected = [0.5 * sum(bisect(flag, grid[i], grid[i + 1])) for i in changes]
    assert len(expected) == 4
    assert flag_changes(lam, coeffs, eta - w, eta + w) == expected


def test_import_loads_neither_etkit_nor_perfbench_nor_tests():
    here = Path(__file__).resolve().parent
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import reference\n"
        "here = Path(reference.__file__).resolve().parent\n"
        "print(sorted(name for name, m in list(sys.modules.items())\n"
        "    if name.split('.')[0] in ('etkit', 'oracles', 'workloads')\n"
        "    or (name != 'reference' and getattr(m, '__file__', None)\n"
        "        and Path(m.__file__).resolve().parent == here)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=here, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
