"""Self-check of the benchmark code. From the repository root:

    python3 perfbench/selfcheck.py

1. run.py and workloads.py name the same workloads, and hooks install
   and uninstall cleanly: inside ``Tracer.installed()``
   every hooked attribute is a wrapper and one operation of each
   workload records spans under every hook; afterwards, and after an
   exception inside the block, every attribute is the original again.
2. The metric names and units the runner prints match BENCHMARK.json,
   with ``--trace 0`` and ``--trace 1``.
3. In a directory that holds only BENCHMARK.json and the benchmark's
   files, the runner exits non-zero without printing a result.

Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# every span name one operation of each workload must produce
EXPECTED_SPANS = {
    "model.lower_adiabat", "barriers.exact", "numerics.brackets",
    "numerics.brent", "numerics.integrate", "numerics.erfc",
    "rates.integrand", "rates.numeric", "rates.closed_form",
    "rates.extract_coupling", "analysis.sweep", "analysis.fit",
    "tables.to_csv", "tables.from_csv",
}


def check_hooks():
    problems = []
    if run.WORKLOADS != workloads.WORKLOADS:
        problems.append(f"run.py lists {run.WORKLOADS}, workloads.py {workloads.WORKLOADS}")
    t = tracer.Tracer()
    t.assert_pristine()
    with t.installed():
        for owner, attr in t.hooked():
            obj = owner.__dict__[attr]
            if not hasattr(getattr(obj, "__func__", obj), "__wrapped__"):
                problems.append(f"{owner.__name__}.{attr} not wrapped")
        for name in workloads.WORKLOADS:
            workloads.build(name, 0)[0].run()
    missing = EXPECTED_SPANS - set(t.names)
    if missing:
        problems.append(f"no spans recorded for {sorted(missing)}")
    t.assert_pristine()
    try:
        with t.installed():
            raise KeyError("inside the hooked block")
    except KeyError:
        pass
    t.assert_pristine()
    return problems


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", "rate_quadrature", "--seed", "0",
                     "--seconds", "1", "--trace", str(trace)], ROOT)
        if proc.returncode != 0:
            return [f"--trace {trace} exited {proc.returncode}: {proc.stderr}"]
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"--trace {trace}: result keys {sorted(res)}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        if got != want:
            problems.append(f"--trace {trace}: printed {got}, BENCHMARK.json {want}")
        for name in want:
            if f"  {name} " not in proc.stdout:
                problems.append(f"--trace {trace}: {name} not printed by name")
    return problems


def check_bare_directory():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "barrier_map", "--seed", "0",
                     "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    ok = True
    for check in (check_hooks, check_metric_names, check_bare_directory):
        problems = check()
        ok = ok and not problems
        print(f"{'PASS' if not problems else 'FAIL'} {check.__name__}")
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
