"""etkit benchmark runner.

From the repository root:

    python3 perfbench/run.py --workload tafel_exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One single-threaded process imports etkit from ``src/``, builds the
workload's operation list from the seed and repeats it for at least
``--seconds`` seconds (and at least MIN_SAMPLES operations). With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
measured with every etkit function in its original state; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. Outputs are checked against independent references
after the timed passes. Every metric is printed by name with its unit;
the last line of standard output is the JSON result.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("tafel_exact", "rate_quadrature", "barrier_map", "tafel_fit")
# BLAS/OpenMP pools stay at one thread: the benchmark is single-threaded
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 11
# Time on this kind of shared machine drifts by up to half over minutes
# while the work stays the same. Every measured interval is bracketed by
# a fixed calibration computation, and reported times are scaled to the
# speed at which it takes CALIBRATION_REF_S; the record keeps raw times.
CALIBRATION_REF_S = 0.002
CALIBRATE_EVERY_S = 0.05
# at least ten executions beyond the 90th percentile
MIN_SAMPLES = 100

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


@dataclass(frozen=True)
class _Level:
    lam: float
    dg: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(self.lam)


def _barrier(level, v):
    return (level.lam + level.dg) ** 2 / (4.0 * level.lam) - math.sqrt(v * v + 0.01)


def _series(x):
    # a Maclaurin series summed to convergence, as scalar special
    # functions and Brent's iteration run: a tight loop of float updates
    term = total = x
    n = 0
    while abs(term) > 1e-17 * abs(total):
        n += 1
        term *= -x * x / n
        total += term / (2 * n + 1)
    return total


def _calibration():
    # a fixed computation in the style of etkit's hot loops: frozen
    # dataclass copies and small calls, plain float arithmetic, series
    # loops and, now and then, a numpy expression over a 2001-point grid
    import numpy as np

    x = np.linspace(-0.5, 1.5, 2001)
    s = 0.0
    base = _Level(4.0, 0.0)
    for i in range(400):
        level = replace(base, dg=1e-3 * i)
        s += _barrier(level, 0.5) + math.exp(-1e-9 * s)
        for k in range(4):
            q = 0.37 + 1e-4 * (4 * i + k)
            s += math.sqrt((q * q - (1.0 - q) ** 2) ** 2 + 0.25)
        if i % 8 == 0:
            s += _series(0.3 + 1e-3 * i)
        if i % 16 == 0:
            s += float(np.min(np.sqrt((x * x - (1.0 - x) ** 2) ** 2 + 0.25)))
    return s


def _calibrate():
    t = time.perf_counter()
    _calibration()
    return time.perf_counter() - t


def _scale(c_before, c_after):
    """Factor that takes a time measured between two calibrations to the
    reference speed."""
    return CALIBRATION_REF_S / (0.5 * (c_before + c_after))


def _setup_time(workload, seed):
    """Median wall time of fresh interpreters that import etkit and build
    the inputs, scaled by the median of calibrations run between them.
    The first interpreter, which may compile byte code, is not kept."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           workload, str(seed)]
    times, calibrations = [], [_calibrate()]
    for _ in range(SETUP_REPEATS + 1):
        t = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
        calibrations.append(_calibrate())
    raw = statistics.median(times[1:])
    return raw * CALIBRATION_REF_S / statistics.median(calibrations), raw


@dataclass
class Pass:
    wall: float
    scaled_wall: float
    lat: list
    scaled_lat: list
    outs: list


def _pass(ops, tracer=None):
    """Run every operation once.

    A calibration runs before the pass and after every operation that
    ends CALIBRATE_EVERY_S or more after the previous one; the times of
    the operations in between are scaled by the mean of the two.
    Calibrations lie outside every measured interval.
    """
    n = len(ops)
    outs = [None] * n
    lat = [0.0] * n
    scaled_lat = [0.0] * n
    wall = scaled_wall = 0.0
    clock = time.perf_counter
    c_prev = _calibrate()
    first = 0
    seg_start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        t = clock()
        try:
            outs[i] = op.run()
        except Exception as exc:  # a raising operation is a failed one
            outs[i] = exc
        end = clock()
        lat[i] = end - t
        if end - seg_start >= CALIBRATE_EVERY_S or i == n - 1:
            c = _calibrate()
            f = _scale(c_prev, c)
            for j in range(first, i + 1):
                scaled_lat[j] = f * lat[j]
            wall += end - seg_start
            scaled_wall += f * (end - seg_start)
            c_prev, first = c, i + 1
            seg_start = clock()
    return Pass(wall, scaled_wall, lat, scaled_lat, outs)


class Outcomes:
    """What every operation returned over all passes."""

    def __init__(self, n):
        self.first = [None] * n
        self.fingerprint = [None] * n
        self.unstable = [False] * n
        self.executed = [0] * n
        self.flagged = [None] * n

    def flag(self, i, reason):
        """Count operation i as failed although its output may be right."""
        self.flagged[i] = reason

    def add(self, outs):
        for i, out in enumerate(outs):
            self.executed[i] += 1
            fp = (
                f"raised {type(out).__name__}: {out}"
                if isinstance(out, Exception) else repr(out)
            )
            if self.fingerprint[i] is None:
                self.first[i], self.fingerprint[i] = out, fp
            elif fp != self.fingerprint[i]:
                self.unstable[i] = True

    def judge(self, ops):
        """(failure reason or None, wrong output?) per operation."""
        verdicts = []
        for op, out, fp, unstable, flagged in zip(
            ops, self.first, self.fingerprint, self.unstable, self.flagged
        ):
            if unstable:
                verdicts.append(("output differs between passes", True))
            elif isinstance(out, Exception):
                verdicts.append((fp, False))
            else:
                miss = op.check(out)
                verdicts.append((miss or flagged, miss is not None))
        return verdicts


def _quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics. It follows a few neighbouring operations
    instead of the one or two at rank p(n+1), so one operation's timing
    noise moves it less."""
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x))


def _per_op(passes, key):
    """Each operation's median latency over the passes. Percentiles are
    taken over these: a percentile of single executions would follow how
    much the machine's speed jittered during the run rather than which
    operations are slow."""
    return [statistics.median(lat) for lat in zip(*(getattr(p, key) for p in passes))]


def _end_to_end(setup, passes):
    """End-to-end metrics from scaled times, the same from raw times, and
    the number of executions beyond the 90th percentile. ``setup`` is
    (scaled, raw) from _setup_time."""
    lat = _per_op(passes, "scaled_lat")
    raw_lat = _per_op(passes, "lat")
    p90 = _quantile(lat, 0.9)
    scaled = {
        "setup_s": setup[0],
        "wall_s": statistics.median(p.scaled_wall for p in passes),
        "op_p50_ms": 1e3 * _quantile(lat, 0.5),
        "op_p90_ms": 1e3 * p90,
    }
    raw = {
        "setup_s": setup[1],
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": 1e3 * _quantile(raw_lat, 0.5),
        "op_p90_ms": 1e3 * _quantile(raw_lat, 0.9),
    }
    return scaled, raw, len(passes) * sum(x > p90 for x in lat)


def run_workload(name, seed, seconds, trace):
    import tracer as tracing
    import workloads

    setup = None if trace else _setup_time(name, seed)
    ops = workloads.build(name, seed)
    tracer = tracing.Tracer()
    tracer.assert_pristine()
    _pass(ops[:1])  # warm-up: first-call costs are not measured

    outcomes = Outcomes(len(ops))
    passes, traced, summaries = [], [], []
    began = time.perf_counter()
    while True:
        tracer.assert_pristine()
        passes.append(_pass(ops))
        outcomes.add(passes[-1].outs)
        if trace:
            tracer.reset()
            with tracer.installed():
                traced.append(_pass(ops, tracer))
            tracer.assert_pristine()
            summaries.append(tracer.summary(traced[-1].wall))
            outcomes.add(traced[-1].outs)
            for i in tracer.unconverged_ops:
                outcomes.flag(i, "a Brent refinement did not converge")
        for p in passes[-1:] + traced[-1:]:
            p.outs = None  # checked via Outcomes; do not keep them
        enough = trace or len(passes) * len(ops) >= MIN_SAMPLES
        if time.perf_counter() - began >= seconds and enough:
            break
    measured_s = time.perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = outcomes.judge(ops)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "calibration_ref_s": CALIBRATION_REF_S,
        "ops_per_pass": len(ops),
        "untraced_passes": len(passes),
        "traced_passes": len(traced),
        "latency_samples": len(passes) * len(ops),
        "executions": sum(outcomes.executed),
        "failed_executions": sum(
            n for n, (why, _) in zip(outcomes.executed, verdicts) if why
        ),
        "setup_samples": 0 if trace else SETUP_REPEATS,
        "cpu": sorted(os.sched_getaffinity(0)),
        "measured_s": measured_s,
    }
    if trace:
        metrics, record["counts_repeat_across_traced_passes"] = tracing.combine(
            summaries,
            statistics.median(p.scaled_wall for p in traced)
            / statistics.median(p.scaled_wall for p in passes) - 1.0,
        )
        units = tracing.METRICS
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.npz")
    else:
        metrics, record["unscaled"], record["samples_beyond_p90"] = _end_to_end(
            setup, passes
        )
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END
    return {
        "correct": not any(wrong for _, wrong in verdicts),
        # distinct operations, not executions: how many passes fit in
        # --seconds varies from run to run, the operation list does not
        "attempted": len(ops),
        "failed": sum(1 for why, _ in verdicts if why),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "failures": [(op.label, why) for op, (why, _) in zip(ops, verdicts) if why],
        "record": record,
    }


def _report(res):
    rec = res["record"]
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
          f"{rec['ops_per_pass']} operations per pass, "
          f"{rec['untraced_passes']} untraced and {rec['traced_passes']} traced passes")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'failed_frac':32s} {frac:>16.6g} 1  "
          f"({res['failed']} of {res['attempted']} operations; "
          f"{res['record']['failed_executions']} of "
          f"{res['record']['executions']} executions)")
    print(f"  correct (no output missed its reference): {res['correct']}")
    for label, why in res["failures"]:
        print(f"  FAILED {label}: {why}")
    print("  record: " + json.dumps(rec))


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "etkit" / "__init__.py").is_file():
        print(f"perfbench: no etkit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # one CPU for the whole run, so that each calibration runs where the
    # work it scales runs; set-up interpreters inherit it
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import etkit

    if Path(etkit.__file__).resolve().parent != SRC / "etkit":
        print(f"perfbench: etkit imported from {etkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        _report(results[name])
    if len(names) == 1:
        res = results[names[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()
            },
        }
    OUT.mkdir(exist_ok=True)
    for name, res in results.items():
        path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
