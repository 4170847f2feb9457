"""Command-line front end.

Subcommands: surface, barrier, sweep, tafel, arrhenius, fit, extract-v.
Option precedence is built-in defaults < JSON config file (--config) <
command-line flags; config keys mirror flag names with dashes replaced by
underscores. A config key of another subcommand is allowed, so one file can
serve several; a key of none is rejected. Each subcommand returns a
SweepTable and a status; ``main`` writes the table's CSV to stdout or --out
and its warnings to stderr, and decides the exit code.

Exit codes: 0 success (including partial success with warnings), 2 usage
or domain error (an unknown config key or an unwritable --out among them),
3 model error under --strict, 4 fit non-convergence.
"""

import argparse
import json
import sys as _sys

from .analysis import (
    SweepSpec,
    SweepVariable,
    arrhenius_sweep,
    barrier_sweep,
    fit_lambda_eff,
    tafel_sweep,
)
from .barriers import BarrierMethod, barrier
from .errors import EtkitError
from .model import (
    SCAN_Q_HI,
    SCAN_Q_LO,
    ConstantCoupling,
    DiabaticSystem,
    LinearCoupling,
    PolynomialCoupling,
    surface_table,
)
from .rates import ElectrodeConditions, extract_coupling
from .tables import SweepTable


class UsageError(Exception):
    pass


def parse_coupling(spec):
    """Parse 'const:V' | 'linear:V0,V1' | 'poly:c0,c1,...'."""
    try:
        kind, _, rest = spec.partition(":")
        values = [float(p) for p in rest.split(",")] if rest else []
        if kind == "const" and len(values) == 1:
            return ConstantCoupling(values[0])
        if kind == "linear" and len(values) == 2:
            return LinearCoupling(values[0], values[1])
        if kind == "poly" and len(values) >= 1:
            return PolynomialCoupling(tuple(values))
    except ValueError:
        pass
    raise UsageError(
        f"malformed coupling spec {spec!r}; expected const:V, "
        "linear:V0,V1 or poly:c0,c1,..."
    )


def _parse_methods(name):
    if name == "all":
        return tuple(BarrierMethod)
    try:
        return (BarrierMethod(name),)
    except ValueError:
        raise UsageError(
            f"unknown method {name!r}; expected all, marcus, shift, eff or exact"
        ) from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="etkit",
        description=(
            "Activation barriers and heterogeneous rate constants for "
            "strongly coupled two-state electron transfer."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file", default=None)
    common.add_argument("--out", help="write output to this file", default=None)
    common.add_argument("--strict", action="store_true")
    common.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
        for flag, typ, _default in options:
            p.add_argument(flag, type=typ)
    return parser


def _key(flag):
    """The config key and argparse dest of a flag: --eta-from -> eta_from."""
    return flag[2:].replace("-", "_")


def _config_value(key, typ, value):
    """A config file's value as its flag's type: a boolean is no number,
    and a number with a fraction (or an infinite one) is no int, though
    typ() would map them to one."""
    valid = typ is str or not isinstance(value, bool)
    if typ is int and isinstance(value, float):
        valid = value.is_integer()
    if valid:
        try:
            return typ(value)
        except (TypeError, ValueError):
            pass
    raise UsageError(f"config key {key!r} has invalid value {value!r}")


def _read_config(path):
    """The flat JSON object in path. Its keys may belong to any subcommand,
    so one file can serve several; a key of none is a typo."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    if not isinstance(config, dict):
        raise UsageError("config must be a flat JSON object")
    known = {_key(o[0]) for _c, _h, opts in _COMMANDS.values() for o in opts}
    unknown = [key for key in config if key not in known]
    if unknown:
        raise UsageError(
            "unknown config keys: " + ", ".join(map(repr, unknown))
        )
    return config


def _merge_options(args):
    """defaults < config file < flags, with aggregated validation."""
    options = _COMMANDS[args.command][2]
    config = {} if args.config is None else _read_config(args.config)
    merged = {}
    for flag, typ, default in options:
        key = _key(flag)
        if key in config:
            default = _config_value(key, typ, config[key])
        value = getattr(args, key)
        merged[key] = default if value is None else value
    missing = [flag for flag, *_ in options if merged[_key(flag)] is None]
    if missing:
        raise UsageError("missing required options: " + ", ".join(missing))
    return merged


def _finish(table, status, args):
    """Write the table's CSV to --out or stdout and its warnings to stderr
    (unless --quiet); the exit code is 3 under --strict when there are
    warnings, otherwise the subcommand's status."""
    text = table.to_csv()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(
                f"cannot write output {args.out!r}: {exc.strerror}"
            ) from None
    else:
        _sys.stdout.write(text)
    if not args.quiet:
        for line in table.warnings:
            print(f"warning: {line}", file=_sys.stderr)
    return 3 if table.warnings and args.strict else status


def _cmd_surface(opt):
    sys_ = DiabaticSystem(opt["lambda"], opt["dg"])
    c = parse_coupling(opt["coupling"])
    return surface_table(sys_, c, opt["qmin"], opt["qmax"], opt["n"]), 0


def _cmd_barrier(opt):
    sys_ = DiabaticSystem(opt["lambda"], opt["dg"])
    c = parse_coupling(opt["coupling"])
    table = SweepTable(
        ["method", "E_star_eV", "q_ts", "q_r", "lambda_used_eV", "activationless"],
        [],
    )
    for m in _parse_methods(opt["method"]):
        try:
            res = barrier(sys_, c, m)
        except EtkitError as exc:
            table.warnings.append(f"{m.value}: {exc}")
            table.rows.append([m.value] + [float("nan")] * 5)
        else:
            table.rows.append([
                m.value, res.e_star, res.q_ts, res.q_r, res.lambda_used,
                "true" if res.activationless else "false",
            ])
    return table, 0


def _run_sweep(run, opt, variable, start, stop, dg=0.0, conditions=None):
    """Run sweep, tafel or arrhenius on its SweepSpec; conditions is the
    (temperature, eta) pair of a rate sweep, whose rho is --rho."""
    spec = SweepSpec(
        variable, start, stop, opt["n"], DiabaticSystem(opt["lambda"], dg),
        parse_coupling(opt["coupling"]), _parse_methods(opt["method"]),
        conditions and ElectrodeConditions(*conditions, opt["rho"]),
    )
    return run(spec), 0


_SWEEP_X = {"dg": SweepVariable.DG0, "v": SweepVariable.COUPLING_SCALAR,
            "lambda": SweepVariable.LAMBDA}


def _cmd_sweep(opt):
    if opt["x"] not in _SWEEP_X:
        raise UsageError(
            f"unknown sweep variable {opt['x']!r}; expected dg, v or lambda"
        )
    return _run_sweep(
        barrier_sweep, opt, _SWEEP_X[opt["x"]], opt["from"], opt["to"],
        opt["dg"],
    )


def _cmd_tafel(opt):
    return _run_sweep(
        tafel_sweep, opt, SweepVariable.ETA_F, opt["eta_from"],
        opt["eta_to"], conditions=(opt["temp"], 0.0),
    )


def _cmd_arrhenius(opt):
    if not (opt["tmin"] > 0 and opt["tmax"] > opt["tmin"]):
        raise UsageError("need 0 < tmin < tmax")
    return _run_sweep(
        arrhenius_sweep, opt, SweepVariable.INV_TEMPERATURE,
        1.0 / opt["tmax"], 1.0 / opt["tmin"], conditions=(300.0, opt["eta"]),
    )


def _cmd_fit(opt):
    try:
        with open(opt["input"]) as fh:
            table = SweepTable.from_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read input {opt['input']!r}: {exc}")
    if "eta_f_V" not in table.columns:
        raise UsageError("input is missing an eta_f_V column")
    ycol = opt["ycol"]
    if not ycol:
        candidates = [c for c in table.columns if c.startswith("log10k_")]
        if len(candidates) != 1:
            raise UsageError(
                "input must have exactly one log10k_* column, or pass --ycol"
            )
        ycol = candidates[0]
    elif ycol not in table.columns:
        raise UsageError(f"input has no column {ycol!r}")
    eta, y = table.column("eta_f_V"), table.column(ycol)
    try:
        fit = fit_lambda_eff(eta, y, opt["temp"], opt["rho"])
    except ValueError as exc:
        raise UsageError(str(exc))
    return SweepTable(
        ["lambda_eff_eV", "log10_scale", "rms_residual_dex", "n_points",
         "converged"],
        [[fit.lambda_eff, fit.log10_scale, fit.rms_residual, fit.n_points,
          "true" if fit.converged else "false"]],
    ), 0 if fit.converged else 4


def _cmd_extract_v(opt):
    try:
        v = extract_coupling(opt["lambda"], opt["lambda_eff"])
    except ValueError as exc:
        raise UsageError(str(exc))
    return SweepTable(["V_eV"], [[v]]), 0


# An option is (flag, type, built-in default); its config key is the flag
# without dashes (_key), and a None default makes it required after merging.
_LAMBDA = ("--lambda", float, None)
_COUPLING = ("--coupling", str, None)
_DG = ("--dg", float, 0.0)
_METHOD = ("--method", str, "all")
_RHO = ("--rho", float, 1.0)
_TEMP = ("--temp", float, 300.0)

# name -> (handler, help line, options in flag order)
_COMMANDS = {
    "surface": (_cmd_surface, "tabulate diabats and adiabats against q", [
        _LAMBDA, _DG, _COUPLING,
        ("--qmin", float, SCAN_Q_LO), ("--qmax", float, SCAN_Q_HI), ("--n", int, 401),
    ]),
    "barrier": (_cmd_barrier, "activation barrier by one or all methods", [
        _LAMBDA, _DG, _COUPLING, _METHOD,
    ]),
    "sweep": (_cmd_sweep, "barrier sweep against dg, v or lambda", [
        ("--x", str, None), ("--from", float, None), ("--to", float, None),
        ("--n", int, 33), _LAMBDA, _DG, _COUPLING, _METHOD,
    ]),
    "tafel": (_cmd_tafel, "log10 rate against formal overpotential", [
        _LAMBDA, _COUPLING, _TEMP,
        ("--eta-from", float, -1.0), ("--eta-to", float, 0.5),
        ("--n", int, 61), _RHO, _METHOD,
    ]),
    "arrhenius": (_cmd_arrhenius, "ln rate against inverse temperature", [
        _LAMBDA, _COUPLING, ("--eta", float, -0.3),
        ("--tmin", float, 250.0), ("--tmax", float, 350.0),
        ("--n", int, 21), _RHO, _METHOD,
    ]),
    "fit": (_cmd_fit, "recover lambda_eff from a Tafel CSV", [
        ("--input", str, None), _TEMP, _RHO,
        ("--ycol", str, ""),
    ]),
    "extract-v": (_cmd_extract_v, "coupling from lambda and lambda_eff", [
        _LAMBDA, ("--lambda-eff", float, None),
    ]),
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        table, status = _COMMANDS[args.command][0](_merge_options(args))
        return _finish(table, status, args)
    except UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        print(f"run 'etkit {args.command} --help' for usage",
              file=_sys.stderr)
        return 2
    except (EtkitError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3 if args.strict else 2


if __name__ == "__main__":
    raise SystemExit(main())
