"""Command-line front end.

Subcommands: surface, barrier, sweep, tafel, arrhenius, fit, extract-v.
Option precedence is built-in defaults < JSON config file (--config) <
command-line flags; config keys mirror flag names with dashes replaced by
underscores. Tables are written as CSV to stdout or --out.

Exit codes: 0 success (including partial success with warnings), 2 usage
or domain error, 3 model error under --strict, 4 fit non-convergence.
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
    ConstantCoupling,
    DiabaticSystem,
    LinearCoupling,
    PolynomialCoupling,
    surface_table,
)
from .rates import ElectrodeConditions, extract_coupling
from .tables import SweepTable, format_number


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


# (flag, json key, type, built-in default) per subcommand; None default
# means the flag is required after merging.
_OPTIONS = {
    "surface": [
        ("--lambda", "lambda", float, None),
        ("--dg", "dg", float, 0.0),
        ("--coupling", "coupling", str, None),
        ("--qmin", "qmin", float, -0.5),
        ("--qmax", "qmax", float, 1.5),
        ("--n", "n", int, 401),
    ],
    "barrier": [
        ("--lambda", "lambda", float, None),
        ("--dg", "dg", float, 0.0),
        ("--coupling", "coupling", str, None),
        ("--method", "method", str, "all"),
    ],
    "sweep": [
        ("--x", "x", str, None),
        ("--from", "from", float, None),
        ("--to", "to", float, None),
        ("--n", "n", int, 33),
        ("--lambda", "lambda", float, None),
        ("--dg", "dg", float, 0.0),
        ("--coupling", "coupling", str, None),
        ("--method", "method", str, "all"),
    ],
    "tafel": [
        ("--lambda", "lambda", float, None),
        ("--coupling", "coupling", str, None),
        ("--temp", "temp", float, 300.0),
        ("--eta-from", "eta_from", float, -1.0),
        ("--eta-to", "eta_to", float, 0.5),
        ("--n", "n", int, 61),
        ("--rho", "rho", float, 1.0),
        ("--method", "method", str, "all"),
    ],
    "arrhenius": [
        ("--lambda", "lambda", float, None),
        ("--coupling", "coupling", str, None),
        ("--eta", "eta", float, -0.3),
        ("--tmin", "tmin", float, 250.0),
        ("--tmax", "tmax", float, 350.0),
        ("--n", "n", int, 21),
        ("--rho", "rho", float, 1.0),
        ("--method", "method", str, "all"),
    ],
    "fit": [
        ("--input", "input", str, None),
        ("--temp", "temp", float, 300.0),
        ("--rho", "rho", float, 1.0),
        ("--ycol", "ycol", str, ""),
    ],
    "extract-v": [
        ("--lambda", "lambda", float, None),
        ("--lambda-eff", "lambda_eff", float, None),
    ],
}


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
    help_text = {
        "surface": "tabulate diabats and adiabats against q",
        "barrier": "activation barrier by one or all methods",
        "sweep": "barrier sweep against dg, v or lambda",
        "tafel": "log10 rate against formal overpotential",
        "arrhenius": "ln rate against inverse temperature",
        "fit": "recover lambda_eff from a Tafel CSV",
        "extract-v": "coupling from lambda and lambda_eff",
    }
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name, parents=[common], help=help_text[name])
        for flag, key, typ, _default in options:
            p.add_argument(flag, dest=key.replace("-", "_"), type=typ,
                           default=None)
    return parser


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


def _merge_options(args):
    """defaults < config file < flags, with aggregated validation."""
    options = _OPTIONS[args.command]
    merged = {key: default for _flag, key, _typ, default in options}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(config, dict):
            raise UsageError("config must be a flat JSON object")
        for _flag, key, typ, _default in options:
            if key in config:
                merged[key] = _config_value(key, typ, config[key])
    for _flag, key, _typ, _default in options:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            merged[key] = value
    missing = [
        flag
        for flag, key, _typ, _default in options
        if merged[key] is None
    ]
    if missing:
        raise UsageError("missing required options: " + ", ".join(missing))
    return merged


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _warn(lines, quiet):
    if not quiet:
        for line in lines:
            print(f"warning: {line}", file=_sys.stderr)


def _one_row_csv(columns, values):
    return ",".join(columns) + "\n" + ",".join(values) + "\n"


def _cmd_surface(opt, args):
    sys_ = DiabaticSystem(opt["lambda"], opt["dg"])
    c = parse_coupling(opt["coupling"])
    table = surface_table(sys_, c, opt["qmin"], opt["qmax"], opt["n"])
    _emit(table.to_csv(), args.out)
    return 0


def _cmd_barrier(opt, args):
    sys_ = DiabaticSystem(opt["lambda"], opt["dg"])
    c = parse_coupling(opt["coupling"])
    methods = _parse_methods(opt["method"])
    lines = ["method,E_star_eV,q_ts,q_r,lambda_used_eV,activationless"]
    warnings = []
    for m in methods:
        name = m.value
        try:
            res = barrier(sys_, c, m)
        except EtkitError as exc:
            warnings.append(f"{name}: {exc}")
            lines.append(f"{name},,,,,")
            continue
        lines.append(
            ",".join(
                [
                    name,
                    format_number(res.e_star),
                    format_number(res.q_ts),
                    format_number(res.q_r),
                    format_number(res.lambda_used),
                    "true" if res.activationless else "false",
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.out)
    _warn(warnings, args.quiet)
    if warnings and args.strict:
        return 3
    return 0


_SWEEP_X = {
    "dg": SweepVariable.DG0,
    "v": SweepVariable.COUPLING_SCALAR,
    "lambda": SweepVariable.LAMBDA,
}


def _finish_table(table, args):
    _emit(table.to_csv(), args.out)
    _warn(table.warnings, args.quiet)
    if table.warnings and args.strict:
        return 3
    return 0


def _cmd_sweep(opt, args):
    if opt["x"] not in _SWEEP_X:
        raise UsageError(
            f"unknown sweep variable {opt['x']!r}; expected dg, v or lambda"
        )
    spec = SweepSpec(
        variable=_SWEEP_X[opt["x"]],
        start=opt["from"],
        stop=opt["to"],
        n=opt["n"],
        system=DiabaticSystem(opt["lambda"], opt["dg"]),
        coupling=parse_coupling(opt["coupling"]),
        methods=_parse_methods(opt["method"]),
    )
    return _finish_table(barrier_sweep(spec), args)


def _cmd_tafel(opt, args):
    spec = SweepSpec(
        variable=SweepVariable.ETA_F,
        start=opt["eta_from"],
        stop=opt["eta_to"],
        n=opt["n"],
        system=DiabaticSystem(opt["lambda"], 0.0),
        coupling=parse_coupling(opt["coupling"]),
        methods=_parse_methods(opt["method"]),
        conditions=ElectrodeConditions(opt["temp"], 0.0, opt["rho"]),
    )
    return _finish_table(tafel_sweep(spec), args)


def _cmd_arrhenius(opt, args):
    if not (opt["tmin"] > 0 and opt["tmax"] > opt["tmin"]):
        raise UsageError("need 0 < tmin < tmax")
    spec = SweepSpec(
        variable=SweepVariable.INV_TEMPERATURE,
        start=1.0 / opt["tmax"],
        stop=1.0 / opt["tmin"],
        n=opt["n"],
        system=DiabaticSystem(opt["lambda"], 0.0),
        coupling=parse_coupling(opt["coupling"]),
        methods=_parse_methods(opt["method"]),
        conditions=ElectrodeConditions(300.0, opt["eta"], opt["rho"]),
    )
    return _finish_table(arrhenius_sweep(spec), args)


def _cmd_fit(opt, args):
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
    eta = table.column("eta_f_V")
    y = table.column(ycol)
    try:
        fit = fit_lambda_eff(eta, y, opt["temp"], opt["rho"])
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(
        _one_row_csv(
            ["lambda_eff_eV", "log10_scale", "rms_residual_dex",
             "n_points", "converged"],
            [
                format_number(fit.lambda_eff),
                format_number(fit.log10_scale),
                format_number(fit.rms_residual),
                str(fit.n_points),
                "true" if fit.converged else "false",
            ],
        ),
        args.out,
    )
    return 0 if fit.converged else 4


def _cmd_extract_v(opt, args):
    try:
        v = extract_coupling(opt["lambda"], opt["lambda_eff"])
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(_one_row_csv(["V_eV"], [format_number(v)]), args.out)
    return 0


_COMMANDS = {
    "surface": _cmd_surface,
    "barrier": _cmd_barrier,
    "sweep": _cmd_sweep,
    "tafel": _cmd_tafel,
    "arrhenius": _cmd_arrhenius,
    "fit": _cmd_fit,
    "extract-v": _cmd_extract_v,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opt = _merge_options(args)
        return _COMMANDS[args.command](opt, args)
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
