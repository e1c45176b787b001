"""Command-line front end.

Four commands: ``coeffs`` (Gegenbauer coefficient profile), ``fundamental``
(fundamentality verdict for one generator or the union of several),
``funk-hecke`` (residuals of the reproducing identity over a list of
degrees), and ``density`` (least-squares density demonstration).

Exit codes encode outcomes so shell pipelines can branch on them:

    0   success; for ``fundamental``: FUNDAMENTAL_UP_TO_N
    2   invalid configuration (flags, ranges, kappa, grammar, lambda <= 0)
    3   backend failure during computation
    4   unsupported group for the requested operation
    10  NOT_FUNDAMENTAL
    11  INDETERMINATE
    12  funk-hecke residual above threshold

The parser is built once per process (``build_parser``) with every option's
default taken out of it, so a parse holds only the flags that were typed.
Each option left out is then taken from the JSON file of ``--config``, and
failing that from its declared default: explicit flags override the config,
the config overrides defaults.  A config value that is text goes through the
option's type, as a typed flag does; every value meets the option's choices
and the same range checks (_NUMBER_BOUNDS) as a flag.
Every JSON report carries one top-level ``config``, the command's own
arguments (``_config``); passing a report back through ``--config`` uses that
object and reproduces the report byte for byte.  ``--output`` writes to a
file, resolved against $DUNKLSPHERE_OUTPUT_DIR when relative.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from numpy.linalg import LinAlgError as _LinAlgError

from .fundamentality import (
    FUNDAMENTAL,
    NOT_FUNDAMENTAL,
    FunkHeckeTable,
    density_demo,
    funk_hecke_table,
    is_fundamental,
    union_fundamental,
)
from .gegenbauer import (
    DEFAULT_EPS,
    MIN_PRECISION,
    coefficient_profile,
    parse_function,
)
from .operators import DunklContext
from .reflection import FAMILIES, UnsupportedGroupError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_UNSUPPORTED = 4
EXIT_NOT_FUNDAMENTAL = 10
EXIT_INDETERMINATE = 11
EXIT_THRESHOLD = 12

# dest: (flag, least value, integer-valued); precision, ridge, order and seed
# may also be None, which lets the library choose (or leaves the value unused)
_NUMBER_BOUNDS = {
    "n_max": ("-N", 0, True),
    "m_degree": ("-m", 0, True),
    "orders": ("--orders", 1, True),
    "kernel_order": ("--kernel-order", 1, True),
    "x_count": ("--x-samples", 1, True),
    "precision": ("--precision", MIN_PRECISION, True),
    "p": ("-p", 1, False),
    "eps": ("--epsilon", 0, False),
    "threshold": ("--threshold", 0, False),
    "ridge": ("--ridge", 0, False),
    "dimension": ("-d", 1, True),
    "order": ("--order", 1, True),
    "seed": ("--seed", 0, True),
}


def _context_flags(sp) -> None:
    sp.add_argument("--family", default="zd2", choices=FAMILIES,
                    help="reflection group family")
    sp.add_argument("--dimension", "-d", type=int, default=2,
                    help="ambient dimension d (sphere is S^{d-1})")
    sp.add_argument("--order", type=int, default=None,
                    help="dihedral order m, i2 family only")
    sp.add_argument("--kappa", default="0",
                    help="multiplicity values, one per orbit, comma separated "
                         "(rationals like 1/2 accepted)")


def _coefficient_flags(sp) -> None:
    sp.add_argument("-N", "--n-max", dest="n_max", type=int, default=20)
    sp.add_argument("--epsilon", dest="eps", type=float, default=DEFAULT_EPS,
                    help="a coefficient whose |value| + error bound stays "
                         "below this is zero")
    sp.add_argument("--precision", type=int, default=None,
                    help="digits at which the closed-form coefficients are "
                         "computed and classified (default 50)")


def _output_flags(sp) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    help="output format")
    sp.add_argument("--output", default=None,
                    help="write to this file instead of stdout; relative "
                         "paths resolve against $DUNKLSPHERE_OUTPUT_DIR")
    sp.add_argument("--config", default=None,
                    help="JSON config merged under explicit flags (a full "
                         "report with an embedded config also works)")


@functools.cache
def build_parser() -> tuple:
    """(parser, {command: (subparser, options)}), built once per process and
    never changed after; options maps each dest but help and config to its
    (action, declared default), the defaults taken out of the parser so
    that a parse holds only the flags that were typed."""
    parser = argparse.ArgumentParser(
        prog="dunklsphere",
        description="Dunkl harmonic analysis on spheres: coefficient "
                    "profiles, fundamentality verdicts, Funk-Hecke residuals "
                    "and density demonstrations.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs",
                        help="Gegenbauer coefficient profile Lambda_n(g)")
    _context_flags(sp)
    sp.add_argument("--g", default=None,
                    help="generator: 'poly c0,c1,...', 'gegen n', 'exp', "
                         "'cosh', 'sinh', 'cos w', 'step a', or "
                         "'sum w1*expr1 + w2*expr2'")
    _coefficient_flags(sp)
    _output_flags(sp)

    sp = sub.add_parser("fundamental",
                        help="fundamentality verdict (union when --g is "
                             "repeated); exit code carries the verdict")
    _context_flags(sp)
    sp.add_argument("--g", action="append", default=None,
                    help="generator expression; repeat for a union")
    sp.add_argument("-p", type=float, default=2.0,
                    help="Lebesgue exponent (recorded; the verdict is "
                         "p-independent)")
    _coefficient_flags(sp)
    _output_flags(sp)

    sp = sub.add_parser("funk-hecke",
                        help="residuals of int K(x,y) Y_n(y) dsigma = "
                             "Lambda_n Y_n(x) per degree; CSV columns "
                             "n,residual")
    _context_flags(sp)
    sp.add_argument("--g", default=None)
    sp.add_argument("--degrees", default="0,1,2,3,4",
                    help="comma separated harmonic degrees")
    sp.add_argument("--threshold", type=float, default=1e-6,
                    help="exit 12 when any residual exceeds this")
    sp.add_argument("--orders", type=int, default=80,
                    help="sphere quadrature order")
    sp.add_argument("--kernel-order", dest="kernel_order", type=int,
                    default=48, help="1-d order per axis in the kernel")
    sp.add_argument("--x-samples", dest="x_count", type=int, default=6)
    sp.add_argument("--seed", type=int, default=3,
                    help="seed for x points when d > 3")
    _output_flags(sp)

    sp = sub.add_parser("density",
                        help="grid residual of a degree-m harmonic against "
                             "a computed combination of kernel translates, an "
                             "upper bound on the best one; CSV columns "
                             "nodes,ridge,residual")
    _context_flags(sp)
    sp.add_argument("--g", default=None)
    sp.add_argument("--target-degree", "-m", dest="m_degree", type=int,
                    default=1)
    sp.add_argument("--nodes", dest="node_counts", default="6,12,24",
                    help="comma separated node counts")
    sp.add_argument("--orders", type=int, default=80)
    sp.add_argument("--kernel-order", dest="kernel_order", type=int,
                    default=48)
    sp.add_argument("--ridge", type=float, default=None,
                    help="Gram regularization (default 1e-10 tr(G)/size)")
    sp.add_argument("--scheme", choices=("spiral", "uniform_random"),
                    default="spiral")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed, required for uniform_random nodes")
    _output_flags(sp)

    commands = {}
    for name, sp in sub.choices.items():
        options = {}
        for action in sp._actions:
            if action.dest not in ("help", "config"):
                options[action.dest] = (action, action.default)
                action.default = argparse.SUPPRESS
        commands[name] = (sp, options)
    return parser, commands


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

def _load_config(path: str, commands: dict) -> dict:
    """The options of a JSON config file, or of a report's embedded config;
    ValueError when it cannot be read or names an option no command has."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    if isinstance(obj.get("config"), dict):
        obj = obj["config"]
    known = set().union(*(options for _, options in commands.values()))
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return obj


def _merge(args, sp, options: dict, cfg: dict) -> None:
    """Fill each option the command line left out from the config, else from
    its declared default.  Text goes through the option's type= as argparse's
    own string defaults do, and every value meets the option's choices as a
    typed flag's does; either error exits 2.  Non-text values keep their type
    for _check_numbers."""
    for dest, (action, default) in options.items():
        if hasattr(args, dest):
            continue
        val = cfg.get(dest, default)
        try:
            if isinstance(val, str):
                val = sp._get_value(action, val)
            sp._check_value(action, val)
        except argparse.ArgumentError as exc:
            sp.error(str(exc))
        setattr(args, dest, val)


def _comma_list(val):
    """A flag's comma separated text as its parts; a config's list as is."""
    if isinstance(val, str):
        return [p for p in val.replace(" ", "").split(",") if p]
    return val


def _check_numbers(args) -> None:
    """Range checks of the numeric options after the --config merge, whose
    non-text values bypass argparse's type=; the lists become int lists."""
    for dest, (flag, least, integral) in _NUMBER_BOUNDS.items():
        val = getattr(args, dest, None)
        if val is None and (dest in ("precision", "ridge", "order", "seed")
                            or not hasattr(args, dest)):
            continue
        kinds = (int,) if integral else (int, float)
        if (type(val) not in kinds or val < least
                or not (type(val) is int or math.isfinite(val))):
            what = "an integer" if integral else "a finite number"
            raise ValueError(f"{flag} must be {what} >= {least}, not {val!r}")
    for dest, flag, least in (("degrees", "--degrees", 0),
                              ("node_counts", "--nodes", 1)):
        if not hasattr(args, dest):
            continue
        val = getattr(args, dest)
        try:
            vals = [int(v) if isinstance(v, str) else v for v in _comma_list(val)]
        except (TypeError, ValueError):
            vals = []
        if not vals or any(type(v) is not int or v < least for v in vals):
            raise ValueError(f"{flag} must be a nonempty list of integers "
                             f">= {least}, not {val!r}")
        setattr(args, dest, vals)


def _kappa_values(val):
    """One value applies to every orbit, a list gives one per orbit."""
    vals = _comma_list(val)
    return vals[0] if isinstance(vals, list) and len(vals) == 1 else vals


def _g_list(val) -> list:
    specs = [val] if isinstance(val, str) else val
    if not isinstance(specs, list) or not all(isinstance(s, str) for s in specs):
        raise ValueError(f"g must be an expression or a list of them: {val!r}")
    return specs


def _one_g(args) -> str:
    """The generator of coeffs, funk-hecke and density: a config's list of
    one is its text, a union's list is refused."""
    specs = _g_list(args.g)
    if len(specs) != 1:
        raise ValueError(f"{args.command} takes one generator, not {specs}; "
                         "only fundamental takes a union")
    return specs[0]


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _config(args, ctx: DunklContext) -> dict:
    """The report's "config": the command's own arguments, so that a report
    fed back through --config reproduces itself.  kappa becomes the orbit
    values as text, list options become int lists, and --g stays the text as
    typed: a string for one generator, a list for a union."""
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("command", "config", "format", "output")}
    cfg["kappa"] = [str(v) for v in ctx.kappa.orbit_values]
    specs = _g_list(cfg["g"])
    cfg["g"] = specs[0] if len(specs) == 1 else specs
    return cfg


def _emit_report(args, ctx: DunklContext, report) -> None:
    """A result object's CSV, or its JSON with the config added."""
    if args.format == "csv":
        _emit(args, report.to_csv_text())
    else:
        doc = {**report.to_json_dict(), "config": _config(args, ctx)}
        _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _emit(args, text: str) -> None:
    if args.output:
        path = args.output
        base = os.environ.get("DUNKLSPHERE_OUTPUT_DIR")
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _make_context(args) -> DunklContext:
    kappa = _kappa_values(args.kappa)
    return DunklContext.create(args.family, args.dimension, kappa,
                               order=args.order)


def _cmd_coeffs(args) -> int:
    ctx = _make_context(args)
    g = parse_function(_one_g(args), ctx.lambda_kappa)
    profile = coefficient_profile(g, ctx.lambda_kappa, args.n_max,
                                  eps=args.eps, precision=args.precision)
    _emit_report(args, ctx, profile)
    return EXIT_OK


def _cmd_fundamental(args) -> int:
    ctx = _make_context(args)
    gs = [parse_function(s, ctx.lambda_kappa) for s in _g_list(args.g)]
    if len(gs) == 1:
        report = is_fundamental(ctx, gs[0], p=args.p, n_max=args.n_max,
                                eps=args.eps, precision=args.precision)
    else:
        report = union_fundamental(ctx, gs, p=args.p, n_max=args.n_max,
                                   eps=args.eps, precision=args.precision)
    _emit_report(args, ctx, report)
    print(f"verdict: {report.verdict}", file=sys.stderr)
    if report.verdict == FUNDAMENTAL:
        return EXIT_OK
    if report.verdict == NOT_FUNDAMENTAL:
        return EXIT_NOT_FUNDAMENTAL
    return EXIT_INDETERMINATE


def _cmd_funk_hecke(args) -> int:
    ctx = _make_context(args)
    g = parse_function(_one_g(args), ctx.lambda_kappa)
    rows = funk_hecke_table(ctx, g, args.degrees, orders=args.orders,
                            x_count=args.x_count,
                            quad_order=args.kernel_order, seed=args.seed)
    table = FunkHeckeTable(args.threshold, max(r.residual for r in rows), rows)
    _emit_report(args, ctx, table)
    return EXIT_OK if table.max_residual <= args.threshold else EXIT_THRESHOLD


def _cmd_density(args) -> int:
    ctx = _make_context(args)
    g = parse_function(_one_g(args), ctx.lambda_kappa)
    report = density_demo(ctx, g, args.m_degree, args.node_counts,
                          orders=args.orders, ridge=args.ridge,
                          scheme=args.scheme,
                          kernel_order=args.kernel_order, seed=args.seed)
    _emit_report(args, ctx, report)
    return EXIT_OK


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "fundamental": _cmd_fundamental,
    "funk-hecke": _cmd_funk_hecke,
    "density": _cmd_density,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        # argparse exits 2 on bad flags, which matches the protocol, and 0
        # after --help
        args = parser.parse_args(sys.argv[1:] if argv is None else argv)
        sp, options = commands[args.command]
        cfg = {} if args.config is None else _load_config(args.config, commands)
        _merge(args, sp, options, cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.g is None:
        print("error: --g is required", file=sys.stderr)
        return EXIT_CONFIG

    try:
        _check_numbers(args)
        return _DISPATCH[args.command](args)
    except UnsupportedGroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except _LinAlgError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, TypeError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
