"""Command-line front end.

Subcommands: analyze (covariance JSON file -> report), state (build a
resource and classify it), sweep (region grid to CSV/JSON), thresholds
(entanglement/QT onset table), oracle (closed form vs quadrature).

Exit codes: 0 ok, 2 unphysical input, 3 bad input, 4 grid too large,
5 I/O failure, 6 oracle disagreement.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import core, criteria, oracle, resources, sweep
from .errors import (
    GridSizeError,
    InvalidInput,
    NumericalDomainError,
    PreconditionFailed,
    QuadratureWarning,
)

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_UNPHYSICAL = 2
EXIT_BAD_INPUT = 3
EXIT_GRID_TOO_LARGE = 4
EXIT_IO = 5
EXIT_ORACLE_DISAGREEMENT = 6

ORACLE_AGREEMENT = 1e-5

# every failure a subcommand can raise, by exit code; a subclass takes the
# code of its nearest listed ancestor (GridSizeError is an InvalidInput)
_EXIT_CODES = {
    PreconditionFailed: EXIT_UNPHYSICAL,
    InvalidInput: EXIT_BAD_INPUT,
    NumericalDomainError: EXIT_BAD_INPUT,
    GridSizeError: EXIT_GRID_TOO_LARGE,
    OSError: EXIT_IO,
}

_RECORD = {"json": core.record_json, "csv": core.record_csv}

# built once per process, by the first main() call: building it takes longer
# than a whole analyze call
_parser = None


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through exit code 3 instead
    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _print_analysis(V, args) -> int:
    # one kernel call gives every field but the canonical form and simon_lhs
    symmetric = core._is_symmetric(core._as_covmat(V))  # entries past MAX_ENTRY exit 3
    (nm, np_, pt_nm, physical, entangled), row = criteria._evaluate(V, symmetric)
    validity = core.ValidityReport(bool(symmetric), float(nm), float(np_), bool(physical))
    if args.format == "csv":
        text = core.record_csv({**row, "class": criteria.LABELS[row["class"]]})
    else:
        report, label = criteria._report(row)
        fields = {
            "validity": vars(validity),
            "classification": label.value,
            "report": vars(report),
            "canonical": vars(core._canonical(V)[0]) if validity.physical else None,
            "entanglement": (vars(core._verdict(V, float(pt_nm), bool(entangled)))
                             if validity.physical else None),
        }
        lines = (f'  "{k}": {core.json_token(v)}' for k, v in fields.items())
        text = "{\n" + ",\n".join(lines) + "\n}"
    _emit(text, args.out)
    return EXIT_OK if validity.physical else EXIT_UNPHYSICAL


def _cmd_analyze(args) -> int:
    return _print_analysis(core.load_covmat(args.path), args)


def _build_state(args):
    names, build = sweep._FAMILIES[args.family]
    return build(args.r, *(getattr(args, name) for name in names))


def _cmd_state(args) -> int:
    V = _build_state(args)
    if args.emit_cm:  # first, so that a failed write prints no report
        core.save_covmat(V, args.emit_cm)
    return _print_analysis(V, args)


def _parse_axis(name: str, text: str) -> sweep.AxisSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInput(f"axis {name!r} must be min:max:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidInput(f"axis {name!r}: {exc}") from exc
    return sweep.AxisSpec(name=name, lo=lo, hi=hi, steps=steps)


def _cmd_sweep(args) -> int:
    names = sweep._FAMILIES[args.family][0]
    axis1, axis2 = (_parse_axis(name, getattr(args, name)) for name in names)
    config = sweep.SweepConfig(family=args.family, r=args.r, axis1=axis1, axis2=axis2)
    if not args.out:
        sys.stdout.writelines(sweep.text(config, args.format))
        return EXIT_OK
    sweep.write(config, args.out, args.format)
    if not args.quiet:
        print(f"wrote {config.size} rows to {args.out}")
    return EXIT_OK


def _cmd_thresholds(args) -> int:
    r_ent = resources.r_ent_threshold(args.k1, args.k2)
    r_qt = resources.r_qt_threshold(args.k1, args.k2)
    fields = {"k1": args.k1, "k2": args.k2, "r_ent": r_ent, "r_qt": r_qt,
              "difference": r_qt - r_ent}
    _emit(_RECORD[args.format](fields), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    V = _build_state(args)
    qspec = oracle.QuadratureSpec(radius=args.radius, points_per_axis=args.points)
    closed = criteria.fidelity(V)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureWarning)
        result = oracle.fidelity_by_quadrature(V, qspec)
    diff = abs(closed - result.value)
    fields = {"closed_form": closed, "quadrature": result.value, "abs_difference": diff,
              "est_error": result.est_error, "warning": result.warn}
    _emit(_RECORD[args.format](fields), args.out)
    if result.warn or diff >= ORACLE_AGREEMENT:
        return EXIT_ORACLE_DISAGREEMENT
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, default_format: str = "json") -> None:
    p.add_argument("--format", choices=("csv", "json"), default=default_format,
                   help="output format")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write output to PATH instead of stdout")


def _add_tmst_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, required=True, help="two-mode squeeze parameter (>= 0)")
    p.add_argument("--k1", type=float, required=True, help="mode-a thermal parameter (>= 1/2)")
    p.add_argument("--k2", type=float, required=True, help="mode-b thermal parameter (>= 1/2)")


def _add_bs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=float, required=True,
                   help="single-mode squeeze parameter (>= 0; x quadrature squeezed)")
    p.add_argument("--k", type=float, required=True, help="input thermal parameter (>= 1/2)")
    p.add_argument("--T", type=float, required=True, help="beam-splitter transmittance in (0, 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="gaussqt",
                     description="Two-mode Gaussian entanglement/EPR/teleportation analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a covariance matrix from a JSON file")
    p.add_argument("path", help="covariance JSON file (convention xpxp-vac-half)")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("state", help="build a resource state and classify it")
    fam = p.add_subparsers(dest="family", required=True)
    pt = fam.add_parser("tmst", help="two-mode squeezed thermal state")
    _add_tmst_flags(pt)
    pb = fam.add_parser("bs", help="beam-splitter output of a squeezed thermal input")
    _add_bs_flags(pb)
    for q in (pt, pb):
        q.add_argument("--emit-cm", default=None, metavar="PATH",
                       help="also write the covariance matrix JSON to PATH")
        _add_common(q)
        q.set_defaults(func=_cmd_state)

    p = sub.add_parser("sweep", help="evaluate a region grid over two parameters")
    fam = p.add_subparsers(dest="family", required=True)
    pt = fam.add_parser("tmst", help="scan (k1, k2) at fixed r")
    pt.add_argument("--r", type=float, required=True)
    pt.add_argument("--k1", required=True, metavar="MIN:MAX:STEPS")
    pt.add_argument("--k2", required=True, metavar="MIN:MAX:STEPS")
    pb = fam.add_parser("bs", help="scan (k, T) at fixed r")
    pb.add_argument("--r", type=float, required=True)
    pb.add_argument("--k", required=True, metavar="MIN:MAX:STEPS")
    pb.add_argument("--T", required=True, metavar="MIN:MAX:STEPS")
    for q in (pt, pb):
        _add_common(q, default_format="csv")
        q.add_argument("--quiet", action="store_true", help="do not report the rows written")
        q.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("thresholds", help="entanglement and QT squeeze thresholds")
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--k2", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("oracle", help="closed-form fidelity vs quadrature cross-check")
    fam = p.add_subparsers(dest="family", required=True)
    pt = fam.add_parser("tmst")
    _add_tmst_flags(pt)
    pb = fam.add_parser("bs")
    _add_bs_flags(pb)
    for q in (pt, pb):
        q.add_argument("--radius", type=float, default=6.0,
                       help="integration truncation radius (default 6)")
        q.add_argument("--points", type=int, default=401,
                       help="grid points per axis (default 401)")
        _add_common(q)
        q.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


def entry() -> None:
    sys.exit(main())
