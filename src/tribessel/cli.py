"""Command-line interface: eval, compare, sweep, ei-table, errata.

Output is deterministic: floats always use %.12e, rows follow grid order,
and identical invocations produce byte-identical bytes. Exit codes: 0 ok,
1 usage error, 2 precondition violation or arithmetic failure (overflow),
3 comparison failures. In sweep and compare such a row gets a status cell
(divergent-precondition, cannot-evaluate) instead and the grid goes on.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from .errors import (
    BranchCutError,
    DivergenceError,
    DomainError,
    SingularCombinationError,
    UnsupportedPowerError,
)
from .expint import ei
from .oracle import QuadConfig, quad_finite, quad_semi_infinite
from .triple import IntegralSpec, eval_definite, eval_indefinite, integrand

_ENV_OUTPUT_DIR = "TRIBESSEL_OUTPUT_DIR"
_SPEC_FIELDS = ("n", "m", "h", "k", "l", "alpha", "beta", "mu")
_INT_FIELDS = {"h", "k", "l"}
_SPEC_HEADER = list(_SPEC_FIELDS) + ["m_imaginary"]
_PRECONDITION_ERRORS = (
    DomainError,
    DivergenceError,
    SingularCombinationError,
    UnsupportedPowerError,
    BranchCutError,
)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this CLI uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """The min:max:count grid, both ends included."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if lo > hi:
        raise ValueError("min must be <= max")
    return [lo] if count == 1 else [float(v) for v in np.linspace(lo, hi, count)]


def _parse_axis(parser: _Parser, name: str, text: str) -> list[float]:
    """One grid axis: 'v', 'v1,v2,v3', 'min:max:count', or '' (empty axis)."""
    text = text.strip()
    if not text:
        return []
    try:
        if ":" in text:
            lo_s, hi_s, cnt_s = text.split(":")
            vals = _linspace(float(lo_s), float(hi_s), int(cnt_s))
        else:
            vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        parser.error(f"bad grid for --{name}: {exc}")
    if name in _INT_FIELDS:
        for v in vals:
            if not math.isfinite(v) or v != int(v):
                parser.error(f"--{name} takes integer orders, got {v}")
    return vals


def _add_spec_args(sub: _Parser, grid: bool):
    helptext = "value, comma list, or min:max:count" if grid else "value"
    for name in _SPEC_FIELDS:
        sub.add_argument(f"--{name}", required=True, help=helptext)
    sub.add_argument("--m-imaginary", action="store_true",
                     help="use the e^{-ix} weight (m must be 0)")


def _add_common_args(sub: _Parser):
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--output", default=None,
                     help=f"write to this file (relative paths resolve against "
                          f"${_ENV_OUTPUT_DIR} when set)")
    sub.add_argument("--config", default=None,
                     help="key=value file supplying flag defaults")


def _add_quad_args(sub: _Parser):
    sub.add_argument("--abs-tol", type=float, default=1e-10)
    sub.add_argument("--rel-tol", type=float, default=1e-10)
    sub.add_argument("--tail-policy", choices=("period_summation",
                                               "exponential_bound"),
                     default="period_summation")


def _grid_from_args(parser: _Parser, args, grid: bool) -> list[dict]:
    """The grid as IntegralSpec keyword dicts, one per point. _grid_rows
    builds each spec inside its row, so a point IntegralSpec rejects gets a
    status row instead of ending the grid."""
    axes = []
    for name in _SPEC_FIELDS:
        vals = _parse_axis(parser, name, getattr(args, name))
        if not grid and len(vals) != 1:
            parser.error(f"--{name} takes a single value here")
        axes.append(vals)
    points = []
    for combo in itertools.product(*axes):
        point = dict(zip(_SPEC_FIELDS, combo), m_imaginary=args.m_imaginary)
        for f in _INT_FIELDS:
            point[f] = int(point[f])
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# Rows. Every command builds rows of plain values (float, int, bool, str,
# complex, None); _text is the one cell format and _render the one row
# layout. None is an empty CSV field / JSON null. JSON nests the leading
# spec columns as a sub-object so rows read
# {spec: {...}, value, method, err_estimate, status}.
# ---------------------------------------------------------------------------

def _text(v) -> str:
    """One non-null cell as text: %.12e for every float, and a complex
    value as a+bj unless its imaginary part is negligible."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    if isinstance(v, complex):
        if not abs(v.imag) <= 1e-13 * (1.0 + abs(v.real)):
            return f"{v.real:.12e}{v.imag:+.12e}j"
        v = v.real
    return f"{float(v):.12e}"


def _json(v) -> str:
    if v is None:
        return "null"
    text = _text(v)
    if isinstance(v, str) or text.endswith("j"):
        return json.dumps(text, ensure_ascii=False)
    return text


def _render(header: list[str], rows: list[list], fmt: str,
            n_spec: int = 0) -> str:
    """Rows as a JSON list, or as CSV for both "csv" and "text"."""
    if fmt != "json":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([None if v is None else _text(v) for v in row]
                         for row in rows)
        return buf.getvalue()
    out = []
    for row in rows:
        fields = [f'"{k}": {_json(v)}' for k, v in zip(header, row)]
        if n_spec:
            fields[:n_spec] = ['"spec": {' + ", ".join(fields[:n_spec]) + "}"]
        out.append("  {" + ", ".join(fields) + "}")
    return "[\n" + ",\n".join(out) + ("\n" if out else "") + "]\n"


def _write_output(text: str, args):
    path = getattr(args, "output", None)
    if path is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(_ENV_OUTPUT_DIR)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_RESULT_FIELDS = ["value", "method", "err_estimate", "status"]
_RESULT_HEADER = _SPEC_HEADER + _RESULT_FIELDS
_COMPARE_HEADER = _SPEC_HEADER + ["closed_form", "oracle", "abs_diff", "status"]
_ERRATA_HEADER = ["ident", "context", "printed", "corrected", "point",
                  "printed_value", "corrected_value", "reference_value",
                  "printed_abs_err", "corrected_abs_err", "demo_tol"]


def _spec_values(point: dict) -> list:
    return [point[name] for name in _SPEC_HEADER]


def _result_values(res) -> list:
    """A result's cells. The err_estimate cell also covers the rounding of
    the printed value: it is err_estimate + |value - printed value|, and
    its own digits do not round below that."""
    printed = complex(_text(res.value))
    bar = res.err_estimate
    if printed != res.value:  # an infinite value prints exactly: no inf - inf
        bar += abs(res.value - printed)
    if float(_text(bar)) < bar:
        bar *= 1.0 + 1e-12  # at least one unit of the 13th digit
    return [res.value, res.method, bar, "ok"]


def _grid_rows(points: list[dict], values) -> list[list]:
    """One row per grid point: its spec values, then values(spec). A point
    that cannot be evaluated, or is no valid spec, gets empty value cells
    and a status instead."""
    rows = []
    for point in points:
        try:
            cells = values(IntegralSpec(**point))
        except _PRECONDITION_ERRORS:
            cells = [None, None, None, "divergent-precondition"]
        except ArithmeticError:
            cells = [None, None, None, "cannot-evaluate"]
        rows.append(_spec_values(point) + cells)
    return rows


def _evaluator(parser: _Parser, args):
    """eval's and sweep's --x/--definite choice, as spec -> EvalResult."""
    if args.definite and args.x is not None:
        parser.error("--x and --definite are mutually exclusive")
    if args.definite:
        return eval_definite
    if args.x is None:
        parser.error("need --x for the antiderivative or --definite")
    return lambda spec: eval_indefinite(spec, args.x)


def _cmd_eval(parser: _Parser, args) -> int:
    point = _grid_from_args(parser, args, grid=False)[0]
    spec = IntegralSpec(**point)
    cells = _result_values(_evaluator(parser, args)(spec))
    if args.format == "text":
        text = "".join(f"{k} {_text(v)}\n"
                       for k, v in zip(_RESULT_FIELDS[:3], cells))
    else:
        text = _render(_RESULT_HEADER, [_spec_values(point) + cells],
                       args.format, n_spec=len(_SPEC_HEADER))
    _write_output(text, args)
    return 0


def _cmd_sweep(parser: _Parser, args) -> int:
    points = _grid_from_args(parser, args, grid=True)
    evaluate = _evaluator(parser, args)
    rows = _grid_rows(points, lambda spec: _result_values(evaluate(spec)))
    _write_output(_render(_RESULT_HEADER, rows, args.format,
                          n_spec=len(_SPEC_HEADER)), args)
    return 0


def _cmd_compare(parser: _Parser, args) -> int:
    points = _grid_from_args(parser, args, grid=True)
    cfg = QuadConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol,
                     tail_policy=args.tail_policy)
    interval = args.x_lo is not None or args.x_hi is not None
    if interval and (args.x_lo is None or args.x_hi is None):
        parser.error("interval comparison needs both --x-lo and --x-hi")
    if interval and not args.x_lo > 0:
        parser.error("--x-lo must be > 0")

    def compare(spec: IntegralSpec) -> list:
        if interval:
            closed = (eval_indefinite(spec, args.x_hi).value
                      - eval_indefinite(spec, args.x_lo).value)
            oracle = quad_finite(integrand(spec), args.x_lo, args.x_hi,
                                 cfg).value
            # an e^{-ix} integral is complex: both parts are compared
            if not spec.m_imaginary:
                closed, oracle = closed.real, oracle.real
        else:
            closed = eval_definite(spec).value.real
            oracle = quad_semi_infinite(spec, cfg).value.real
        diff = abs(closed - oracle)
        ok = diff <= max(args.pass_abs_tol, args.pass_rel_tol * abs(oracle))
        return [closed, oracle, diff, "pass" if ok else "fail"]

    rows = _grid_rows(points, compare)
    _write_output(_render(_COMPARE_HEADER, rows, args.format,
                          n_spec=len(_SPEC_HEADER)), args)
    return 3 if any(row[-1] == "fail" for row in rows) else 0


def _cmd_ei_table(parser: _Parser, args) -> int:
    try:
        xs = _linspace(args.x_min, args.x_max, args.count)
    except ValueError as exc:
        parser.error(f"bad grid for --x-min/--x-max/--count: {exc}")
    xs = [x for x in xs if x != 0.0]
    if not xs:
        parser.error("grid contains no usable points (only x = 0)")
    rows = [[x, ei(x)] for x in xs]
    _write_output(_render(["x", "ei"], rows, args.format), args)
    return 0


def _cmd_errata(parser: _Parser, args) -> int:
    from .errata import build_errata  # loaded here: no other command needs it

    entries = build_errata()
    if args.format != "text":
        rows = [[getattr(e, name) for name in _ERRATA_HEADER] for e in entries]
        _write_output(_render(_ERRATA_HEADER, rows, args.format), args)
        return 0
    lines = [f"errata report: {len(entries)} entries", ""]
    for i, e in enumerate(entries, 1):
        lines += [
            f"[{i:02d}] {e.ident}",
            f"  context:   {e.context}",
            f"  printed:   {e.printed}",
            f"  corrected: {e.corrected}",
            f"  point:     {e.point}",
            f"  printed value    {_text(e.printed_value)}"
            f"  (abs err {_text(e.printed_abs_err)})",
            f"  corrected value  {_text(e.corrected_value)}"
            f"  (abs err {_text(e.corrected_abs_err)})",
            f"  reference value  {_text(e.reference_value)}",
            "",
        ]
    _write_output("\n".join(lines) + "\n", args)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------

# Built once per process: parsing leaves the parser unchanged, and argparse
# reads the help width when it formats help, not when the parser is built.
@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="tribessel",
                     description="closed forms and quadrature checks for "
                                 "x^n e^{-mx} j_h j_k j_l integrals")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    p_eval = subs.add_parser("eval", help="evaluate one integral in closed form")
    _add_spec_args(p_eval, grid=False)
    p_eval.add_argument("--x", type=float, default=None,
                        help="evaluate the antiderivative at this point")
    p_eval.add_argument("--definite", action="store_true",
                        help="integral over [0, inf)")
    _add_common_args(p_eval)

    p_sweep = subs.add_parser("sweep", help="closed-form values over a grid")
    _add_spec_args(p_sweep, grid=True)
    p_sweep.add_argument("--x", type=float, default=None)
    p_sweep.add_argument("--definite", action="store_true")
    _add_common_args(p_sweep)

    p_cmp = subs.add_parser("compare",
                            help="closed form vs quadrature oracle over a grid")
    _add_spec_args(p_cmp, grid=True)
    p_cmp.add_argument("--x-lo", type=float, default=None,
                       help="compare F(x_hi)-F(x_lo) against finite quadrature")
    p_cmp.add_argument("--x-hi", type=float, default=None)
    p_cmp.add_argument("--pass-abs-tol", type=float, default=1e-8)
    p_cmp.add_argument("--pass-rel-tol", type=float, default=1e-6)
    _add_quad_args(p_cmp)
    _add_common_args(p_cmp)

    p_ei = subs.add_parser("ei-table", help="table of the exponential integral")
    p_ei.add_argument("--x-min", type=float, default=-4.0)
    p_ei.add_argument("--x-max", type=float, default=4.0)
    p_ei.add_argument("--count", type=int, default=161)
    _add_common_args(p_ei)

    p_err = subs.add_parser("errata",
                            help="report defects of the printed source formulas")
    _add_common_args(p_err)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Insert key=value pairs from --config as flags before the real ones."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv  # let argparse report the missing value
    path = argv[idx + 1]
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    tokens.append(f"--{key}")
            else:
                tokens.append(f"--{key}={value}")
    # config tokens go right after the subcommand so explicit flags win
    return argv[:1] + tokens + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    if argv and not argv[0].startswith("-"):
        try:
            argv = _apply_config(argv)
        except OSError as exc:
            print(f"tribessel: error: cannot read config: {exc}",
                  file=sys.stderr)
            return 1
    args = parser.parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "sweep": _cmd_sweep,
        "compare": _cmd_compare,
        "ei-table": _cmd_ei_table,
        "errata": _cmd_errata,
    }
    try:
        return handlers[args.command](parser, args)
    except _PRECONDITION_ERRORS as exc:
        print(f"tribessel: precondition violated: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"tribessel: cannot evaluate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
