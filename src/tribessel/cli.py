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


def _fmt(x: float) -> str:
    return f"{float(x):.12e}"


def _fmt_value(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) <= 1e-13 * (1.0 + abs(z.real)):
        return _fmt(z.real)
    return f"{z.real:.12e}{z.imag:+.12e}j"


def _parse_axis(parser: _Parser, name: str, text: str) -> list[float]:
    """One grid axis: 'v', 'v1,v2,v3', 'min:max:count', or '' (empty axis)."""
    text = text.strip()
    if not text:
        return []
    try:
        if ":" in text:
            lo_s, hi_s, cnt_s = text.split(":")
            lo, hi, cnt = float(lo_s), float(hi_s), int(cnt_s)
            if cnt < 1:
                raise ValueError("count must be >= 1")
            if lo > hi:
                raise ValueError("min must be <= max")
            vals = [lo] if cnt == 1 else [float(v) for v in np.linspace(lo, hi, cnt)]
        elif "," in text:
            vals = [float(v) for v in text.split(",")]
        else:
            vals = [float(text)]
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


def _specs_from_args(parser: _Parser, args, grid: bool) -> list[IntegralSpec]:
    axes = []
    for name in _SPEC_FIELDS:
        vals = _parse_axis(parser, name, getattr(args, name))
        if not grid and len(vals) != 1:
            parser.error(f"--{name} takes a single value here")
        axes.append(vals)
    specs = []
    for combo in itertools.product(*axes):
        kwargs = dict(zip(_SPEC_FIELDS, combo))
        for f in _INT_FIELDS:
            kwargs[f] = int(kwargs[f])
        specs.append(IntegralSpec(m_imaginary=args.m_imaginary, **kwargs))
    return specs


# ---------------------------------------------------------------------------
# Row formatting. A cell is (formatted text, quote-in-json); _NULL means
# an empty CSV field / JSON null. JSON nests the leading spec columns as a
# sub-object so rows read {spec: {...}, value, method, err_estimate, status}.
# ---------------------------------------------------------------------------

_NULL = object()


def _cell_num(x) -> tuple:
    return (_fmt(x), False)


def _cell_str(s: str) -> tuple:
    return (s, True)


def _cell_value(z: complex) -> tuple:
    t = _fmt_value(z)
    return (t, t.endswith("j"))


def _spec_cells(spec: IntegralSpec) -> list[tuple]:
    cells = []
    for name in _SPEC_FIELDS:
        v = getattr(spec, name)
        cells.append((str(v), False) if name in _INT_FIELDS else _cell_num(v))
    cells.append(("true" if spec.m_imaginary else "false", False))
    return cells


def _json_field(key: str, cell) -> str:
    if cell is _NULL:
        return f'"{key}": null'
    text, quoted = cell
    if quoted:
        text = json.dumps(text, ensure_ascii=False)
    return f'"{key}": {text}'


def _render(header: list[str], rows: list[list], fmt: str,
            n_spec: int = 0) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([None if cell is _NULL else cell[0] for cell in row]
                         for row in rows)
        return buf.getvalue()
    out = ["["]
    for i, row in enumerate(rows):
        fields = []
        if n_spec:
            inner = ", ".join(_json_field(k, c)
                              for k, c in zip(header[:n_spec], row[:n_spec]))
            fields.append('"spec": {' + inner + "}")
        fields.extend(_json_field(k, c)
                      for k, c in zip(header[n_spec:], row[n_spec:]))
        sep = "," if i + 1 < len(rows) else ""
        out.append("  {" + ", ".join(fields) + "}" + sep)
    out.append("]")
    return "\n".join(out) + "\n"


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

_RESULT_HEADER = _SPEC_HEADER + ["value", "method", "err_estimate", "status"]
_COMPARE_HEADER = _SPEC_HEADER + ["closed_form", "oracle", "abs_diff", "status"]


def _no_value(status: str) -> list:
    """Result cells of a grid row that could not be evaluated."""
    return [_NULL, _NULL, _NULL, _cell_str(status)]


def _cmd_eval(parser: _Parser, args) -> int:
    spec = _specs_from_args(parser, args, grid=False)[0]
    if args.definite and args.x is not None:
        parser.error("--x and --definite are mutually exclusive")
    if args.definite:
        res = eval_definite(spec)
    elif args.x is not None:
        res = eval_indefinite(spec, args.x)
    else:
        parser.error("need --x for the antiderivative or --definite")
    if args.format == "text":
        text = (f"value {_fmt_value(res.value)}\n"
                f"method {res.method}\n"
                f"err_estimate {_fmt(res.err_estimate)}\n")
    else:
        row = _spec_cells(spec) + [
            _cell_value(res.value),
            _cell_str(res.method),
            _cell_num(res.err_estimate),
            _cell_str("ok"),
        ]
        text = _render(_RESULT_HEADER, [row], args.format,
                       n_spec=len(_SPEC_HEADER))
    _write_output(text, args)
    return 0


def _cmd_sweep(parser: _Parser, args) -> int:
    specs = _specs_from_args(parser, args, grid=True)
    if not args.definite and args.x is None:
        parser.error("need --x for the antiderivative or --definite")
    rows = []
    for spec in specs:
        cells = _spec_cells(spec)
        try:
            res = eval_definite(spec) if args.definite \
                else eval_indefinite(spec, args.x)
            cells += [_cell_value(res.value), _cell_str(res.method),
                      _cell_num(res.err_estimate), _cell_str("ok")]
        except _PRECONDITION_ERRORS:
            cells += _no_value("divergent-precondition")
        except ArithmeticError:
            cells += _no_value("cannot-evaluate")
        rows.append(cells)
    fmt = "csv" if args.format == "text" else args.format
    _write_output(_render(_RESULT_HEADER, rows, fmt,
                          n_spec=len(_SPEC_HEADER)), args)
    return 0


def _cmd_compare(parser: _Parser, args) -> int:
    specs = _specs_from_args(parser, args, grid=True)
    cfg = QuadConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol,
                     tail_policy=args.tail_policy)
    interval = args.x_lo is not None or args.x_hi is not None
    if interval and (args.x_lo is None or args.x_hi is None):
        parser.error("interval comparison needs both --x-lo and --x-hi")
    if interval and not args.x_lo > 0:
        parser.error("--x-lo must be > 0")

    rows = []
    any_fail = False
    for spec in specs:
        cells = _spec_cells(spec)
        try:
            if interval:
                closed = (eval_indefinite(spec, args.x_hi).value
                          - eval_indefinite(spec, args.x_lo).value).real
                oracle = quad_finite(integrand(spec), args.x_lo, args.x_hi,
                                     cfg).value.real
            else:
                closed = eval_definite(spec).value.real
                oracle = quad_semi_infinite(spec, cfg).value.real
        except _PRECONDITION_ERRORS:
            rows.append(cells + _no_value("divergent-precondition"))
            continue
        except ArithmeticError:
            rows.append(cells + _no_value("cannot-evaluate"))
            continue
        diff = abs(closed - oracle)
        tol = max(args.pass_abs_tol, args.pass_rel_tol * abs(oracle))
        ok = diff <= tol
        any_fail = any_fail or not ok
        cells += [_cell_num(closed), _cell_num(oracle), _cell_num(diff),
                  _cell_str("pass" if ok else "fail")]
        rows.append(cells)
    fmt = "csv" if args.format == "text" else args.format
    _write_output(_render(_COMPARE_HEADER, rows, fmt,
                          n_spec=len(_SPEC_HEADER)), args)
    return 3 if any_fail else 0


def _cmd_ei_table(parser: _Parser, args) -> int:
    if args.count < 1:
        parser.error("--count must be >= 1")
    if args.x_min > args.x_max:
        parser.error("--x-min must be <= --x-max")
    xs = [args.x_min] if args.count == 1 else [
        float(v) for v in np.linspace(args.x_min, args.x_max, args.count)]
    xs = [x for x in xs if x != 0.0]
    if not xs:
        parser.error("grid contains no usable points (only x = 0)")
    rows = [[_cell_num(x), _cell_num(ei(x))] for x in xs]
    fmt = "csv" if args.format == "text" else args.format
    _write_output(_render(["x", "ei"], rows, fmt), args)
    return 0


def _cmd_errata(parser: _Parser, args) -> int:
    from .errata import build_errata  # loaded here: no other command needs it

    entries = build_errata()
    if args.format in ("csv", "json"):
        rows = []
        for e in entries:
            rows.append([
                _cell_str(e.ident),
                _cell_str(e.context),
                _cell_str(e.printed),
                _cell_str(e.corrected),
                _cell_str(e.point),
                _cell_value(e.printed_value),
                _cell_value(e.corrected_value),
                _cell_value(e.reference_value),
                _cell_num(e.printed_abs_err),
                _cell_num(e.corrected_abs_err),
                _cell_num(e.demo_tol),
            ])
        header = ["ident", "context", "printed", "corrected", "point",
                  "printed_value", "corrected_value", "reference_value",
                  "printed_abs_err", "corrected_abs_err", "demo_tol"]
        _write_output(_render(header, rows, args.format), args)
        return 0
    lines = [f"errata report: {len(entries)} entries", ""]
    for i, e in enumerate(entries, 1):
        lines += [
            f"[{i:02d}] {e.ident}",
            f"  context:   {e.context}",
            f"  printed:   {e.printed}",
            f"  corrected: {e.corrected}",
            f"  point:     {e.point}",
            f"  printed value    {_fmt_value(e.printed_value)}"
            f"  (abs err {_fmt(e.printed_abs_err)})",
            f"  corrected value  {_fmt_value(e.corrected_value)}"
            f"  (abs err {_fmt(e.corrected_abs_err)})",
            f"  reference value  {_fmt_value(e.reference_value)}",
            "",
        ]
    _write_output("\n".join(lines) + "\n", args)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------

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
                tokens.extend([f"--{key}", value])
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
