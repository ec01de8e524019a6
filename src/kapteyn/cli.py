"""Command-line front-end: coefficient queries, evaluators, radius solves,
figure-data emitters, and the coefficient-sequence maps.

Output is CSV on stdout (comma separated, header row, LF endings) or JSON
with the global --json flag; decimals carry 15 significant digits and
exact rationals print as p/q.  Exit codes: 0 success, 1 internal or
numerical failure, 2 domain violation, 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from fractions import Fraction
from itertools import islice

from . import coeffs, domain, series
from .errors import DomainError, KapteynError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

_FIG_T_RANGE = (0.05, 20.0)
_FIG2_N_RANGE = (1, 300)
_FIG2_T = 0.1
_ESTIMATE_ORDER = 500

# figures over a t grid: id -> (default samples, header, values at t after t)
_T_FIGURES = {
    1: (61, ["t", "estimate"],
        lambda t: [domain.coeff_radius_estimate(_ESTIMATE_ORDER, t)]),
    3: (41, ["t", "R_solved", "estimate_500"],
        lambda t: [domain.solve_R(t).radius,
                   domain.coeff_radius_estimate(_ESTIMATE_ORDER, t)]),
    4: (100, ["t", "r", "R"],
        lambda t: [domain.solve_r(t).radius, domain.solve_R(t).radius]),
}
_EVALUATORS = {"direct": series.eval_direct, "power": series.eval_power}
_SOLVERS = {"R": domain.solve_R, "r": domain.solve_r}
# expand direction -> (input convention, map)
_EXPANSIONS = {"to-kapteyn": ("taylor_a", series.taylor_to_kapteyn),
               "to-taylor": ("kapteyn_alpha", series.kapteyn_to_taylor)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise UsageError(message)


def _float_str(x) -> str:
    """15-significant-digit decimal; exact rationals outside the normal
    float range are scaled through a power of ten instead of overflowing
    or losing digits to a subnormal float."""
    if isinstance(x, Fraction):
        try:
            f = float(x)
        except OverflowError:
            f = math.inf
        if x == 0 or sys.float_info.min <= abs(f) < math.inf:
            return f"{f:.15g}"
        log10 = (math.log(abs(x.numerator)) - math.log(x.denominator)) / math.log(10)
        e = int(math.floor(log10))
        mant = float(x / Fraction(10) ** e)
        return f"{mant:.15g}e{e:+d}"
    return f"{x:.15g}"


def _cell(v) -> str:
    """A CSV/JSON cell: strings as they are, integers exact, numbers by _float_str."""
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return str(v)
    return _float_str(v)


def _log_grid(lo: float, hi: float, count: int) -> list[float]:
    if not (lo > 0 and hi > lo):
        raise UsageError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    if count < 2:
        return [lo]
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(count)]


def _cmd_coeff(args) -> tuple[list[str], list[list]]:
    if args.k is not None and args.k > args.n:
        raise UsageError(f"k = {args.k} exceeds n = {args.n}")
    if args.k is None:
        entries = [(k, c) for k, c in enumerate(coeffs.a_poly(args.n).coeffs) if c != 0]
    else:
        entries = [(args.k, coeffs.coeff_closed_form(args.n, args.k))]
    return ["n", "k", "value"], [[args.n, k, str(c) if args.exact else c]
                                 for k, c in entries]


def _report_cells(rep: series.SeriesEvalReport) -> list:
    return [rep.value.real, rep.value.imag, rep.terms_used, rep.tail_bound]


def _cmd_eval(args) -> tuple[list[str], list[list]]:
    z = complex(args.z_re, args.z_im)
    methods = ["direct", "power"] if args.method == "both" else [args.method]
    reps = [_EVALUATORS[m](z, args.t, args.tol) for m in methods]
    if len(reps) == 1:
        return ["value_re", "value_im", "terms_used", "tail_bound"], [_report_cells(reps[0])]
    d, p = reps
    header = ["direct_re", "direct_im", "direct_terms", "direct_tail",
              "power_re", "power_im", "power_terms", "power_tail", "abs_diff"]
    return header, [_report_cells(d) + _report_cells(p) + [abs(d.value - p.value)]]


def _cmd_radius(args) -> tuple[list[str], list[list]]:
    if args.t == 0.0:
        raise UsageError("t must be nonzero")
    t = abs(args.t)
    header = ["t", "which", "radius", "branch", "residual", "iterations"]
    rows = []
    for which in (["R", "r"] if args.which == "both" else [args.which]):
        res = _SOLVERS[which](t)
        rows.append([args.t, which, res.radius, res.branch, res.residual, res.iterations])
    return header, rows


def _cmd_figure(args) -> tuple[list[str], list[list]]:
    fid = args.id
    if args.range is not None and not all(
            x.is_integer() if fid == 2 else math.isfinite(x) for x in args.range):
        raise UsageError(f"--range bounds must be {'integers' if fid == 2 else 'finite'}, "
                         f"got {args.range}")
    if fid == 2:
        n_lo, n_hi = _FIG2_N_RANGE if args.range is None else map(int, args.range)
        if args.samples is not None:
            n_hi = args.samples
        if not 1 <= n_lo <= n_hi:
            raise UsageError(f"bad n range [{n_lo}, {n_hi}]")
        stream = islice(coeffs._a_logabs_stream(_FIG2_T, n_lo), n_hi - n_lo + 1)
        rows = [[n, *v] for n, v in enumerate(stream, n_lo)]
        return ["n", "ln_abs_A_n", "sign"], rows

    default_samples, header, values_at = _T_FIGURES[fid]
    lo, hi = _FIG_T_RANGE if args.range is None else args.range
    samples = args.samples if args.samples is not None else default_samples
    if samples < 1:
        raise UsageError(f"--samples must be >= 1, got {samples}")
    return header, [[t, *values_at(t)] for t in _log_grid(lo, hi, samples)]


def _read_sequence(path: str) -> list[float]:
    """Parse a CSV of (index, value) pairs into a dense 1-indexed list."""
    entries: dict[int, float] = {}
    with open(path, newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise UsageError(f"{path}:{line_no}: expected 2 fields, got {len(row)}")
            try:
                idx, val = int(row[0]), float(row[1])
            except ValueError:
                try:
                    float(row[0])
                except ValueError:
                    if line_no == 1:
                        continue  # a header row: its first field is no number
                raise UsageError(f"{path}:{line_no}: cannot parse {row!r}") from None
            if idx in entries:
                raise UsageError(f"{path}:{line_no}: duplicate index {idx}")
            if not math.isfinite(val):
                raise UsageError(f"{path}:{line_no}: non-finite value {row[1]!r}")
            entries[idx] = val
    if not entries:
        return []
    if sorted(entries) != list(range(1, len(entries) + 1)):
        raise UsageError(f"{path}: indices must cover 1..{len(entries)} exactly")
    return [entries[i] for i in range(1, len(entries) + 1)]


def _cmd_expand(args) -> tuple[list[str], list[list]]:
    values = _read_sequence(args.input)
    header = ["index", "value"]
    if not values:
        return header, []
    n_out = args.n if args.n is not None else len(values)
    if n_out > len(values):
        raise UsageError(f"--n {n_out} exceeds input length {len(values)}")
    convention, expand = _EXPANSIONS[args.direction]
    mapped = expand(series.CoeffSequence(tuple(values), convention), n_out)
    return header, [[i, v] for i, v in enumerate(mapped.values, start=1)]


def build_parser() -> _Parser:
    parser = _Parser(prog="kapteyn",
                     description="Kapteyn series evaluators, exact coefficients, "
                                 "and convergence-radius solvers")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON objects mirroring the CSV columns")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="power-series coefficients C_k^n")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?", default=None)
    p.add_argument("--exact", action="store_true", help="print values as p/q")
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("eval", help="evaluate F(z,t)")
    p.add_argument("z_re", type=float)
    p.add_argument("z_im", type=float)
    p.add_argument("t", type=float)
    p.add_argument("--method", choices=("direct", "power", "both"), default="both")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("radius", help="solve the implicit radius equations")
    p.add_argument("t", type=float)
    p.add_argument("--which", choices=("R", "r", "both"), default="both")
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("figure", help="emit figure data as CSV")
    p.add_argument("id", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--samples", type=int, default=None,
                   help="sample count (figure 2: largest n)")
    p.add_argument("--range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"), help="t range (figure 2: n range)")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("expand", help="map coefficient sequences between conventions")
    p.add_argument("--direction", choices=("to-kapteyn", "to-taylor"), required=True)
    p.add_argument("--input", required=True, help="CSV of (index, value) pairs")
    p.add_argument("--n", type=int, default=None, help="output length")
    p.set_defaults(func=_cmd_expand)
    return parser


def _write(header: list[str], rows: list[list[str]], stream, json_mode: bool) -> None:
    if json_mode:
        payload = [dict(zip(header, row)) for row in rows]
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        header, rows = args.func(args)
        rows = [[_cell(v) for v in row] for row in rows]
        out_path = getattr(args, "out", "-")
        with (contextlib.nullcontext(sys.stdout) if out_path == "-"
              else open(out_path, "w", newline="")) as stream:
            _write(header, rows, stream, args.json)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (KapteynError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
