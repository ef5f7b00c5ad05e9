"""Command-line front end.

Three subcommands:

* ``table``  -- emit a table of any supported family (JSON / CSV / LaTeX)
* ``verify`` -- run an identity suite over a grid and report residuals
* ``limit``  -- classical-limit error study along a sequence of q values

Rational values always serialize as strings like ``"-2/3"`` (never as
floats), and output is byte-identical across runs when ``--no-meta`` is
given.

Exit codes: 0 success, 1 a gated identity failed, 2 argument errors,
3 domain errors (e.g. q = 1, or a value too large for its decimal
field), 4 any other error (``internal error: <type>: <message>`` on
stderr).  No input ends in a traceback.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import sys
import time
import warnings
from fractions import Fraction

from . import __version__
from .poly import Poly2
from .qcore import QParam, scalar_memo
from .identities import Grid, IdentityReport, SUITE_ORDER, default_grid, run_suite
from .qspecial import (
    FamilySpec,
    classical_limit_errors,
    family_table,
    is_monotone_decreasing,
    q_bernstein,
    q_stirling2,
)

# The Bernoulli and Euler families and their kinds; the classical ones are
# the q = None tables.  Families named q... take --q.
KINDS = {
    "qbernoulli": "q_bernoulli",
    "qeuler": "q_euler",
    "classical-bernoulli": "q_bernoulli",
    "classical-euler": "q_euler",
}
TABLE_FAMILIES = (*KINDS, "qstirling", "qbernstein", "stirling2")


class CliError(Exception):
    """Argument-level error: maps to exit code 2."""


def poly_terms(p: Poly2) -> list[dict]:
    return [
        {"dx": dx, "dy": dy, "coeff": str(c)} for (dx, dy), c in p.terms()
    ]


def poly_latex(terms: list[dict]) -> str:
    """LaTeX for a polynomial given as its ``poly_terms`` rows."""
    if not terms:
        return "0"
    bits = []
    for t in terms:
        mono = ""
        for v, d in (("x", t["dx"]), ("y", t["dy"])):
            if d == 1:
                mono += v
            elif d > 1:
                mono += f"{v}^{{{d}}}"
        num, _, den = t["coeff"].partition("/")
        if den:
            sign = "-" if num.startswith("-") else ""
            coeff = f"{sign}\\frac{{{num.lstrip('-')}}}{{{den}}}"
        else:
            coeff = num
        if mono and coeff in ("1", "-1"):
            coeff = coeff[:-1]  # keep just the sign
        bits.append(f"{coeff}{mono}" if mono else coeff)
    out = bits[0]
    for b in bits[1:]:
        out += " + " + b if not b.startswith("-") else " - " + b[1:]
    return out


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not a rational number: {text!r} ({exc})") from None


def _parse_q(text: str) -> QParam:
    return QParam(_parse_fraction(text))


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise CliError(f"not an integer list: {text!r} ({exc})") from None


def _parse_q_list(text: str) -> tuple[QParam, ...]:
    return tuple(_parse_q(v) for v in text.split(","))


# -- table command ---------------------------------------------------


def _q(args) -> QParam | None:
    """--q for a family named q..., which requires it; None for the others."""
    if not args.family.startswith("q"):
        return None
    if args.q is None:
        raise CliError(f"--q is required for family {args.family}")
    return _parse_q(args.q)


def _table_payload(args) -> dict:
    family, n_max = args.family, args.n_max
    if n_max < 0:
        raise CliError("--n-max must be nonnegative")
    if family not in KINDS and args.alpha is not None:
        raise CliError(f"--alpha does not apply to {family}")
    q = _q(args)
    payload: dict = {"family": family, "n_max": n_max}
    if q is not None:
        payload["q"] = str(q)
    if family in KINDS:
        alpha = payload["alpha"] = 1 if args.alpha is None else args.alpha
        table = family_table(FamilySpec(KINDS[family], alpha, q), n_max)
        payload["entries"] = [{"n": n, "poly": poly_terms(p)} for n, p in enumerate(table.entries)]
        return payload
    # the (n, k) triangles: q-Bernstein polynomials or q-Stirling numbers
    if family == "qbernstein":
        name, key, cell = "entries", "poly", lambda n, k: poly_terms(q_bernstein(q, n, k))
    else:
        name, key = "rows", "value"
        cell = lambda n, k: str(q_stirling2(q, n, k))
    payload[name] = [
        {"n": n, "k": k, key: cell(n, k)} for n in range(n_max + 1) for k in range(n + 1)
    ]
    return payload


def _flat(payload: dict) -> tuple[str, list[tuple[str, str | list[dict]]]]:
    """The index columns of a table and its (index, value) rows, in order.

    The index is ``n``, or ``n,k`` whenever the entries carry k; a value is
    a number string or the terms of a polynomial.
    """
    items = payload["rows"] if "rows" in payload else payload["entries"]
    cols = ("n", "k") if "k" in items[0] else ("n",)
    return ",".join(cols), [
        (",".join(str(e[c]) for c in cols), e["value"] if "value" in e else e["poly"])
        for e in items
    ]


def _table_csv(payload: dict) -> str:
    cols, rows = _flat(payload)
    lines = [f"{cols},value" if "rows" in payload else f"{cols},dx,dy,coeff"]
    for index, value in rows:
        if isinstance(value, str):
            lines.append(f"{index},{value}")
        else:
            lines.extend(f"{index},{t['dx']},{t['dy']},{t['coeff']}" for t in value)
    return "\n".join(lines) + "\n"


def _table_latex(payload: dict) -> str:
    lines = ["\\begin{tabular}{rl}", "n & value \\\\", "\\hline"]
    for index, value in _flat(payload)[1]:
        label = f"({index})" if "," in index else index
        if not isinstance(value, str):
            value = f"${poly_latex(value)}$"
        lines.append(f"{label} & {value} \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines) + "\n"


# -- verify command --------------------------------------------------


def _report_obj(r: IdentityReport) -> dict:
    obj = {
        "id": r.identity_id,
        "params": {k: v for k, v in r.params},
        "pass": r.passed,
        "residual": poly_terms(r.residual),
    }
    if r.correction_applied:
        obj["correction_applied"] = r.correction_applied
    if r.verdict_only:
        obj["verdict_only"] = True
    return obj


def _verify_payload(args) -> dict:
    try:
        grid = Grid(
            n_max=args.n_max,
            alpha_set=_parse_int_list(args.alpha_set),
            m_set=_parse_int_list(args.m_set),
            q_set=_parse_q_list(args.q_set),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    run: dict = {}
    memo = scalar_memo.cache_info()
    start = time.perf_counter()
    reports = run_suite(args.suite, grid, run)
    wall_s = time.perf_counter() - start
    after = scalar_memo.cache_info()
    # wall-clock data for the meta block only, so --no-meta output stays deterministic
    args.timing = {
        "wall_s": round(wall_s, 6),
        "suites": run["suites"],
        "scalar_memo": {"hits": after.hits - memo.hits, "misses": after.misses - memo.misses,
                        "size": after.currsize, "bound": after.maxsize},
        "run_cache": run["run_cache"],
    }
    if not reports:
        raise CliError(f"suite {args.suite} checks no identity on this grid")
    verdicts = [r for r in reports if r.verdict_only]
    holding = sum(r.passed for r in verdicts)
    payload = {
        "suite": args.suite,
        "grid": {
            "n_max": grid.n_max,
            "alpha_set": list(grid.alpha_set),
            "m_set": list(grid.m_set),
            "q_set": [str(q) for q in grid.q_set],
        },
        "total": len(reports),
        "failures": sum(not (r.passed or r.verdict_only) for r in reports),
        "reports": [_report_obj(r) for r in reports],
    }
    if verdicts:
        payload["verdicts"] = {
            "recorded": len(verdicts),
            "holding": holding,
            "failing": len(verdicts) - holding,
        }
    return payload


# -- limit command ---------------------------------------------------


def _limit_payload(args) -> dict:
    family = args.family
    if args.n < 0:
        raise CliError("--n must be nonnegative")
    x = _parse_fraction(args.x)
    q_seq = list(_parse_q_list(args.q_seq))
    errors = classical_limit_errors(KINDS[family], args.alpha, args.n, x, q_seq)
    return {
        "family": family,
        "alpha": args.alpha,
        "n": args.n,
        "x": str(x),
        "errors": [
            {"q": str(q), "error": str(e), "decimal": float(e)}
            for q, e in zip(q_seq, errors)
        ],
        "monotone_decreasing": is_monotone_decreasing(errors),
    }


# -- driver ----------------------------------------------------------

WRITERS = {"csv": _table_csv, "latex": _table_latex}  # json is what _emit writes by default


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None)
    output.add_argument("--no-meta", action="store_true")

    parser = argparse.ArgumentParser(
        prog="qbern",
        description="Exact tables and identity verification for generalized "
        "q-Bernoulli / q-Euler polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[output], help="emit a polynomial or number table")
    p.add_argument("--family", required=True, choices=TABLE_FAMILIES)
    p.add_argument("--alpha", type=int, default=None,
                   help="order of the Bernoulli and Euler families (default 1)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--q", default=None, help="rational q, e.g. 1/2")
    p.add_argument("--format", default="json", choices=("json", *WRITERS))

    p = sub.add_parser("verify", parents=[output], help="run an identity suite over a grid")
    p.add_argument("--suite", required=True, choices=(*SUITE_ORDER, "all"))
    grid = default_grid()
    p.add_argument("--n-max", type=int, default=grid.n_max)
    for flag, values in (("--alpha-set", grid.alpha_set), ("--m-set", grid.m_set),
                         ("--q-set", grid.q_set)):
        p.add_argument(flag, default=",".join(map(str, values)))

    p = sub.add_parser("limit", parents=[output], help="classical-limit error study")
    p.add_argument("--family", required=True, choices=("qbernoulli", "qeuler"))
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", default="0")
    p.add_argument("--q-seq", default="9/10,99/100,999/1000")

    return parser


def _emit(args, payload: dict, text: str | None = None) -> None:
    """Write ``text``, or the payload as JSON under a meta block unless --no-meta."""
    if text is None:
        doc = {"payload": payload} if args.no_meta else {
            "meta": {
                "tool": "qbern",
                "version": __version__,
                "command": " ".join(sys.argv[1:]) if sys.argv else "",
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                **({"timing": args.timing} if "timing" in vars(args) else {}),
            },
            "payload": payload,
        }
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


COMMANDS = {"table": _table_payload, "verify": _verify_payload, "limit": _limit_payload}

# The exit code and stderr line of an exception leaving a command; the
# first row that matches wins.
EXIT_CODES = (
    (CliError, 2, "error: {exc}"),
    ((ValueError, KeyError, IndexError, ArithmeticError), 3, "domain error: {exc}"),
    (Exception, 4, "internal error: {type}: {exc}"),
)


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Join an option and a following value that starts with a minus sign
    and a digit or point, so ``--q -7/3`` reads as ``--q=-7/3``; argparse
    would take ``-7/3`` for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # q outside (0,1) is fine here
            payload = COMMANDS[args.command](args)
            write = WRITERS.get(getattr(args, "format", "json"))
            _emit(args, payload, write(payload) if write else None)
    except Exception as exc:
        code, line = next((c, f) for types, c, f in EXIT_CODES if isinstance(exc, types))
        print(line.format(exc=exc, type=type(exc).__name__), file=sys.stderr)
        return code
    # exit code 1 means a gated identity failed
    return 1 if payload.get("failures") else 0


def entry() -> None:  # console-script wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
