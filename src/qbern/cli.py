"""Command-line front end.

Three subcommands:

* ``table``  -- emit a table of any supported family (JSON / CSV / LaTeX)
* ``verify`` -- run an identity suite over a grid and report residuals
* ``limit``  -- classical-limit error study along a sequence of q values

Rational values always serialize as strings like ``"-2/3"`` (never as
floats), and output is byte-identical across runs when ``--no-meta`` is
given.

Exit codes: 0 success, 1 verification failures, 2 argument errors,
3 domain errors (e.g. q = 1).
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import warnings
from fractions import Fraction

from . import __version__
from .poly import Poly2
from .qcore import QParam, QParamError
from .identities import Grid, IdentityReport, SUITES, run_suite
from .qspecial import (
    FamilySpec,
    classical_limit_errors,
    classical_stirling2,
    family_table,
    is_monotone_decreasing,
    q_bernstein,
    q_stirling2,
)

TABLE_FAMILIES = (
    "qbernoulli",
    "qeuler",
    "qstirling",
    "qbernstein",
    "classical-bernoulli",
    "classical-euler",
    "stirling2",
)


class CliError(Exception):
    """Argument-level error: maps to exit code 2."""


def poly_terms(p: Poly2) -> list[dict]:
    return [
        {"dx": dx, "dy": dy, "coeff": str(c)} for (dx, dy), c in p.terms()
    ]


def poly_from_terms(terms: list[dict]) -> Poly2:
    return Poly2(
        [((t["dx"], t["dy"]), Fraction(t["coeff"])) for t in terms]
    )


def poly_latex(p: Poly2) -> str:
    if p.is_zero:
        return "0"
    bits = []
    for (dx, dy), c in p.terms():
        mono = ""
        for v, d in (("x", dx), ("y", dy)):
            if d == 1:
                mono += v
            elif d > 1:
                mono += f"{v}^{{{d}}}"
        if c.denominator == 1:
            coeff = str(c.numerator)
        else:
            sign = "-" if c < 0 else ""
            coeff = f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
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


def _table_payload(args) -> dict:
    family = args.family
    n_max = args.n_max
    if n_max < 0:
        raise CliError("--n-max must be nonnegative")
    payload: dict = {"family": family, "n_max": n_max}

    if family in ("qbernoulli", "qeuler", "classical-bernoulli", "classical-euler"):
        kind = "q_bernoulli" if "bernoulli" in family else "q_euler"
        q = None
        if family.startswith("q"):
            if args.q is None:
                raise CliError(f"--q is required for family {family}")
            q = _parse_q(args.q)
            payload["q"] = str(q)
        payload["alpha"] = args.alpha
        table = family_table(FamilySpec(kind, args.alpha, q), n_max)
        payload["entries"] = [
            {"n": n, "poly": poly_terms(table[n])} for n in range(n_max + 1)
        ]
    elif family == "stirling2":
        payload["rows"] = [
            {"n": n, "k": k, "value": str(classical_stirling2(n, k))}
            for n in range(n_max + 1)
            for k in range(n + 1)
        ]
    elif family == "qstirling":
        if args.q is None:
            raise CliError("--q is required for family qstirling")
        q = _parse_q(args.q)
        payload["q"] = str(q)
        payload["rows"] = [
            {"n": n, "k": k, "value": str(q_stirling2(q, n, k))}
            for n in range(n_max + 1)
            for k in range(n + 1)
        ]
    elif family == "qbernstein":
        if args.q is None:
            raise CliError("--q is required for family qbernstein")
        q = _parse_q(args.q)
        payload["q"] = str(q)
        payload["entries"] = [
            {"n": n, "k": k, "poly": poly_terms(q_bernstein(q, n, k))}
            for n in range(n_max + 1)
            for k in range(n + 1)
        ]
    else:  # pragma: no cover - argparse choices guard this
        raise CliError(f"unknown family {family!r}")
    return payload


def _table_csv(payload: dict) -> str:
    lines = []
    if "rows" in payload:
        lines.append("n,k,value")
        for row in payload["rows"]:
            lines.append(f"{row['n']},{row['k']},{row['value']}")
    else:
        lines.append("n,dx,dy,coeff")
        for entry in payload["entries"]:
            for t in entry["poly"]:
                lines.append(f"{entry['n']},{t['dx']},{t['dy']},{t['coeff']}")
    return "\n".join(lines) + "\n"


def _table_latex(payload: dict) -> str:
    lines = ["\\begin{tabular}{rl}", "n & value \\\\", "\\hline"]
    if "rows" in payload:
        for row in payload["rows"]:
            lines.append(f"({row['n']},{row['k']}) & {row['value']} \\\\")
    else:
        for entry in payload["entries"]:
            label = entry["n"] if "k" not in entry else f"({entry['n']},{entry['k']})"
            lines.append(f"{label} & ${poly_latex(poly_from_terms(entry['poly']))}$ \\\\")
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


def _verify_payload(args) -> tuple[dict, int]:
    try:
        grid = Grid(
            n_max=args.n_max,
            alpha_set=_parse_int_list(args.alpha_set),
            m_set=_parse_int_list(args.m_set),
            q_set=_parse_q_list(args.q_set),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    reports = run_suite(args.suite, grid)
    if not reports:
        raise CliError(f"suite {args.suite} checks no identity on this grid")
    failures = [r for r in reports if not r.passed and not r.verdict_only]
    verdict_fails = [r for r in reports if not r.passed and r.verdict_only]
    payload = {
        "suite": args.suite,
        "grid": {
            "n_max": grid.n_max,
            "alpha_set": list(grid.alpha_set),
            "m_set": list(grid.m_set),
            "q_set": [str(q) for q in grid.q_set],
        },
        "total": len(reports),
        "failures": len(failures),
        "reports": [_report_obj(r) for r in reports],
    }
    verdict_reports = [r for r in reports if r.verdict_only]
    if verdict_reports:
        payload["verdicts"] = {
            "recorded": len(verdict_reports),
            "holding": sum(r.passed for r in verdict_reports),
            "failing": len(verdict_fails),
        }
    return payload, (1 if failures else 0)


# -- limit command ---------------------------------------------------


def _limit_payload(args) -> dict:
    family = args.family
    if family not in ("qbernoulli", "qeuler"):
        raise CliError("limit supports families qbernoulli and qeuler")
    kind = "q_bernoulli" if family == "qbernoulli" else "q_euler"
    x = _parse_fraction(args.x)
    q_seq = list(_parse_q_list(args.q_seq))
    errors = classical_limit_errors(kind, args.alpha, args.n, x, q_seq)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbern",
        description="Exact tables and identity verification for generalized "
        "q-Bernoulli / q-Euler polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="emit a polynomial or number table")
    p.add_argument("--family", required=True, choices=TABLE_FAMILIES)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--q", default=None, help="rational q, e.g. 1/2")
    p.add_argument("--format", default="json", choices=("json", "csv", "latex"))
    p.add_argument("--out", default=None)
    p.add_argument("--no-meta", action="store_true")

    p = sub.add_parser("verify", help="run an identity suite over a grid")
    p.add_argument(
        "--suite",
        required=True,
        choices=tuple(sorted(SUITES)) + ("exp-inverse", "all"),
    )
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--alpha-set", default="1,2,3")
    p.add_argument("--m-set", default="1,2,3")
    p.add_argument("--q-set", default="1/2,1/3,3/4")
    p.add_argument("--format", default="json", choices=("json",))
    p.add_argument("--out", default=None)
    p.add_argument("--no-meta", action="store_true")

    p = sub.add_parser("limit", help="classical-limit error study")
    p.add_argument("--family", required=True)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", default="0")
    p.add_argument("--q-seq", default="9/10,99/100,999/1000")
    p.add_argument("--out", default=None)
    p.add_argument("--no-meta", action="store_true")

    return parser


def _emit(args, payload: dict, text: str | None = None) -> None:
    if text is None:
        doc = {} if args.no_meta else {
            "meta": {
                "tool": "qbern",
                "version": __version__,
                "command": " ".join(sys.argv[1:]) if sys.argv else "",
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            }
        }
        if args.no_meta:
            doc = {"payload": payload}
        else:
            doc["payload"] = payload
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # q outside (0,1) is fine here
            if args.command == "table":
                payload = _table_payload(args)
                if args.format == "csv":
                    _emit(args, payload, _table_csv(payload))
                elif args.format == "latex":
                    _emit(args, payload, _table_latex(payload))
                else:
                    _emit(args, payload)
                return 0
            if args.command == "verify":
                payload, code = _verify_payload(args)
                _emit(args, payload)
                return code
            payload = _limit_payload(args)
            _emit(args, payload)
            return 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QParamError, ValueError, KeyError, IndexError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:  # console-script wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
