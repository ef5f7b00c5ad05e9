"""Command-line front end.

Three subcommands:

* ``table``  -- emit a table of any supported family (JSON / CSV / LaTeX)
* ``verify`` -- run an identity suite over a grid and report residuals
* ``limit``  -- classical-limit error study along a sequence of q values

Rational values always serialize as strings like ``"-2/3"`` (never as
floats), and output is byte-identical across runs when ``--no-meta`` is
given.  A command's payload carries its polynomials as ``Poly2`` values;
each writer formats one where it writes it, from its integers
(``Poly2.term_ratios``).  Output is streamed: the writer puts each chunk
into --out, or stdout, as it formats it, so no output-sized string is
ever held.  A table is streamed from its source too: its entries (or
rows) are a lazy sequence, each built when the writer reaches it and
dropped once written, so no command holds a whole table.  The JSON meta
block follows the payload, as a table's build time is known only once
its last entry is built.  --out is opened before the command computes; if
computing, formatting or writing fails, an --out that is a regular file
is removed (a symlink or device is left alone), and what was already
written to stdout stays there, a table's earlier entries included; the
exit code is that of the error.

Exit codes: 0 success, 1 a gated identity failed, 2 argument errors,
3 domain errors (e.g. q = 1, or a value too large for its decimal
field), 4 any other error (``internal error: <type>: <message>`` on
stderr), 130 an interrupt, 141 a reader that closed stdout (``| head``;
no stderr line).  No input ends in a traceback.  ``entry`` (the console
script and ``python -m qbern.cli``) lifts Python's int-to-str digit
limit, so it writes coefficients of any size; ``main`` keeps the limit.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import os
import re
import stat
import sys
import time
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, repeat
from types import GeneratorType

from . import __version__
from .poly import Poly2
from .qcore import QParam, scalar_memo
from .identities import Grid, IdentityReport, SUITE_ORDER, default_grid, run_suite
from .qspecial import (
    FamilySpec,
    classical_limit_errors,
    family_entries,
    is_monotone_decreasing,
    q_bernstein,
    q_stirling2_rows,
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


def poly_terms(p: Poly2, base: int = 1) -> list[dict]:
    """The terms of ``p`` as rows; a coefficient is ``"n"`` or ``"n/d"`` in
    lowest terms, formatted from its integers with no ``Fraction`` built."""
    return [
        {"dx": dx, "dy": dy, "coeff": _ratio(n, d)} for (dx, dy), n, d in p.term_ratios(base)
    ]


def _ratio(n: int, d: int) -> str:
    return f"{n}/{d}" if d != 1 else str(n)


def poly_latex(p: Poly2, base: int = 1) -> str:
    """LaTeX for ``p``, built from the integers of its ``term_ratios(base)``."""
    return "".join(_latex_chunks(p, base))


def _latex_chunks(p: Poly2, base: int) -> Iterator[str]:
    """``poly_latex(p, base)`` one signed term at a time."""
    lead = True
    for (dx, dy), n, d in p.term_ratios(base):
        mono = "".join(v if e == 1 else f"{v}^{{{e}}}" for v, e in (("x", dx), ("y", dy)) if e)
        if d != 1:
            coeff = f"\\frac{{{abs(n)}}}{{{d}}}"
        else:  # a unit coefficient of a monomial keeps just its sign
            coeff = "" if mono and abs(n) == 1 else str(abs(n))
        yield (("-" if lead else " - ") if n < 0 else ("" if lead else " + ")) + coeff + mono
        lead = False
    if lead:
        yield "0"


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
    """The table's payload, its entries or rows a stream that builds each one
    as the writer asks for it; ``args.timing`` gets ``build_s`` once the stream ends."""
    family, n_max = args.family, args.n_max
    if n_max < 0:
        raise CliError("--n-max must be nonnegative")
    if family not in KINDS and args.alpha is not None:
        raise CliError(f"--alpha does not apply to {family}")
    q = _q(args)
    start = time.perf_counter()
    payload: dict = {"family": family, "n_max": n_max}
    if q is not None:
        payload["q"] = str(q)
    name = "entries"
    if family in KINDS:
        alpha = payload["alpha"] = 1 if args.alpha is None else args.alpha
        entries = family_entries(FamilySpec(KINDS[family], alpha, q), n_max)
        items = ({"n": n, "poly": p} for n, p in enumerate(entries))
    elif family == "qbernstein":
        items = ({"n": n, "k": k, "poly": q_bernstein(q, n, k)}
                 for n in range(n_max + 1) for k in range(n + 1))
    else:
        # one build of the triangle serves every row, and the memo keeps none of it
        name = "rows"
        items = ({"n": n, "k": k, "value": str(v)}
                 for n, row in enumerate(q_stirling2_rows(q, n_max))
                 for k, v in enumerate(map(Fraction, *row)))
    args.timing = {}
    payload[name] = _timed(items, args.timing, time.perf_counter() - start)
    return payload


def _timed(items: Iterator[dict], timing: dict, spent: float) -> Iterator[dict]:
    """The items, with the seconds spent building each one added to ``spent``;
    ``timing["build_s"]`` is the sum once the last one is built, before the
    writer reaches the meta block, which follows the payload."""
    while True:
        start = time.perf_counter()
        item = next(items, None)
        spent += time.perf_counter() - start
        if item is None:
            break
        yield item
    timing["build_s"] = round(spent, 6)


def _flat(payload: dict) -> tuple[str, Iterator[tuple[str, str | Poly2]]]:
    """The index columns of a table and its (index, value) rows, in order,
    each built as the writer asks for it.

    The index is ``n``, or ``n,k`` whenever the entries carry k; a value is
    a number string or a polynomial.
    """
    items = iter(payload["rows"] if "rows" in payload else payload["entries"])
    first = next(items)  # every table has an entry at n = 0
    cols = ("n", "k") if "k" in first else ("n",)
    return ",".join(cols), (
        (",".join(str(e[c]) for c in cols), e["value"] if "value" in e else e["poly"])
        for e in chain([first], items)
    )


def _table_csv(payload: dict, put, base: int) -> None:
    cols, rows = _flat(payload)
    put(f"{cols},value\n" if "rows" in payload else f"{cols},dx,dy,coeff\n")
    for index, value in rows:
        if isinstance(value, Poly2):
            for (dx, dy), n, d in value.term_ratios(base):
                put(f"{index},{dx},{dy},{_ratio(n, d)}\n")
        else:
            put(f"{index},{value}\n")


def _table_latex(payload: dict, put, base: int) -> None:
    put("\\begin{tabular}{rl}\nn & value \\\\\n\\hline\n")
    for index, value in _flat(payload)[1]:
        label = f"({index})" if "," in index else index
        if isinstance(value, Poly2):
            put(f"{label} & $")
            for chunk in _latex_chunks(value, base):
                put(chunk)
            put("$ \\\\\n")
        else:
            put(f"{label} & {value} \\\\\n")
    put("\\end{tabular}\n")


# -- verify command --------------------------------------------------


def _report_obj(r: IdentityReport) -> dict:
    obj = {
        "id": r.identity_id,
        "params": {k: v for k, v in r.params},
        "pass": r.passed,
        "residual": r.residual,
    }
    if r.correction_applied:
        obj["correction_applied"] = r.correction_applied
    if r.verdict_only:
        obj["verdict_only"] = True
    return obj


def _verify_payload(args) -> dict:
    q_set = _parse_q_list(args.q_set)  # an excluded q is a domain error, not a grid error
    try:
        grid = Grid(
            n_max=args.n_max,
            alpha_set=_parse_int_list(args.alpha_set),
            m_set=_parse_int_list(args.m_set),
            q_set=q_set,
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
        holding = sum(r.passed for r in verdicts)
        payload["verdicts"] = {"recorded": len(verdicts), "holding": holding,
                               "failing": len(verdicts) - holding}
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

def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: an option is read only by its full name, never by a prefix
    output = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    output.add_argument("--out", default=None)
    output.add_argument("--no-meta", action="store_true")

    parser = argparse.ArgumentParser(
        prog="qbern",
        description="Exact tables and identity verification for generalized "
        "q-Bernoulli / q-Euler polynomials",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    add = functools.partial(sub.add_parser, parents=[output], allow_abbrev=False)

    p = add("table", help="emit a polynomial or number table")
    p.add_argument("--family", required=True, choices=TABLE_FAMILIES)
    p.add_argument("--alpha", type=int, default=None,
                   help="order of the Bernoulli and Euler families (default 1)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--q", default=None, help="rational q, e.g. 1/2")
    p.add_argument("--format", default="json", choices=tuple(WRITERS))

    p = add("verify", help="run an identity suite over a grid")
    p.add_argument("--suite", required=True, choices=(*SUITE_ORDER, "all"))
    grid = default_grid()
    p.add_argument("--n-max", type=int, default=grid.n_max)
    for flag, values in (("--alpha-set", grid.alpha_set), ("--m-set", grid.m_set),
                         ("--q-set", grid.q_set)):
        p.add_argument(flag, default=",".join(map(str, values)))

    p = add("limit", help="classical-limit error study")
    p.add_argument("--family", required=True, choices=("qbernoulli", "qeuler"))
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", default="0")
    p.add_argument("--q-seq", default="9/10,99/100,999/1000")

    return parser


_string = json.encoder.encode_basestring_ascii


def _json(doc: dict | list, put, base: int = 1) -> None:
    """Put ``json.dumps(doc, indent=2) + "\\n"`` into ``put``, byte for byte,
    for a document of dicts with string keys, lists, strings, ints, floats,
    bools and None, chunk by chunk as it is formatted.  A generator is
    written as the list of its items, each read as it is written.  A ``Poly2`` leaf
    is written as its ``poly_terms(p, base)`` rows.

    With ``indent`` set, ``json.dumps`` leaves its C encoder for a
    pure-Python one.  Here each separator, key and scalar is one chunk,
    and each term of a ``Poly2`` is one chunk: a fixed template filled
    from the integers of ``term_ratios()``, which need no escaping.
    """

    # ``write`` is handed itself rather than naming itself from the enclosing
    # scope: a closure that names itself is a reference cycle, which keeps
    # ``put`` alive after the write, until the garbage collector runs
    def write(v: dict | list | GeneratorType, head: str, nl: str, write) -> None:
        """``head`` and then the container ``v``, whose closing line starts with ``nl``."""
        is_dict = isinstance(v, dict)
        inner = nl + "  "
        # the opening bracket goes out with the first item, so that a generator
        # is read once and, if it turns out empty, still written as []
        opening = sep = head + ("{" if is_dict else "[") + inner
        comma = "," + inner
        for k, x in v.items() if is_dict else zip(repeat(None), v):
            h = f"{sep}{_string(k)}: " if is_dict else sep
            sep = comma
            if isinstance(x, str):
                put(h + _string(x))
            elif type(x) is int:
                put(h + int.__repr__(x))
            elif isinstance(x, (dict, list, tuple, GeneratorType)):
                write(x, h, inner, write)
            elif isinstance(x, Poly2):
                # a term row is an indent-2 {"dx", "dy", "coeff"} object one level in; the
                # term list is dropped after its loop, before the next item is built
                item = inner + "  "
                key = item + "  "
                first = row = h + "[" + item
                for (dx, dy), n, d in x.term_ratios(base):
                    put(f'{row}{{{key}"dx": {dx},{key}"dy": {dy},{key}"coeff": "{n}/{d}"{item}}}'
                        if d != 1 else
                        f'{row}{{{key}"dx": {dx},{key}"dy": {dy},{key}"coeff": "{n}"{item}}}')
                    row = "," + item
                put(h + "[]" if row is first else inner + "]")
            else:  # a float, bool or None; any other type is json's TypeError
                put(h + json.dumps(x))
        if sep is opening:
            put(head + ("{}" if is_dict else "[]"))
        else:
            put(nl + ("}" if is_dict else "]"))

    write(doc, "", "\n", write)
    put("\n")


# The writer of each --format: ``writer(doc, put, base)`` puts the output into ``put``
WRITERS = {"json": _json, "csv": _table_csv, "latex": _table_latex}


def _emit(argv: list[str], args, payload: dict, put) -> None:
    """Put the table in its --format, or JSON with a meta block after the payload
    unless --no-meta, into ``put``.  ``args.timing`` is read when the writer reaches
    the meta block, after the payload's last item is built."""
    fmt = getattr(args, "format", "json")
    base = Fraction(payload["q"]).denominator if "q" in payload else 1  # for term_ratios
    doc = payload
    if fmt == "json":
        doc = {"payload": payload} if args.no_meta else {
            "payload": payload,
            "meta": {
                "tool": "qbern",
                "version": __version__,
                "command": " ".join(argv),
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                **({"timing": args.timing} if "timing" in vars(args) else {}),
            },
        }
    WRITERS[fmt](doc, put, base)


@contextlib.contextmanager
def _output(out: str | None):
    """The ``put`` of --out, opened before the command computes, or of stdout.  If
    the command or its writer raises, an --out that is a regular file is removed (a
    symlink or device is left alone); what already went to stdout stays there."""
    if not out:
        try:
            yield sys.stdout.write
            sys.stdout.flush()
        except BrokenPipeError:
            # as the signal module's "Note on SIGPIPE" says: stdout's descriptor
            # goes to devnull, so that the interpreter's exit flush cannot raise
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise
        return
    try:
        fh = open(out, "w")
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror}") from None
    try:
        with fh:
            yield fh.write
    except BaseException as exc:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(out).st_mode):
                os.remove(out)
        if isinstance(exc, OSError):
            raise CliError(f"cannot write {out}: {exc.strerror}") from None
        raise


COMMANDS = {"table": _table_payload, "verify": _verify_payload, "limit": _limit_payload}

# The exit code and stderr line of an exception leaving a command; the first row that
# matches wins.  A BrokenPipeError is stdout's (--out's is a CliError): 128 + SIGPIPE.
EXIT_CODES = (
    (CliError, 2, "error: {exc}"),
    ((ValueError, KeyError, IndexError, ArithmeticError), 3, "domain error: {exc}"),
    (BrokenPipeError, 141, ""),
    (KeyboardInterrupt, 130, "interrupted"),
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_glue_negative_values(argv))
        with _output(args.out) as put:
            payload = COMMANDS[args.command](args)
            _emit(argv, args, payload, put)
    except SystemExit as exc:  # from argparse: --help, or an argument error
        return 2 if exc.code not in (0, None) else 0
    except (Exception, KeyboardInterrupt) as exc:
        code, line = next((c, f) for types, c, f in EXIT_CODES if isinstance(exc, types))
        if line:
            print(line.format(exc=exc, type=type(exc).__name__), file=sys.stderr)
        return code
    # exit code 1 means a gated identity failed
    return 1 if payload.get("failures") else 0


def entry() -> None:  # console-script wrapper
    # a deep table at a large q-denominator exceeds the default digit limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
