"""One definition per stated identity.

Each identity is a left side and a right side, assembled as exact
polynomials at every point of its parameter axes; the report carries the
residual (left minus right).  A pass means the residual is the zero
polynomial; there is no tolerance anywhere.

Vocabulary: ``qconv(q, n, a, b, w)`` = sum_k [n k]_q w(k) a(k) b(n - k),
the convolution most formulas are built from; a table ``T`` has rows
``T[n]``, projected rows ``T.x0``, ``T.y0``, ``T.ym1`` (x = 0, y = 0,
y = -1) and numbers ``T.num``; a named sequence ``c.seq(name, f, *axes)``
is f keyed on q and the point's values of ``axes``.  Tables and named
sequences are built once per run, in one store.  ``q = None`` is
the classical limit (see ``qcore``), so a classical q -> 1 instance of a
q-identity is that definition at q = None.

A few printed formulas in the source material carry typos.  Corrections
are data, not silent edits: every corrected identity carries a
``correction_applied`` string naming the fix (see CORRECTIONS), and each
correction was confirmed against the generating-function machinery
before being frozen here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator

from .poly import Poly2, X, symbolic_pair_power
from .qcore import QParam, q_binomial, q_number, q_pair_power, gauss_exponent, scalar_memo
from .series import Eq_series, eq_series
from .qspecial import FamilySpec, PolyTable, family_table, q_bernstein, q_stirling2

# The documented typo ledger.  Keys are identity ids; values name the
# applied correction.  Every correction is an index/symbol-level fix
# confirmed exactly against the series oracle.
CORRECTIONS: dict[str, str] = {
    "sp1-2": "summand symbol [n j] read as [n k]",
    "sp2-1": "summand factor [n k] m^k restored (printed coefficient 1/(m^{n-1}[k+1]) "
    "omits it; the m = 1 specialization printed later carries the [n k])",
    "c1-2": "summand symbol [n j] read as [n k]; spurious inner m^k before the "
    "first bracket term dropped",
    "be9": "left-hand index n-1 read as n (matches the monomial expansion drawn from it)",
    "be7-y": "struck-through exponent read as (n-k)(n-k-1)/2",
    "be8-y": "struck-through exponent read as (n-k)(n-k-1)/2",
    "cw2": "closing term multiplied by [n] (the k = 1 summand it replaces carries [n choose 1])",
    "cw3": "closing term multiplied by [n] (the k = 1 summand it replaces carries [n choose 1])",
    "classical-c2-2": "classical right-hand polynomials read with ordinary factorials (E, not E_q)",
    "bb1": "left side multiplied by [n choose k] (the proof's first chain "
    "produces [n choose k] b_{n,k}; the final display drops the factor)",
}


@dataclass(frozen=True)
class Grid:
    n_max: int
    alpha_set: tuple[int, ...]
    m_set: tuple[int, ...]
    q_set: tuple[QParam, ...]

    def __post_init__(self) -> None:
        if self.n_max < 2:
            raise ValueError("n_max must be at least 2")
        if not (self.alpha_set and self.m_set and self.q_set):
            raise ValueError("alpha_set, m_set and q_set must be nonempty")
        if any(a < 0 for a in self.alpha_set):
            raise ValueError("alpha values must be nonnegative integers")
        if any(m < 1 for m in self.m_set):
            raise ValueError("m values must be positive integers")
        if any(len(set(v)) != len(v) for v in (self.alpha_set, self.m_set, self.q_set)):
            raise ValueError("alpha_set, m_set and q_set must not repeat a value")


def default_grid() -> Grid:
    q_set = tuple(QParam(Fraction(v)) for v in ("1/2", "1/3", "3/4"))
    return Grid(n_max=8, alpha_set=(1, 2, 3), m_set=(1, 2, 3), q_set=q_set)


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    params: tuple[tuple[str, str], ...]
    lhs: Poly2
    rhs: Poly2
    residual: Poly2
    passed: bool
    correction_applied: str | None = None
    verdict_only: bool = False  # unproven statement: record, don't gate

    def sort_key(self) -> tuple:
        return (self.identity_id, self.params)


def _report(
    identity_id: str, lhs: Poly2, rhs: Poly2, *, verdict_only=False, **kw
) -> IdentityReport:
    residual = lhs - rhs
    params = tuple((k, str(v)) for k, v in kw.items())
    return IdentityReport(identity_id, params, lhs, rhs, residual, residual.is_zero,
                          CORRECTIONS.get(identity_id), verdict_only)


class TableCache:
    """The one store of a run: each polynomial table, as deep as the run
    reads, and each value of a named sequence, built once."""

    def __init__(self, max_n: int):
        self.max_n = max_n
        self.hits = self.misses = 0
        self._store: dict[tuple, object] = {}

    def once(self, key: tuple, build: Callable[[], object]):
        """The value stored under ``key``, built by ``build()`` on first use."""
        if key in self._store:
            self.hits += 1
        else:
            self.misses += 1
            self._store[key] = build()
        return self._store[key]

    def get(self, kind: str, q: QParam | None, alpha: int) -> PolyTable:
        return self.once((kind, q, alpha),
                         lambda: family_table(FamilySpec(kind, alpha, q), self.max_n))


# -- the convolution and the evaluation point ------------------------

BERN, EUL = "q_bernoulli", "q_euler"
KINDS = {"bern": BERN, "eul": EUL}


def _fn(s) -> Callable:
    """A sequence or a function, as a function of the index."""
    return s if callable(s) else s.__getitem__


def _one(j: int) -> int:
    return 1


def _x(j: int) -> Poly2:
    return Poly2.monomial(j, 0)


def qconv(q: QParam | None, n: int, a, b, w: Callable = _one) -> Poly2:
    """sum_k [n k]_q w(k) a(k) b(n - k); a and b are sequences or functions
    of polynomials or scalars, and terms of zero weight are skipped."""
    a, b = _fn(a), _fn(b)
    return Poly2.linear_combination(
        (c, a(k), b(n - k)) for k in range(n + 1) if (c := q_binomial(q, n, k) * w(k))
    )


def _recurrence_power(q: QParam | None, m: int, p: int) -> Fraction:
    return q_pair_power(q, Fraction(1, m), Fraction(-1), p)


class Point:
    """One parameter tuple of an identity and the tables its formulas read.

    B, E are the Bernoulli and Euler tables of order alpha (1 when the
    identity has no alpha axis), Bm, Em those of order alpha - 1, B1, E1
    those of order 1, and T the table of the point's kind.
    """

    q: QParam | None = None
    alpha = 1

    def __init__(self, cache: TableCache, **params):
        self.cache = cache
        self.__dict__.update(params)

    def table(self, kind: str, alpha: int) -> PolyTable:
        return self.cache.get(kind, self.q, alpha)

    def seq(self, name: str, f: Callable[[int], Poly2], *axes: str) -> Callable[[int], Poly2]:
        """f as a sequence kept in the run's store under (name, q, the point's
        values of ``axes``, index): f must read no other parameter."""
        key = (name, self.q, *(getattr(self, a) for a in axes))
        return lambda i: self.cache.once((*key, i), lambda: f(i))

    B = cached_property(lambda c: c.table(BERN, c.alpha))
    E = cached_property(lambda c: c.table(EUL, c.alpha))
    Bm = cached_property(lambda c: c.table(BERN, c.alpha - 1))
    Em = cached_property(lambda c: c.table(EUL, c.alpha - 1))
    B1 = cached_property(lambda c: c.table(BERN, 1))
    E1 = cached_property(lambda c: c.table(EUL, 1))
    T = cached_property(lambda c: c.table(KINDS[c.kind], c.alpha))

    def ey(self, j: int) -> Poly2:
        """q^{j(j-1)/2} y^j: the order-zero polynomial at x = 0."""
        return Poly2.monomial(0, j, gauss_exponent(self.q, j))

    def pair(self, j: int) -> Poly2:
        """The q-analogue of (x + y)^j: the order-zero polynomial."""
        return symbolic_pair_power(self.q, j)

    def pair_ym1(self, j: int) -> Poly2:
        return self.pair(j).substitute("y", -1)

    def P(self, p: int) -> Fraction:
        """The scalar (1/m + (-1))-pair power of the recurrences, memoized on
        the integer m so that a read builds and hashes no Fraction."""
        return scalar_memo(_recurrence_power, self.q, self.m, p)

    def ysum(self, k: int, s) -> Poly2:
        """sum_j [k j] m^j s(j)."""
        return qconv(self.q, k, s, _one, lambda j: self.m ** j)

    def xsum(self, k: int, s) -> Poly2:
        """sum_j [k j] P(k - j) s(j)."""
        return qconv(self.q, k, s, self.P)

    def down(self, s) -> Poly2:
        """[n] s(n - 1), zero at n = 0."""
        return q_number(self.q, self.n) * _fn(s)(self.n - 1) if self.n else Poly2.zero()


# -- the shared brackets ---------------------------------------------


def _sp1_y(c: Point, name: str, lower) -> Poly2:
    """sp1-1, with the order-(alpha - 1) polynomials at y = -1 as ``lower``."""
    B, E1, m = c.B, c.E1, c.m

    def bracket(k):
        return m ** k * B.y0[k] + c.ysum(k, B.ym1) + m * q_number(c.q, k) * c.ysum(k - 1, lower)

    rhs = qconv(c.q, c.n, c.seq(name, bracket, "alpha", "m"),
                c.seq("E1.x0(my)", lambda i: E1.x0[i].scale_var("y", m), "m"))
    return rhs * Fraction(1, 2 * m ** c.n)


def _sp1_x(c: Point, name: str, lower) -> Poly2:
    """sp1-2, with the order-(alpha - 1) polynomials at x = 0 as ``lower``."""
    B, E1, m = c.B, c.E1, c.m

    def bracket(k):
        return B.x0[k] + c.xsum(k, B.x0) + q_number(c.q, k) * c.xsum(k - 1, lower)

    rhs = qconv(c.q, c.n, c.seq(name, bracket, "alpha", "m"),
                c.seq("E1.y0(mx)", lambda i: E1.y0[i].scale_var("x", m), "m"), lambda k: m ** k)
    return rhs * Fraction(1, 2 * m ** c.n)


def _sp2_y(c: Point, name: str, lower) -> Poly2:
    """sp2-2, with the order-(alpha - 1) polynomials at y = -1 as ``lower``."""
    E, B1, m, low = c.E, c.B1, c.m, _fn(lower)

    def bracket(k):
        return c.ysum(k + 1, lambda j: 2 * low(j) - E.ym1[j]) - m ** (k + 1) * E.y0[k + 1]

    return qconv(c.q, c.n, c.seq(name, bracket, "alpha", "m"),
                 c.seq("B1.x0(my)", lambda i: B1.x0[i].scale_var("y", m), "m"),
                 lambda k: 1 / (Fraction(m) ** c.n * q_number(c.q, k + 1)))


def _sp2_x(c: Point) -> Poly2:
    E, Em, B1, m = c.E, c.Em, c.B1, Fraction(c.m)

    def bracket(k):
        return c.xsum(k + 1, lambda j: 2 * Em.x0[j] - E.x0[j]) - E.x0[k + 1]

    return qconv(c.q, c.n, c.seq("sp2-1", bracket, "alpha", "m"),
                 c.seq("B1.y0(mx)", lambda i: B1.y0[i].scale_var("x", m), "m"),
                 lambda k: m ** (k - c.n + 1) / q_number(c.q, k + 1))


def _be9(c: Point) -> Poly2:
    """sum_{k <= n} [n+1 k] B_k(0, y) / [n + 1]."""
    return qconv(c.q, c.n + 1, c.B.x0, _one, lambda k: k <= c.n) * (1 / q_number(c.q, c.n + 1))


def _be10(c: Point) -> Poly2:
    """(E_n(0, y) + sum_k [n k] E_k(0, y)) / 2."""
    return (c.E.x0[c.n] + qconv(c.q, c.n, c.E.x0, _one)) * Fraction(1, 2)


def _cw(c: Point, e) -> Poly2:
    """sum_k [n k] b_k e(n - k), with the k = 1 number raised by 1/2."""
    return qconv(c.q, c.n, lambda k: c.B.num[k] + (Fraction(1, 2) if k == 1 else 0), e)


def _euler_c4(c: Point, b) -> Poly2:
    """-sum_k 2 [n k] / [k + 1] e_{k+1} b(n - k)."""
    return qconv(c.q, c.n, lambda k: c.E.num[k + 1], b, lambda k: -2 / q_number(c.q, k + 1))


def _stirling_rhs(c: Point) -> Poly2:
    """sum_r x^r sum_j r!/(r-j)! m^{j-n} sum_k [n k] S(n-k, j) T_k(0, y)."""
    n, m = c.n, Fraction(c.m)
    inner = c.seq("stirling-inner", lambda j: qconv(
        c.q, n, c.T.x0, lambda i: q_stirling2(None, i, j)), "kind", "alpha", "n")
    return Poly2.linear_combination(
        (m ** (j - n), inner(j), Poly2({(r, 0): math.perm(r, j) for r in range(j, n + 2)}))
        for j in range(n + 1))


# -- identity definitions and suites ---------------------------------

# An axis is (report key, values given the grid and the values bound so far).
KIND = ("kind", lambda g, p: tuple(KINDS))
N = ("n", lambda g, p: range(g.n_max + 1))
N1 = ("n", lambda g, p: range(1, g.n_max + 1))
N10 = ("n", lambda g, p: range(max(g.n_max, 10) + 1))
K = ("k", N[1])
K_N = ("k", lambda g, p: range(p["n"] + 1))
ALPHA = ("alpha", lambda g, p: [a for a in g.alpha_set if a >= 1])
ALPHA0 = ("alpha", lambda g, p: g.alpha_set)
M = ("m", lambda g, p: g.m_set)
Q = ("q", lambda g, p: g.q_set)
ORDER = ("order", lambda g, p: (g.n_max,))


@dataclass(frozen=True)
class Identity:
    id: str | tuple[str, str]  # a (Bernoulli, Euler) pair along a kind axis
    axes: tuple[tuple[str, Callable], ...]  # in report parameter order
    lhs: Callable[[Point], Poly2]
    rhs: Callable[[Point], Poly2]
    classical: str | None = None  # id of the q = None instance

    def points(self, grid: Grid) -> Iterator[tuple[str, dict]]:
        """(report id, parameters) at every point, then at every classical point."""
        yield from ((self.id, p) for p in _points(self.axes, grid))
        if self.classical:
            classical_axes = [a for a in self.axes if a is not Q]
            yield from ((self.classical, p) for p in _points(classical_axes, grid))


def _points(axes, grid: Grid, bound: tuple = ()) -> Iterator[dict]:
    if not axes:
        yield dict(bound)
        return
    (key, values), *rest = axes
    for v in values(grid, dict(bound)):
        yield from _points(rest, grid, (*bound, (key, v)))


SUITES: dict[str, Callable[[Grid, TableCache], list[IdentityReport]]] = {}


def _suite(name: str, doc: str, *defs: tuple, verdict_only: bool = False):
    """Register a suite of identities, each given as the fields of an
    Identity; its checker reports every identity at every point."""
    identities = [Identity(*d) for d in defs]

    def check(grid: Grid, cache: TableCache) -> list[IdentityReport]:
        reports = []
        for ident in identities:
            for rid, params in ident.points(grid):
                if not isinstance(rid, str):
                    rid = rid[tuple(KINDS).index(params["kind"])]
                c = Point(cache, **params)
                lhs, rhs = ident.lhs(c), ident.rhs(c)
                reports.append(_report(rid, lhs, rhs, verdict_only=verdict_only, **params))
        return sorted(reports, key=IdentityReport.sort_key)

    check.__doc__ = doc
    SUITES[name] = check
    return check


check_addition = _suite(
    "lemma1", "Lemma 1: addition theorems and their x/y = 0 and x/y = 1 specializations.",
    ("lemma1-pair", (KIND, N, ALPHA0, Q), lambda c: c.T[c.n],
     lambda c: qconv(c.q, c.n, c.T.num, c.pair)),
    (("be1-y", "be2-y"), (KIND, N, ALPHA0, Q), lambda c: c.T[c.n],
     lambda c: qconv(c.q, c.n, c.T.y0, c.ey)),
    (("be1-x", "be2-x"), (KIND, N, ALPHA0, Q), lambda c: c.T[c.n],
     lambda c: qconv(c.q, c.n, c.T.x0, _x)),
    (("be7-x", "be8-x"), (KIND, N, ALPHA0, Q), lambda c: c.T.y0[c.n],
     lambda c: qconv(c.q, c.n, c.T.num, _x)),
    (("be7-y", "be8-y"), (KIND, N, ALPHA0, Q), lambda c: c.T.x0[c.n],
     lambda c: qconv(c.q, c.n, c.T.num, c.ey)),
    (("be3-y1", "be4-y1"), (KIND, N, ALPHA0, Q), lambda c: c.T[c.n].substitute("y", 1),
     lambda c: qconv(c.q, c.n, c.T.y0, lambda j: gauss_exponent(c.q, j))),
    (("be3-x1", "be4-x1"), (KIND, N, ALPHA0, Q), lambda c: c.T[c.n].substitute("x", 1),
     lambda c: qconv(c.q, c.n, c.T.x0, _one)),
)
check_q_derivative = _suite(
    "lemma2", "Lemma 2: the Jackson-derivative ladder in each variable.",
    (("lemma2-bern-x", "lemma2-eul-x"), (KIND, N1, ALPHA0, Q), lambda c: c.T[c.n].jackson("x", c.q),
     lambda c: c.down(c.T)),
    (("lemma2-bern-y", "lemma2-eul-y"), (KIND, N1, ALPHA0, Q), lambda c: c.T[c.n].jackson("y", c.q),
     lambda c: c.down(lambda i: c.T[i].scale_var("y", c.q.value))),
)
check_difference = _suite(
    "lemma3", "Lemma 3: difference equations linking order alpha to order alpha - 1.",
    ("be5", (N, ALPHA, Q), lambda c: c.B[c.n].substitute("x", 1) - c.B.x0[c.n],
     lambda c: c.down(c.Bm.x0)),
    ("be6", (N, ALPHA, Q), lambda c: c.E[c.n].substitute("x", 1) + c.E.x0[c.n],
     lambda c: 2 * c.Em.x0[c.n]),
    ("be5-x", (N, ALPHA, Q), lambda c: c.B.y0[c.n] - c.B.ym1[c.n], lambda c: c.down(c.Bm.ym1)),
    ("be6-x", (N, ALPHA, Q), lambda c: c.E.y0[c.n] + c.E.ym1[c.n], lambda c: 2 * c.Em.ym1[c.n]),
)
check_inversion = _suite(
    "lemma4", "Lemma 4: order-lowering expansions and, at order one, the monomial expansions.",
    ("be9", (N, ALPHA, Q), lambda c: c.Bm.x0[c.n], _be9),
    ("be10", (N, ALPHA, Q), lambda c: c.Em.x0[c.n], _be10),
    ("monomial-bern", (N, Q), lambda c: Poly2.monomial(0, c.n),
     lambda c: _be9(c) * (1 / gauss_exponent(c.q, c.n)), "cl1-bern"),
    ("monomial-eul", (N, Q), lambda c: Poly2.monomial(0, c.n),
     lambda c: _be10(c) * (1 / gauss_exponent(c.q, c.n)), "cl1-eul"),
)
check_recurrence = _suite(
    "lemma5", "Lemma 5: the four recurrences with the scaling modulus m.",
    ("be11", (K, ALPHA, M, Q), lambda c: c.ysum(c.k, lambda j: c.B.y0[j] - c.B.ym1[j]),
     lambda c: c.m * q_number(c.q, c.k) * c.ysum(c.k - 1, c.Bm.ym1)),
    ("be11-1", (K, ALPHA, M, Q),
     lambda c: c.B[c.k].substitute("x", Fraction(1, c.m)) - c.xsum(c.k, c.B.x0),
     lambda c: q_number(c.q, c.k) * c.xsum(c.k - 1, c.Bm.x0)),
    ("be12", (K, ALPHA, M, Q), lambda c: c.ysum(c.k, lambda j: c.E.y0[j] + c.E.ym1[j]),
     lambda c: 2 * c.ysum(c.k, c.Em.ym1)),
    ("be12-1", (K, ALPHA, M, Q),
     lambda c: c.E[c.k].substitute("x", Fraction(1, c.m)) + c.xsum(c.k, c.E.x0),
     lambda c: 2 * c.xsum(c.k, c.Em.x0)),
)
check_sp1 = _suite(
    "sp1", "Both displays of the Bernoulli-through-Euler addition theorem.",
    ("sp1-1", (N, ALPHA, M, Q), lambda c: c.B[c.n], lambda c: _sp1_y(c, "sp1-1", c.Bm.ym1)),
    ("sp1-2", (N, ALPHA, M, Q), lambda c: c.B[c.n], lambda c: _sp1_x(c, "sp1-2", c.Bm.x0)),
)
check_sp2 = _suite(
    "sp2", "Both displays of the Euler-through-Bernoulli addition theorem.",
    ("sp2-1", (N, ALPHA, M, Q), lambda c: c.E[c.n], _sp2_x),
    ("sp2-2", (N, ALPHA, M, Q), lambda c: c.E[c.n], lambda c: _sp2_y(c, "sp2-2", c.Em.ym1)),
)
check_corollaries = _suite(
    "corollaries", "The theorems at order one with the order-zero polynomials written out "
    "as pair powers, the Cheon-type expansions, and classical forms.",
    ("c1-1", (N, M, Q), lambda c: c.B[c.n], lambda c: _sp1_y(c, "c1-1", c.pair_ym1),
     "classical-c2-2"),
    ("c1-2", (N, M, Q), lambda c: c.B[c.n], lambda c: _sp1_x(c, "c1-2", c.ey)),
    ("euler-c1", (N, M, Q), lambda c: c.E[c.n], lambda c: _sp2_y(c, "euler-c1", c.pair_ym1),
     "classical-euler-c2-2"),
    ("cw1", (N, Q), lambda c: c.B[c.n],
     lambda c: qconv(c.q, c.n, lambda k: c.B.x0[k] + q_number(c.q, k) / 2 * c.ey(k - 1)
                     if k else c.B.x0[0], c.E.y0),
     "classical-c2-1"),
    ("cw2", (N, Q), lambda c: c.B.y0[c.n], lambda c: _cw(c, c.E.y0)),
    ("cw3", (N, Q), lambda c: c.B.x0[c.n], lambda c: _cw(c, c.E.x0)),
    ("euler-c3", (N, Q), lambda c: c.E[c.n],
     lambda c: qconv(c.q, c.n, lambda k: c.ey(k + 1) - c.E.x0[k + 1], c.B.y0,
                     lambda k: 2 / q_number(c.q, k + 1)),
     "classical-euler-c2-1"),
    ("euler-c4-x", (N, Q), lambda c: c.E.y0[c.n], lambda c: _euler_c4(c, c.B.y0)),
    ("euler-c4-y", (N, Q), lambda c: c.E.x0[c.n], lambda c: _euler_c4(c, c.B.x0)),
)
check_stirling_theorem = _suite(
    "stirling-theorem", "The unproven mixed classical-Stirling expansion (verdict only): both\n"
    "sides have x-degree at most n, so the n + 2 points x = r/m, with mx integral, decide it.",
    (("stirling-bern", "stirling-eul"), (KIND, N, ALPHA, M, Q),
     lambda c: Poly2.linear_combination(
          (1, c.T[c.n].substitute("x", Fraction(r, c.m)), _x(r)) for r in range(c.n + 2)),
     _stirling_rhs),
    verdict_only=True,
)
check_bernstein = _suite(
    "bernstein", "Bernstein-basis expansion through q-Stirling numbers.",
    # [n k] b_{n,k}(x) = x^k sum_i [n i] S_q(i, k) B^{(k)}_{n-i}(1, -x)
    ("bb1", (N, K_N, Q), lambda c: q_binomial(c.q, c.n, c.k) * q_bernstein(c.q, c.n, c.k),
     lambda c: _x(c.k) * qconv(
         c.q, c.n, _one,
         c.seq("bb1-row", lambda i: c.table(BERN, c.k)[i].substitute("x", 1).compose("y", -X), "k"),
         lambda i: q_stirling2(c.q, i, c.k))),
)
check_alpha_zero = _suite(
    "alpha-zero", "Order-zero tables collapse to the symbolic pair power.",
    ("alpha0-bern", (N10, Q), lambda c: c.table(BERN, 0)[c.n], lambda c: c.pair(c.n)),
    ("alpha0-bern-y", (N10, Q), lambda c: c.table(BERN, 0).x0[c.n], lambda c: c.ey(c.n)),
    ("alpha0-eul", (N10, Q), lambda c: c.table(EUL, 0)[c.n], lambda c: c.pair(c.n)),
    ("alpha0-eul-y", (N10, Q), lambda c: c.table(EUL, 0).x0[c.n], lambda c: c.ey(c.n)),
)


check_exp_inverse = _suite(
    "exp-inverse", "e(t) E(-t) = 1, coefficient by coefficient; the residual polynomial\n"
    "encodes the t-exponent in the x-degree slot.",
    ("exp-inverse", (ORDER, Q),
     lambda c: Poly2.linear_combination(
         (1, a, _x(n)) for n, a in enumerate(
             (eq_series(c.q, 1, c.order) * Eq_series(c.q, -1, c.order)).coeffs)),
     lambda c: Poly2.one()),
)


# The run order of ``all``: every suite in name order, then exp-inverse.
SUITE_ORDER = (*sorted(set(SUITES) - {"exp-inverse"}), "exp-inverse")


def run_suite(name: str, grid: Grid, timing: dict | None = None) -> list[IdentityReport]:
    """Run one suite of ``SUITE_ORDER``, or ``all`` of them in that order,
    over one store.  A ``timing`` dict receives each suite's wall seconds
    and report count under ``suites`` and the suite's name, and the
    store's entries, hits and misses under ``run_cache``."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    names = SUITE_ORDER if name == "all" else (name,)
    # the deepest table index each suite reads
    reach = {"sp2": grid.n_max + 1, "corollaries": grid.n_max + 1,
             "alpha-zero": max(grid.n_max, 10)}
    cache = TableCache(max(reach.get(s, grid.n_max) for s in names))
    reports, timing = [], {} if timing is None else timing
    suites = timing["suites"] = {}
    for s in names:
        start = time.perf_counter()
        got = SUITES[s](grid, cache)
        reports += got
        suites[s] = {"wall_s": round(time.perf_counter() - start, 6), "reports": len(got)}
    timing["run_cache"] = {"entries": len(cache._store), "hits": cache.hits, "misses": cache.misses}
    return reports
