"""One definition per stated identity.

Each identity is a left side and a right side, assembled as exact
polynomials at every point of its parameter axes; the report carries the
residual (left minus right).  A pass means the residual is the zero
polynomial; there is no tolerance anywhere.  A suite row is one report
id, so a Bernoulli and Euler pair is two rows, one per kind.

Vocabulary: ``qconv(q, n, a, b, w)`` = sum_k [n k]_q w(k) a(k) b(n - k),
the convolution most formulas are built from; a table ``T`` has rows
``T[n]``, projected rows ``T.x0``, ``T.y0``, ``T.ym1`` (x = 0, y = 0,
y = -1) and numbers ``T.num``; a named sequence ``c.seq(name, f, *axes)``
is f keyed on the point's ``axes``, all that f reads.  The weighted sums
``c.ysum(k, "B.ym1")`` = sum_j [k j] m^j B.ym1[j] and ``c.xsum(k, "Em.x0")``
= sum_j [k j] P(k - j) Em.x0[j] are store reads keyed on q, m, what they
sum (the kind and order of the table's spec and the projection, so ``Bm``
at alpha is ``B`` at alpha - 1) and k; a sum of a difference is written as
the difference of two sums.  One store builds each table, sequence value
and weighted sum, pair and recurrence powers included, once per run, and
holds each family of entries (a sequence or sum by name, a table by order)
only until the last suite of the run that reads it has finished.  Every
``c.B`` is a store read, so a formula that reads a table at each index
binds it once, as a local or as a lambda default (``lambda j, B=c.B: ...``).
``q = None`` is the classical limit (see ``qcore``), so a classical q -> 1
check is its q-row with the q axis dropped, at q = None.  The alpha axis
takes every integer of the grid's alpha set, alpha <= 0 included.

A few printed formulas in the source material carry typos.  Corrections
are data, not silent edits: every corrected identity carries a
``correction_applied`` string naming the fix (see CORRECTIONS), and each
correction was confirmed against the generating-function machinery
before being frozen here.  VERDICT_ONLY is data too: the ids of
unproven statements, whose reports record their verdict and gate nothing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .poly import Poly2, symbolic_pair_power
from .qcore import QParam, q_binomial, q_binomial_row, q_number, q_pair_power, gauss_exponent
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

VERDICT_ONLY = frozenset({"stirling-bern", "stirling-eul"})  # unproven: recorded, not gated


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
        if any(m < 1 for m in self.m_set):
            raise ValueError("m values must be positive integers")
        if any(len(set(v)) != len(v) for v in (self.alpha_set, self.m_set, self.q_set)):
            raise ValueError("alpha_set, m_set and q_set must not repeat a value")


def default_grid() -> Grid:
    q_set = tuple(QParam(Fraction(v)) for v in ("1/2", "1/3", "3/4"))
    return Grid(n_max=8, alpha_set=(1, 2, 3), m_set=(1, 2, 3), q_set=q_set)


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """One identity at one point and its exact residual, left side minus right side.

    Reports of one run with equal parameters hold one ``params`` tuple, and
    every passing report holds the one ``Poly2.zero()``."""

    identity_id: str
    params: tuple[tuple[str, str], ...]
    residual: Poly2

    @property
    def passed(self) -> bool:
        return self.residual.is_zero

    @property
    def correction_applied(self) -> str | None:
        return CORRECTIONS.get(self.identity_id)

    @property
    def verdict_only(self) -> bool:
        return self.identity_id in VERDICT_ONLY

    def sort_key(self) -> tuple:
        return (self.identity_id, self.params)


_MISSING = object()  # no stored value is this object


class TableCache:
    """The one store of a run: each polynomial table, as deep as the run
    reads, each value of a named sequence and each point's report
    parameters, built once.  ``build_s`` is
    the wall time spent building tables."""

    def __init__(self, max_n: int):
        self.max_n = max_n
        self.hits = self.misses = self._peak = 0
        self.build_s = 0.0
        self._store: dict[tuple, object] = {}

    @property
    def peak_entries(self) -> int:
        """The most entries held at once: entries are only added between releases."""
        return max(self._peak, len(self._store))

    def release(self, families: set) -> None:
        """Drop every entry of ``families``: a table is known by its order, any
        other entry by its name, the first item of its key."""
        self._peak = self.peak_entries
        self._store = {k: v for k, v in self._store.items()
                       if (k[2] if isinstance(v, PolyTable) else k[0]) not in families}

    def once(self, key: tuple, build: Callable[[], object]):
        """The value stored under ``key``, built by ``build()`` on first use;
        one ``dict.get`` reads it, so a read hashes its key once."""
        value = self._store.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            value = self._store[key] = build()
        else:
            self.hits += 1
        return value

    def get(self, kind: str, q: QParam | None, alpha: int) -> PolyTable:
        def build() -> PolyTable:
            start = time.perf_counter()
            table = family_table(FamilySpec(kind, alpha, q), self.max_n)
            self.build_s += time.perf_counter() - start
            return table

        return self.once((kind, q, alpha), build)


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
    """sum_k [n k]_q w(k) a(k) b(n - k), the empty sum zero for n < 0; a and b
    are sequences or functions of polynomials or scalars, and terms of zero
    weight are skipped."""
    if n < 0:
        return Poly2.zero()
    a, b, row = _fn(a), _fn(b), q_binomial_row(q, n)
    if w is _one:  # no weight product per summand
        return Poly2.linear_combination((c, a(k), b(n - k)) for k, c in enumerate(row))
    return Poly2.linear_combination(
        (c, a(k), b(n - k)) for k, r in enumerate(row) if (c := r * w(k))
    )


class Point:
    """One parameter tuple of an identity and the tables its formulas read.

    B, E are the Bernoulli and Euler tables of order alpha (1 when the
    identity has no alpha axis), Bm, Em those of order alpha - 1, B1, E1
    those of order 1, and T the table of the point's kind.  ``rid`` is the
    point's report id, the store's name for the bracket of a shared
    addition-theorem formula, so no two identities can share one.
    """

    q: QParam | None = None
    alpha = 1

    def __init__(self, cache: TableCache, rid: str, **params):
        self.cache, self.rid = cache, rid
        self.__dict__.update(params)

    def table(self, kind: str, alpha: int) -> PolyTable:
        return self.cache.get(kind, self.q, alpha)

    def seq(self, name: str, f: Callable[[int], Poly2], *axes: str) -> Callable[[int], Poly2]:
        """f as a sequence kept in the run's store under (name, the point's
        values of ``axes``, index): f must read no other parameter."""
        key = (name, *(getattr(self, a) for a in axes))
        return lambda i: self.cache.once((*key, i), lambda: f(i))

    B = property(lambda c: c.table(BERN, c.alpha))
    E = property(lambda c: c.table(EUL, c.alpha))
    Bm = property(lambda c: c.table(BERN, c.alpha - 1))
    Em = property(lambda c: c.table(EUL, c.alpha - 1))
    B1 = property(lambda c: c.table(BERN, 1))
    E1 = property(lambda c: c.table(EUL, 1))
    T = property(lambda c: c.table(KINDS[c.kind], c.alpha))

    def ey(self, j: int) -> Poly2:
        """q^{j(j-1)/2} y^j: the order-zero polynomial at x = 0."""
        return Poly2.monomial(0, j, gauss_exponent(self.q, j))

    @property
    def pair(self) -> Callable[[int], Poly2]:
        """The q-analogue of (x + y)^j: the order-zero polynomial."""
        return self.seq("pair", lambda j: symbolic_pair_power(self.q, j), "q")

    @property
    def pair_ym1(self) -> Callable[[int], Poly2]:
        return self.seq("pair_ym1", lambda j: self.pair(j).substitute("y", -1), "q")

    @property
    def P(self) -> Callable[[int], Fraction]:
        """The scalar (1/m + (-1))-pair powers of the recurrences, kept in the
        run's store under q and the integer m: a read builds and hashes no Fraction."""
        return self.seq("P", lambda p: q_pair_power(self.q, Fraction(1, self.m), -1, p), "q", "m")

    def ysum(self, k: int, s: str) -> Poly2:
        """sum_j [k j] m^j s(j), for the sequence named ``s`` (see ``_sum``)."""
        return self._sum("ysum", k, s, _one, lambda j: self.m ** j)

    def xsum(self, k: int, s: str) -> Poly2:
        """sum_j [k j] P(k - j) s(j), for the sequence named ``s`` (see ``_sum``)."""
        return self._sum("xsum", k, s, self.P, _one)

    def _sum(self, name: str, k: int, s: str, b, w) -> Poly2:
        """qconv(q, k, s, b, w), kept in the run's store under ``name``, q, m,
        what it sums and k.  ``s`` names a projection of one of the point's
        tables ("B.ym1", "Em.x0"), known by its table's spec, or a sequence of
        the point that reads only q ("pair_ym1", "ey")."""
        attr, _, proj = s.partition(".")
        src = getattr(self, attr)
        what = (src.spec.kind, src.spec.order_alpha, proj) if proj else (s,)
        return self.cache.once((name, self.q, self.m, *what, k), lambda: qconv(
            self.q, k, getattr(src, proj) if proj else src, b, w))

    def down(self, s) -> Poly2:
        """[n] s(n - 1), zero at n = 0."""
        return q_number(self.q, self.n) * _fn(s)(self.n - 1) if self.n else Poly2.zero()


# -- the shared brackets ---------------------------------------------


def _sp1_y(c: Point, lower: str) -> Poly2:
    """sp1-1, with the order-(alpha - 1) polynomials at y = -1 named ``lower``."""
    B, E1, m = c.B, c.E1, c.m

    def bracket(k):
        return m ** k * B.y0[k] + c.ysum(k, "B.ym1") + m * q_number(c.q, k) * c.ysum(k - 1, lower)

    rhs = qconv(c.q, c.n, c.seq(c.rid, bracket, "q", "alpha", "m"),
                c.seq("E1.x0(my)", lambda i: E1.x0[i].scale_var("y", m), "q", "m"))
    return rhs * Fraction(1, 2 * m ** c.n)


def _sp1_x(c: Point, lower: str) -> Poly2:
    """sp1-2, with the order-(alpha - 1) polynomials at x = 0 named ``lower``."""
    B, E1, m = c.B, c.E1, c.m

    def bracket(k):
        return B.x0[k] + c.xsum(k, "B.x0") + q_number(c.q, k) * c.xsum(k - 1, lower)

    rhs = qconv(c.q, c.n, c.seq(c.rid, bracket, "q", "alpha", "m"),
                c.seq("E1.y0(mx)", lambda i: E1.y0[i].scale_var("x", m), "q", "m"),
                lambda k: m ** k)
    return rhs * Fraction(1, 2 * m ** c.n)


def _sp2_y(c: Point, lower: str) -> Poly2:
    """sp2-2, with the order-(alpha - 1) polynomials at y = -1 named ``lower``."""
    E, B1, m = c.E, c.B1, c.m

    def bracket(k):  # the sum of 2 lower - E.ym1, by linearity
        return 2 * c.ysum(k + 1, lower) - c.ysum(k + 1, "E.ym1") - m ** (k + 1) * E.y0[k + 1]

    return qconv(c.q, c.n, c.seq(c.rid, bracket, "q", "alpha", "m"),
                 c.seq("B1.x0(my)", lambda i: B1.x0[i].scale_var("y", m), "q", "m"),
                 lambda k: 1 / (Fraction(m) ** c.n * q_number(c.q, k + 1)))


def _sp2_x(c: Point) -> Poly2:
    E, B1, m = c.E, c.B1, Fraction(c.m)

    def bracket(k):  # the sum of 2 Em.x0 - E.x0, by linearity
        return 2 * c.xsum(k + 1, "Em.x0") - c.xsum(k + 1, "E.x0") - E.x0[k + 1]

    return qconv(c.q, c.n, c.seq(c.rid, bracket, "q", "alpha", "m"),
                 c.seq("B1.y0(mx)", lambda i: B1.y0[i].scale_var("x", m), "q", "m"),
                 lambda k: m ** (k - c.n + 1) / q_number(c.q, k + 1))


def _be9(c: Point) -> Poly2:
    """sum_{k <= n} [n+1 k] B_k(0, y) / [n + 1]."""
    return qconv(c.q, c.n + 1, c.B.x0, _one, lambda k: k <= c.n) * (1 / q_number(c.q, c.n + 1))


def _be10(c: Point) -> Poly2:
    """(E_n(0, y) + sum_k [n k] E_k(0, y)) / 2."""
    return (c.E.x0[c.n] + qconv(c.q, c.n, c.E.x0, _one)) * Fraction(1, 2)


def _cw(c: Point, e) -> Poly2:
    """sum_k [n k] b_k e(n - k), with the k = 1 number raised by 1/2."""
    b = c.B.num
    return qconv(c.q, c.n, lambda k: b[k] + (Fraction(1, 2) if k == 1 else 0), e)


def _euler_c4(c: Point, b) -> Poly2:
    """-sum_k 2 [n k] / [k + 1] e_{k+1} b(n - k)."""
    e = c.E.num
    return qconv(c.q, c.n, lambda k: e[k + 1], b, lambda k: -2 / q_number(c.q, k + 1))


def _stirling_rhs(c: Point) -> Poly2:
    """sum_r x^r sum_j r!/(r-j)! m^{j-n} sum_k [n k] S(n-k, j) T_k(0, y)."""
    n, m = c.n, Fraction(c.m)
    inner = c.seq("stirling-inner", lambda j: qconv(
        c.q, n, c.T.x0, lambda i: q_stirling2(None, i, j)), "q", "kind", "alpha", "n")
    row = c.seq("falling-row", lambda j: Poly2({(r, 0): math.perm(r, j)
                                                for r in range(j, n + 2)}), "n")
    return Poly2.linear_combination((m ** (j - n), inner(j), row(j)) for j in range(n + 1))


# -- identity definitions and suites ---------------------------------

# An axis is (report key, values given the grid and the values bound so far).
KIND = ("kind", lambda g, p: tuple(KINDS))
N = ("n", lambda g, p: range(g.n_max + 1))
N1 = ("n", lambda g, p: range(1, g.n_max + 1))
N10 = ("n", lambda g, p: range(max(g.n_max, 10) + 1))
K = ("k", N[1])
K_N = ("k", lambda g, p: range(p["n"] + 1))
ALPHA = ("alpha", lambda g, p: g.alpha_set)
M = ("m", lambda g, p: g.m_set)
Q = ("q", lambda g, p: g.q_set)
ORDER = ("order", lambda g, p: (g.n_max,))


def _alpha_orders(*fixed: int) -> Callable[[Grid], set[int]]:
    """The table orders alpha and alpha - 1 at the grid's alpha values, and ``fixed``."""
    return lambda g: {*fixed, *(a - d for a in g.alpha_set for d in (0, 1))}


@dataclass(frozen=True)
class Identity:
    """One report id: its formula at every point of its axes."""
    id: str
    axes: tuple[tuple[str, Callable], ...]  # in report parameter order
    lhs: Callable[[Point], Poly2]
    rhs: Callable[[Point], Poly2]


def _kinds(ids: tuple[str, str], axes: tuple, lhs: Callable, rhs: Callable) -> tuple:
    """A (Bernoulli, Euler) pair of ids as two rows, each with its one kind as the first axis."""
    return tuple((rid, (("kind", lambda g, p, k=k: (k,)), *axes), lhs, rhs)
                 for rid, k in zip(ids, KINDS))


def _classical(rid: str, axes: tuple, lhs: Callable, rhs: Callable, twin: str) -> tuple:
    """A row and its classical twin: the same row with the q axis dropped, at q = None."""
    return (rid, axes, lhs, rhs), (twin, tuple(a for a in axes if a is not Q), lhs, rhs)


def _points(axes, grid: Grid) -> list[dict]:
    """The points of ``axes`` in order, the last axis varying fastest, built
    one axis at a time: each axis reads the values bound before it."""
    points = [{}]
    for key, values in axes:
        points = [{**p, key: v} for p in points for v in values(grid, p)]
    return points


SUITES: dict[str, Callable[[Grid, TableCache], list[IdentityReport]]] = {}
# each suite's store families at a grid (see TableCache.release)
READS: dict[str, Callable[[Grid], set]] = {}


def _suite(name: str, doc: str, *rows: tuple, reads: tuple[str, ...] = (),
           orders: Callable[[Grid], Iterable[int]] = lambda g: ()):
    """Register a suite of rows, each the fields of an Identity and so one
    report id (``_kinds`` makes a kind pair two rows, ``_classical`` a
    classical check its q-row without the q axis); its checker reports
    every row at every point.  The suite reads the store families of the
    sequences and sums named in ``reads``, the tables of ``orders`` at the
    grid, the brackets named by its row ids and the report parameters."""
    identities = [Identity(*row) for row in rows]
    families = {"params", *reads, *(i.id for i in identities)}
    READS[name] = lambda g: {*families, *orders(g)}

    def check(grid: Grid, cache: TableCache) -> list[IdentityReport]:
        reports = []
        for ident in identities:
            for params in _points(ident.axes, grid):
                c = Point(cache, ident.id, **params)
                # one tuple per distinct point in the run, shared by its reports; its key
                # reuses its pairs (a key of params.items() held 3 MiB more at alpha, m
                # in 1..10)
                shown = tuple(zip(params, map(str, params.values())))
                shown = cache.once(("params", *shown), lambda: shown)
                reports.append(IdentityReport(ident.id, shown, ident.lhs(c) - ident.rhs(c)))
        return sorted(reports, key=IdentityReport.sort_key)

    check.__doc__ = doc
    SUITES[name] = check
    return check


check_addition = _suite(
    "lemma1", "Lemma 1: addition theorems and their x/y = 0 and x/y = 1 specializations.",
    ("lemma1-pair", (KIND, N, ALPHA, Q), lambda c: c.T[c.n],
     lambda c: qconv(c.q, c.n, c.T.num, c.pair)),
    *_kinds(("be1-y", "be2-y"), (N, ALPHA, Q), lambda c: c.T[c.n],
            lambda c: qconv(c.q, c.n, c.T.y0, c.ey)),
    *_kinds(("be1-x", "be2-x"), (N, ALPHA, Q), lambda c: c.T[c.n],
            lambda c: qconv(c.q, c.n, c.T.x0, _x)),
    *_kinds(("be7-x", "be8-x"), (N, ALPHA, Q), lambda c: c.T.y0[c.n],
            lambda c: qconv(c.q, c.n, c.T.num, _x)),
    *_kinds(("be7-y", "be8-y"), (N, ALPHA, Q), lambda c: c.T.x0[c.n],
            lambda c: qconv(c.q, c.n, c.T.num, c.ey)),
    *_kinds(("be3-y1", "be4-y1"), (N, ALPHA, Q), lambda c: c.T[c.n].substitute("y", 1),
            lambda c: qconv(c.q, c.n, c.T.y0, lambda j: gauss_exponent(c.q, j))),
    *_kinds(("be3-x1", "be4-x1"), (N, ALPHA, Q), lambda c: c.T[c.n].substitute("x", 1),
            lambda c: qconv(c.q, c.n, c.T.x0, _one)),
    reads=("pair",), orders=lambda g: g.alpha_set,
)
check_q_derivative = _suite(
    "lemma2", "Lemma 2: the Jackson-derivative ladder in each variable.",
    *_kinds(("lemma2-bern-x", "lemma2-eul-x"), (N1, ALPHA, Q),
            lambda c: c.T[c.n].jackson("x", c.q), lambda c: c.down(c.T)),
    *_kinds(("lemma2-bern-y", "lemma2-eul-y"), (N1, ALPHA, Q),
            lambda c: c.T[c.n].jackson("y", c.q),
            lambda c: c.down(lambda i: c.T[i].scale_var("y", c.q.value if c.q else 1))),
    orders=lambda g: g.alpha_set,
)
check_difference = _suite(
    "lemma3", "Lemma 3: difference equations linking order alpha to order alpha - 1.",
    ("be5", (N, ALPHA, Q), lambda c: c.B[c.n].substitute("x", 1) - c.B.x0[c.n],
     lambda c: c.down(c.Bm.x0)),
    ("be6", (N, ALPHA, Q), lambda c: c.E[c.n].substitute("x", 1) + c.E.x0[c.n],
     lambda c: 2 * c.Em.x0[c.n]),
    ("be5-x", (N, ALPHA, Q), lambda c: c.B.y0[c.n] - c.B.ym1[c.n], lambda c: c.down(c.Bm.ym1)),
    ("be6-x", (N, ALPHA, Q), lambda c: c.E.y0[c.n] + c.E.ym1[c.n], lambda c: 2 * c.Em.ym1[c.n]),
    orders=_alpha_orders(),
)
check_inversion = _suite(
    "lemma4", "Lemma 4: order-lowering expansions and, at order one, the monomial expansions.",
    ("be9", (N, ALPHA, Q), lambda c: c.Bm.x0[c.n], _be9),
    ("be10", (N, ALPHA, Q), lambda c: c.Em.x0[c.n], _be10),
    *_classical("monomial-bern", (N, Q), lambda c: Poly2.monomial(0, c.n),
                lambda c: _be9(c) * (1 / gauss_exponent(c.q, c.n)), "cl1-bern"),
    *_classical("monomial-eul", (N, Q), lambda c: Poly2.monomial(0, c.n),
                lambda c: _be10(c) * (1 / gauss_exponent(c.q, c.n)), "cl1-eul"),
    orders=_alpha_orders(1),
)
check_recurrence = _suite(
    "lemma5", "Lemma 5: the four recurrences with the scaling modulus m.",
    # the sums of B.y0 - B.ym1 and E.y0 + E.ym1, by linearity
    ("be11", (K, ALPHA, M, Q), lambda c: c.ysum(c.k, "B.y0") - c.ysum(c.k, "B.ym1"),
     lambda c: c.m * q_number(c.q, c.k) * c.ysum(c.k - 1, "Bm.ym1")),
    ("be11-1", (K, ALPHA, M, Q),
     lambda c: c.B[c.k].substitute("x", Fraction(1, c.m)) - c.xsum(c.k, "B.x0"),
     lambda c: q_number(c.q, c.k) * c.xsum(c.k - 1, "Bm.x0")),
    ("be12", (K, ALPHA, M, Q), lambda c: c.ysum(c.k, "E.y0") + c.ysum(c.k, "E.ym1"),
     lambda c: 2 * c.ysum(c.k, "Em.ym1")),
    ("be12-1", (K, ALPHA, M, Q),
     lambda c: c.E[c.k].substitute("x", Fraction(1, c.m)) + c.xsum(c.k, "E.x0"),
     lambda c: 2 * c.xsum(c.k, "Em.x0")),
    reads=("ysum", "xsum", "P"), orders=_alpha_orders(),
)
check_sp1 = _suite(
    "sp1", "Both displays of the Bernoulli-through-Euler addition theorem.",
    ("sp1-1", (N, ALPHA, M, Q), lambda c: c.B[c.n], lambda c: _sp1_y(c, "Bm.ym1")),
    ("sp1-2", (N, ALPHA, M, Q), lambda c: c.B[c.n], lambda c: _sp1_x(c, "Bm.x0")),
    reads=("ysum", "xsum", "P", "E1.x0(my)", "E1.y0(mx)"),
    orders=_alpha_orders(1),
)
check_sp2 = _suite(
    "sp2", "Both displays of the Euler-through-Bernoulli addition theorem.",
    ("sp2-1", (N, ALPHA, M, Q), lambda c: c.E[c.n], _sp2_x),
    ("sp2-2", (N, ALPHA, M, Q), lambda c: c.E[c.n], lambda c: _sp2_y(c, "Em.ym1")),
    reads=("ysum", "xsum", "P", "B1.x0(my)", "B1.y0(mx)"),
    orders=_alpha_orders(1),
)
check_corollaries = _suite(
    "corollaries", "The theorems at order one with the order-zero polynomials written out "
    "as pair powers, the Cheon-type expansions, and classical forms.",
    *_classical("c1-1", (N, M, Q), lambda c: c.B[c.n], lambda c: _sp1_y(c, "pair_ym1"),
                "classical-c2-2"),
    ("c1-2", (N, M, Q), lambda c: c.B[c.n], lambda c: _sp1_x(c, "ey")),
    *_classical("euler-c1", (N, M, Q), lambda c: c.E[c.n], lambda c: _sp2_y(c, "pair_ym1"),
                "classical-euler-c2-2"),
    *_classical("cw1", (N, Q), lambda c: c.B[c.n],
                lambda c: qconv(c.q, c.n, lambda k, B=c.B: B.x0[k] + q_number(c.q, k) / 2
                                * c.ey(k - 1) if k else B.x0[0], c.E.y0),
                "classical-c2-1"),
    ("cw2", (N, Q), lambda c: c.B.y0[c.n], lambda c: _cw(c, c.E.y0)),
    ("cw3", (N, Q), lambda c: c.B.x0[c.n], lambda c: _cw(c, c.E.x0)),
    *_classical("euler-c3", (N, Q), lambda c: c.E[c.n],
                lambda c: qconv(c.q, c.n, lambda k, E=c.E: c.ey(k + 1) - E.x0[k + 1], c.B.y0,
                                lambda k: 2 / q_number(c.q, k + 1)),
                "classical-euler-c2-1"),
    ("euler-c4-x", (N, Q), lambda c: c.E.y0[c.n], lambda c: _euler_c4(c, c.B.y0)),
    ("euler-c4-y", (N, Q), lambda c: c.E.x0[c.n], lambda c: _euler_c4(c, c.B.x0)),
    reads=("ysum", "xsum", "P", "pair", "pair_ym1", "E1.x0(my)", "E1.y0(mx)", "B1.x0(my)"),
    orders=lambda g: (1,),
)
check_stirling_theorem = _suite(
    "stirling-theorem", "The unproven mixed classical-Stirling expansion (verdict only): both\n"
    "sides have x-degree at most n, so the n + 2 points x = r/m, with mx integral, decide it.",
    *_kinds(("stirling-bern", "stirling-eul"), (N, ALPHA, M, Q),
            lambda c: c.T[c.n].samples("x", Fraction(1, c.m), c.n + 2), _stirling_rhs),
    reads=("stirling-inner", "falling-row"), orders=lambda g: g.alpha_set,
)
check_bernstein = _suite(
    "bernstein", "Bernstein-basis expansion through q-Stirling numbers.",
    # [n k] b_{n,k}(x) = x^k sum_i [n i] S_q(i, k) B^{(k)}_{n-i}(1, -x)
    ("bb1", (N, K_N, Q), lambda c: q_binomial(c.q, c.n, c.k) * q_bernstein(c.q, c.n, c.k),
     lambda c: _x(c.k) * qconv(
         c.q, c.n, _one,
         c.seq("bb1-row", lambda i: c.table(BERN, c.k)[i].substitute("x", 1)
               .scale_var("y", -1).swap(), "q", "k"),
         lambda i: q_stirling2(c.q, i, c.k))),
    reads=("bb1-row",), orders=lambda g: range(g.n_max + 1),
)
check_alpha_zero = _suite(
    "alpha-zero", "Order-zero tables collapse to the symbolic pair power.",
    ("alpha0-bern", (N10, Q), lambda c: c.table(BERN, 0)[c.n], lambda c: c.pair(c.n)),
    ("alpha0-bern-y", (N10, Q), lambda c: c.table(BERN, 0).x0[c.n], lambda c: c.ey(c.n)),
    ("alpha0-eul", (N10, Q), lambda c: c.table(EUL, 0)[c.n], lambda c: c.pair(c.n)),
    ("alpha0-eul-y", (N10, Q), lambda c: c.table(EUL, 0).x0[c.n], lambda c: c.ey(c.n)),
    reads=("pair",), orders=lambda g: (0,),
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
    over one store.  The store releases each family of entries (``READS``)
    once the last suite of the run that reads it has finished, and the rest
    when it is dropped on return.  A ``timing`` dict receives each suite's
    wall seconds, the seconds of them spent building tables and its report
    count under ``suites`` and the suite's name, and under ``run_cache`` the
    store's entries at the end of the run, the most it held at once, its
    hits and its misses (the entries it built)."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    names = SUITE_ORDER if name == "all" else (name,)
    # the deepest table index each suite reads
    reach = {"sp2": grid.n_max + 1, "corollaries": grid.n_max + 1,
             "alpha-zero": max(grid.n_max, 10)}
    cache = TableCache(max(reach.get(s, grid.n_max) for s in names))
    reports, timing = [], {} if timing is None else timing
    suites = timing["suites"] = {}
    reads = {s: READS[s](grid) for s in names}
    last = {family: s for s in names for family in reads[s]}  # its last reader
    for s in names:
        start, built = time.perf_counter(), cache.build_s
        got = SUITES[s](grid, cache)
        reports += got
        suites[s] = {"wall_s": round(time.perf_counter() - start, 6),
                     "tables_s": round(cache.build_s - built, 6), "reports": len(got)}
        if s != names[-1]:
            cache.release({family for family in reads[s] if last[family] == s})
    timing["run_cache"] = {"entries": len(cache._store), "peak_entries": cache.peak_entries,
                           "hits": cache.hits, "misses": cache.misses}
    return reports
