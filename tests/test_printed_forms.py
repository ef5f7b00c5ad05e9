"""Printed forms of corrected identities, encoded and shown to fail.

Each entry of ``CORRECTIONS`` claims that a printed formula is wrong.  Here a
printed form is the corrected row with the one fix undone, built from the
same ``Identity`` fields, and it must fail at exactly the points where the
fix matters, while the corrected row holds at every point.
"""

import inspect
from fractions import Fraction as F

from qbern import identities
from qbern.identities import CORRECTIONS, Grid, Point, TableCache
from qbern.qcore import QParam, q_binomial

GRID = Grid(n_max=6, alpha_set=(1, 2), m_set=(1,), q_set=(QParam(F(1, 2)), QParam(F(-7, 3))))


def row(suite: str, rid: str) -> identities.Identity:
    """The registered row ``rid`` of ``suite``."""
    rows = inspect.getclosurevars(identities.SUITES[suite]).nonlocals["identities"]
    (ident,) = (i for i in rows if i.id == rid)
    return ident


def failures(ident, lhs=None, where=lambda p: True) -> tuple[set, int]:
    """The points of GRID satisfying ``where`` at which ``ident`` fails, with
    its left side replaced by ``lhs(at, params)`` when given (``at`` makes the
    point of a parameter dict), and the number of points checked."""
    cache = TableCache(GRID.n_max + 1)

    def at(params):
        return Point(cache, ident.id, **params)

    points = [p for p in identities._points(ident.axes, GRID) if where(p)]
    bad = {tuple(p.items()) for p in points
           if not ((lhs(at, p) if lhs else ident.lhs(at(p))) - ident.rhs(at(p))).is_zero}
    return bad, len(points)


def test_be9_printed_with_left_index_n_minus_1_fails_wherever_n_is_positive():
    assert CORRECTIONS["be9"].startswith("left-hand index n-1 read as n")
    be9 = row("lemma4", "be9")
    assert failures(be9) == (set(), 28)
    # the printed left side is the corrected one at n - 1, which n = 0 does not have
    printed = lambda at, p: be9.lhs(at({**p, "n": p["n"] - 1}))
    bad, checked = failures(be9, printed, where=lambda p: p["n"] >= 1)
    assert checked == 24 and len(bad) == 24


def test_bb1_printed_without_the_binomial_fails_exactly_where_it_is_not_one():
    assert CORRECTIONS["bb1"].startswith("left side multiplied by [n choose k]")
    bb1 = row("bernstein", "bb1")
    assert failures(bb1) == (set(), 56)
    printed = lambda at, p: bb1.lhs(at(p)) * (1 / q_binomial(p["q"], p["n"], p["k"]))
    bad, checked = failures(bb1, printed)
    assert checked == 56
    # [n k] = 1 at k = 0 and k = n, and nowhere else at these q
    assert {(n, k) for (_, n), (_, k), _ in bad} == {(n, k) for n in range(7) for k in range(1, n)}
    assert len(bad) == 30
