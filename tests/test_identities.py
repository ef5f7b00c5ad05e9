import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qbern import identities
from qbern.identities import (
    CORRECTIONS,
    VERDICT_ONLY,
    Grid,
    default_grid,
    run_suite,
)
from qbern.poly import Poly2
from qbern.qcore import QParam
from qbern.qspecial import FamilySpec, PolyTable

SMALL = Grid(
    n_max=5,
    alpha_set=(1, 2),
    m_set=(1, 2),
    q_set=(QParam(F(1, 2)), QParam(F(3, 4))),
)
# every order up to zero: an order alpha <= 0 table is a power of the kernel's base
NONPOSITIVE = Grid(n_max=5, alpha_set=(-3, -2, -1, 0), m_set=(1, 2),
                   q_set=(QParam(F(1, 2)), QParam(F(-7, 3))))

GATED_SUITES = [
    "lemma1",
    "lemma2",
    "lemma3",
    "lemma4",
    "lemma5",
    "sp1",
    "sp2",
    "corollaries",
    "bernstein",
    "alpha-zero",
]


@pytest.mark.parametrize("suite", GATED_SUITES)
def test_suite_has_no_failures(suite):
    for grid in (SMALL, NONPOSITIVE):
        reports = run_suite(suite, grid)
        assert reports
        bad = [r for r in reports if not r.passed]
        assert bad == []


def test_reports_hold_only_their_residual():
    # a report keeps its residual, not the two sides; the verdict and the
    # correction note are read from it
    reports = run_suite("sp1", SMALL)
    assert reports
    for r in reports:
        fields = [getattr(r, f.name) for f in dataclasses.fields(r)]
        assert [v for v in fields if isinstance(v, Poly2)] == [r.residual]
        assert r.passed == r.residual.is_zero
        assert r.correction_applied == CORRECTIONS.get(r.identity_id)


def test_reports_share_their_parameters_and_the_zero_residual():
    # reports are held for the whole run: equal parameters are one tuple, a
    # pass holds the one zero polynomial, and a report has no __dict__
    reports = run_suite("all", SMALL)
    shared = {}
    for r in reports:
        assert shared.setdefault(r.params, r.params) is r.params
        if r.passed:
            assert r.residual is Poly2.zero()
    assert len(shared) < len(reports)
    assert not hasattr(reports[0], "__dict__")


def test_corrections_surface_in_reports():
    seen = set()
    for suite in GATED_SUITES:
        for r in run_suite(suite, SMALL):
            if r.correction_applied is not None:
                assert r.correction_applied == CORRECTIONS[r.identity_id]
                seen.add(r.identity_id)
    for expected in ("sp1-2", "sp2-1", "c1-2", "be9", "be7-y", "be8-y", "cw2", "cw3", "bb1"):
        assert expected in seen


def test_every_correction_names_a_checked_id():
    # a correction or verdict-only id that no check reports (a renamed
    # identity, say) would drop its note or gate its statement silently;
    # classical twins report under their own ids
    reports = run_suite("all", SMALL)
    ids = {r.identity_id for r in reports}
    assert len(ids) == 56  # one per identity row
    assert set(CORRECTIONS) - ids == set()
    assert {r.identity_id for r in reports if r.verdict_only} == VERDICT_ONLY


def test_stirling_theorem_produces_verdict_not_gate():
    reports = run_suite("stirling-theorem", SMALL)
    assert reports
    assert all(r.verdict_only for r in reports)
    # the claimed expansion does not hold on this grid; the suite must
    # record that honestly rather than pass vacuously
    assert any(not r.passed for r in reports)
    assert any(r.passed for r in reports)  # degenerate tuples do balance


def test_exp_inverse_to_order_sixteen():
    qs = (QParam(F(1, 2)), QParam(F(1, 3)), QParam(F(3, 4)))
    reports = run_suite("exp-inverse", Grid(16, (1,), (1,), qs))
    assert len(reports) == len(qs)
    assert all(r.passed for r in reports)


def test_run_suite_all_covers_every_suite():
    reports = run_suite("all", SMALL)
    ids = {r.identity_id for r in reports}
    # at least one report from each family of checks
    markers = (
        "be5",
        "lemma2-",
        "be9",
        "be10",
        "be11",
        "sp1-",
        "sp2-",
        "cw1",
        "c1-",
        "stirling-",
        "bb1",
        "alpha0-",
    )
    for marker in markers:
        assert any(i.startswith(marker) for i in ids), marker


def test_run_suite_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_suite("nonsense", SMALL)


def test_grid_validation():
    q = (QParam(F(1, 2)),)
    with pytest.raises(ValueError):
        Grid(n_max=1, alpha_set=(1,), m_set=(1,), q_set=q)
    with pytest.raises(ValueError):
        Grid(n_max=4, alpha_set=(), m_set=(1,), q_set=q)
    with pytest.raises(ValueError):
        Grid(n_max=4, alpha_set=(1,), m_set=(0,), q_set=q)
    assert Grid(n_max=4, alpha_set=(-1,), m_set=(1,), q_set=q).alpha_set == (-1,)
    with pytest.raises(ValueError):
        Grid(n_max=4, alpha_set=(1, 2, 1), m_set=(1,), q_set=q)
    with pytest.raises(ValueError):
        Grid(n_max=4, alpha_set=(1,), m_set=(2, 2), q_set=q)
    with pytest.raises(ValueError):
        Grid(n_max=4, alpha_set=(1,), m_set=(1,), q_set=q + (QParam(F(2, 4)),))


def test_default_grid_shape():
    g = default_grid()
    assert g.n_max == 8
    assert g.alpha_set == (1, 2, 3)
    assert g.m_set == (1, 2, 3)
    assert tuple(q.value for q in g.q_set) == (F(1, 2), F(1, 3), F(3, 4))


def test_reports_are_deterministically_ordered():
    a = run_suite("lemma2", SMALL)
    b = run_suite("lemma2", SMALL)
    assert a == b
    keys = [r.sort_key() for r in a]
    assert keys == sorted(keys)


def test_recurrence_power_hit_hashes_no_fraction(monkeypatch):
    q, cache = QParam(F(1, 2)), identities.TableCache(0)
    first = identities.Point(cache, "be11-1", q=q, m=3).P(4)
    assert first == identities.q_pair_power(q, F(1, 3), F(-1), 4)
    # a second read is keyed on the integer m: it builds and hashes no Fraction
    calls = []
    monkeypatch.setattr(F, "__hash__", lambda self: calls.append(self) or 0)
    assert identities.Point(cache, "be11-1", q=q, m=3).P(4) == first
    assert calls == []


def test_each_recurrence_power_is_computed_once_per_run(monkeypatch):
    # q_pair_power keeps no memo of its own: the run store is the only one
    calls = []
    real = identities.q_pair_power
    monkeypatch.setattr(identities, "q_pair_power",
                        lambda q, a, b, p: calls.append((q, a, b, p)) or real(q, a, b, p))
    run_suite("lemma5", SMALL)
    assert calls and len(calls) == len(set(calls))
    assert {(q, a.denominator) for q, a, _, _ in calls} == {
        (q, m) for q in SMALL.q_set for m in SMALL.m_set}


SEQUENCES = {"q_bernoulli", "q_euler", "pair", "pair_ym1", "P", "E1.x0(my)", "E1.y0(mx)",
             "B1.x0(my)", "B1.y0(mx)", "ysum", "xsum", "falling-row", "params"}
BRACKETS = {"sp1-1", "sp1-2", "sp2-1", "sp2-2", "c1-1", "c1-2", "euler-c1"}


def test_brackets_are_keyed_by_their_report_id(monkeypatch):
    # every bracket of the addition theorems is stored under the id of the
    # report that reads it, and the classical twins under their own ids
    stores = []
    real = identities.TableCache
    monkeypatch.setattr(identities, "TableCache",
                        lambda max_n: stores.append(real(max_n)) or stores[-1])
    for suite in ("sp1", "sp2", "corollaries"):
        run_suite(suite, SMALL)
    keys = [k for store in stores for k in store._store if k[0] not in SEQUENCES]
    assert {k[0] for k in keys if k[1] is not None} == BRACKETS
    assert {k[0] for k in keys if k[1] is None} == {"classical-c2-2", "classical-euler-c2-2"}


def recursive_points(axes, grid, bound=()):
    """The points of ``axes`` by one generator frame per axis: the reference order."""
    if not axes:
        yield dict(bound)
        return
    (key, values), *rest = axes
    for v in values(grid, dict(bound)):
        yield from recursive_points(rest, grid, (*bound, (key, v)))


@pytest.mark.parametrize("grid", [SMALL, Grid(3, (0, 2), (1, 3), (None, QParam(F(-7, 3)))),
                                  Grid(3, (-2, -1), (2,), (QParam(F(1, 2)),))],
                         ids=["SMALL", "alpha 0 and the classical point", "alpha below 0"])
def test_points_match_a_recursive_enumeration(monkeypatch, grid):
    # every row's axes, collected by running each suite with no points
    seen = []
    monkeypatch.setattr(identities, "_points", lambda axes, grid: seen.append(axes) or ())
    run_suite("all", grid)
    monkeypatch.undo()
    assert len(seen) == 56 and any(identities.K_N in axes for axes in seen)
    for axes in seen:
        # the parameter order is the report's, so compare the items in order
        assert [list(p.items()) for p in identities._points(axes, grid)] == \
            [list(p.items()) for p in recursive_points(axes, grid)], axes


def test_every_suite_runs_at_the_classical_point():
    grid = Grid(4, (-1, 0, 1, 2), (1, 2), (None,))
    for suite in identities.SUITE_ORDER:
        reports = run_suite(suite, grid)
        assert reports, suite
        assert [r for r in reports if not r.passed and not r.verdict_only] == [], suite


def test_each_pair_power_is_built_once_per_run(monkeypatch):
    calls = []
    real = identities.symbolic_pair_power
    monkeypatch.setattr(identities, "symbolic_pair_power",
                        lambda q, j: calls.append((q, j)) or real(q, j))
    run_suite("all", SMALL)
    # alpha-zero reads j <= 10 at both q, the classical corollaries j <= 6 at q = None
    assert len(calls) == len(set(calls)) == 2 * 11 + 7


def record_builds(monkeypatch) -> list[tuple]:
    """The (key, value) of every entry the run store builds, in build order:
    the store releases what no later suite reads, so its contents at the end
    of a run do not show every entry it built."""
    built = []
    real = identities.TableCache.once

    def once(cache, key, build):
        def recorded():
            value = build()
            built.append((key, value))
            return value
        return real(cache, key, recorded)

    monkeypatch.setattr(identities.TableCache, "once", once)
    return built


def test_each_weighted_sum_is_built_once_per_run(monkeypatch):
    # ysum and xsum are store reads keyed on q, m, what they sum and k, where a
    # table's projection is known by the table's kind and order, so "Bm.ym1" at
    # alpha = 2 reads the sum of "B.ym1" built at alpha = 1; a sum of a
    # difference row is the difference of two sums, so no difference row is summed
    entries = record_builds(monkeypatch)
    stores, reading, requested, built = [], [], set(), []
    real_store, real_conv = identities.TableCache, identities.qconv
    monkeypatch.setattr(identities, "TableCache",
                        lambda max_n: stores.append(real_store(max_n)) or stores[-1])

    def conv(q, n, *rest):
        if reading:
            built.append((q, n))
        return real_conv(q, n, *rest)

    monkeypatch.setattr(identities, "qconv", conv)
    for name in ("ysum", "xsum"):
        def read(c, k, s, real=getattr(identities.Point, name), name=name):
            requested.add((name, c.q, c.m, c.alpha, s, k))
            reading.append(s)
            try:
                return real(c, k, s)
            finally:
                reading.pop()
        monkeypatch.setattr(identities.Point, name, read)

    run_suite("all", SMALL)
    assert len(stores) == 1
    sums = [k for k, _ in entries if k[0] in ("ysum", "xsum")]
    assert sums and len(built) == len(sums) < len(requested)
    q = SMALL.q_set[0]
    assert {("ysum", q, 2, 1, "B.ym1", 3), ("ysum", q, 2, 2, "Bm.ym1", 3)} <= requested
    assert ("ysum", q, 2, "q_bernoulli", 1, "ym1", 3) in dict(entries)
    assert {k[3] for k in sums} == {"q_bernoulli", "q_euler", "pair_ym1", "ey"}


def test_one_table_cache_per_run(monkeypatch):
    built = []
    real = identities.family_table
    entries = record_builds(monkeypatch)

    def counting(spec, max_n):
        built.append((spec, max_n))
        return real(spec, max_n)

    monkeypatch.setattr(identities, "family_table", counting)
    grid = Grid(n_max=3, alpha_set=(1, 2), m_set=(1, 2), q_set=(QParam(F(1, 2)),))
    run_suite("all", grid)
    assert built and len(built) == len(set(built))  # every table built once
    assert {n for _, n in built} == {10}  # as deep as alpha-zero reads
    # each stored table carries the spec of its store key (kind, q, alpha)
    tables = {k: v for k, v in entries if isinstance(v, PolyTable)}
    assert len(tables) == len(built)
    assert all(t.spec == FamilySpec(kind, alpha, q) for (kind, q, alpha), t in tables.items())
    for suite, depth in (("lemma1", 3), ("lemma4", 3), ("sp2", 4)):
        built.clear()
        run_suite(suite, grid)
        assert {n for _, n in built} == {depth}, suite


# alpha = 4 is an order both bernstein and the alpha suites read, and 2, 5 and
# 6 are orders only bernstein reads; alpha = -2 reads the orders -2 and -3
LIFETIME_GRIDS = [SMALL, Grid(6, (0, 1, 4), (1, 2), (QParam(F(1, 2)), QParam(F(-7, 3)))),
                  Grid(6, (-2, 0, 1, 4), (1, 2), (QParam(F(1, 2)), QParam(F(-7, 3))))]
LIFETIME_IDS = ["SMALL", "alpha 0, 1 and 4", "alpha -2, 0, 1 and 4"]


def family(key, value):
    """The store family of an entry: a table's order, else its key's name."""
    return key[2] if isinstance(value, PolyTable) else key[0]


@pytest.mark.parametrize("grid", LIFETIME_GRIDS, ids=LIFETIME_IDS)
def test_no_entry_is_built_twice_in_a_run(monkeypatch, grid):
    # a family released while a later suite still reads it would be built again
    entries = record_builds(monkeypatch)
    timing = {}
    run_suite("all", grid, timing)
    keys = [k for k, _ in entries]
    assert keys and timing["run_cache"]["misses"] == len(keys) == len(set(keys))


def test_each_family_is_released_after_its_last_reader(monkeypatch):
    grid = LIFETIME_GRIDS[1]
    names = identities.SUITE_ORDER
    reads = {s: identities.READS[s](grid) for s in names}
    last = {f: s for s in names for f in reads[s]}
    held = {}  # (suite, "start" or "end") -> the families in the store

    def watched(s, check):
        def run(grid, cache):
            held[s, "start"] = {family(*e) for e in cache._store.items()}
            reports = check(grid, cache)
            held[s, "end"] = {family(*e) for e in cache._store.items()}
            return reports
        return run

    for s, check in list(identities.SUITES.items()):
        monkeypatch.setitem(identities.SUITES, s, watched(s, check))
    run_suite("all", grid)
    released = set()
    for s, after in zip(names, names[1:]):
        # exactly the families s read last are dropped as s ends, and none returns
        done = {f for f in reads[s] if last[f] == s}
        released |= done
        assert held[after, "start"] == held[s, "end"] - done, s
        assert not held[after, "start"] & released, s
    # bernstein alone reads the bb1 rows and the orders 2, 5 and 6, and no suite
    # after sp2 reads a weighted sum or a recurrence power
    assert {2, 5, 6, "bb1-row"} <= held["bernstein", "end"]
    assert not {2, 5, 6, "bb1-row"} & held["corollaries", "start"]
    assert {0, 1, 3, 4} <= held["corollaries", "start"]
    assert {"ysum", "xsum", "P"} <= held["sp2", "end"]
    assert not {"ysum", "xsum", "P"} & held["stirling-theorem", "start"]


@pytest.mark.parametrize("grid", LIFETIME_GRIDS, ids=LIFETIME_IDS)
def test_each_suite_alone_reports_its_slice_of_all(grid):
    timing = {}
    reports = run_suite("all", grid, timing)
    start = 0
    for s, t in timing["suites"].items():
        assert run_suite(s, grid) == reports[start:start + t["reports"]], s
        start += t["reports"]
    assert start == len(reports)


@pytest.mark.parametrize("suite, axis", [
    ("sp1", "m"), ("sp2", "m"), ("corollaries", "m"), ("sp1", "alpha"), ("sp2", "alpha"),
    ("sp1", "q"), ("sp2", "q"), ("corollaries", "q"), ("stirling-theorem", "q"),
    ("bernstein", "q"),
])
def test_no_sequence_is_shared_across_m_or_alpha(suite, axis):
    # the run's store keys every sequence on the axis values it reads, so
    # the reports at the last value do not depend on which values ran before
    # it; a sequence that reads q but does not name it reads the first q's values
    wrap = (lambda v: QParam(F(v))) if axis == "q" else int
    first, last = ("1/2", "-7/3") if axis == "q" else (1, 2)

    def reports_at_last(values):
        sets = {"alpha_set": (1, 2), "m_set": (1, 2), "q_set": (QParam(F(1, 2)), QParam(F(-7, 3))),
                f"{axis}_set": tuple(map(wrap, values))}
        return [r for r in run_suite(suite, Grid(n_max=4, **sets))
                if dict(r.params).get(axis) == str(wrap(last))]

    alone = reports_at_last((last,))
    assert alone and reports_at_last((first, last)) == alone


def test_each_scaled_row_is_built_once(monkeypatch):
    calls = []
    real = identities.Poly2.scale_var
    monkeypatch.setattr(identities.Poly2, "scale_var",
                        lambda p, *a: calls.append(a) or real(p, *a))
    run_suite("sp1", SMALL)
    # E1(x, 0) at y -> my and E1(0, y) at x -> mx, once per (q, m, index)
    assert len(calls) == 2 * len(SMALL.q_set) * len(SMALL.m_set) * (SMALL.n_max + 1)


def test_stirling_inner_sums_are_built_once_for_every_m(monkeypatch):
    built = []
    real = identities.qconv
    monkeypatch.setattr(identities, "qconv", lambda *a: built.append(a) or real(*a))

    def builds(m_set):
        built.clear()
        run_suite("stirling-theorem", Grid(4, (1, 2), m_set, (QParam(F(1, 2)),)))
        return len(built)

    assert builds((1, 2, 3)) == builds((1,)) > 0


def test_each_falling_factorial_row_is_stored_once_per_n_and_j(monkeypatch):
    # the right side's rows sum_r r!/(r-j)! x^r depend on n and j only, so a
    # second q or a larger m_set reads the same rows and stores none
    stores = []
    real = identities.TableCache
    monkeypatch.setattr(identities, "TableCache",
                        lambda max_n: stores.append(real(max_n)) or stores[-1])

    def rows(m_set, q_set):
        run_suite("stirling-theorem", Grid(4, (1, 2), m_set, q_set))
        return [k[1:] for k in stores[-1]._store if k[0] == "falling-row"]

    expected = {(n, j) for n in range(5) for j in range(n + 1)}
    for m_set in ((1,), (1, 2, 3)):
        for q_set in (SMALL.q_set[:1], SMALL.q_set):
            keys = rows(m_set, q_set)
            assert len(keys) == len(expected) and set(keys) == expected, (m_set, q_set)


# q = a/b with |a|, b <= 20, on both sides of (0, 1), never a root of unity
random_q = st.builds(F, st.integers(-20, 20), st.integers(1, 20)).filter(
    lambda v: v not in (0, 1, -1)
)


@settings(max_examples=10, deadline=None)
@given(value=random_q)
def test_gated_suites_hold_at_random_q(value):
    grid = Grid(n_max=3, alpha_set=(1, 2), m_set=(1, 2), q_set=(QParam(value),))
    for suite in (*GATED_SUITES, "exp-inverse"):
        reports = run_suite(suite, grid)
        assert reports
        assert [r.identity_id for r in reports if not r.passed] == [], suite
