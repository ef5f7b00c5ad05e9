import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qbern import identities
from qbern.identities import (
    CORRECTIONS,
    Grid,
    default_grid,
    run_suite,
)
from qbern.qcore import QParam

SMALL = Grid(
    n_max=5,
    alpha_set=(1, 2),
    m_set=(1, 2),
    q_set=(QParam(F(1, 2)), QParam(F(3, 4))),
)

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
    reports = run_suite(suite, SMALL)
    assert reports
    bad = [r for r in reports if not r.passed]
    assert bad == []


@pytest.mark.parametrize("suite", GATED_SUITES)
def test_residuals_vanish_at_random_points(suite):
    # cross-check the polynomial subtraction with plain scalar evaluation
    rng = random.Random(20260826)
    for r in run_suite(suite, SMALL):
        x0 = F(rng.randint(-9, 9), rng.randint(1, 9))
        y0 = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert r.lhs.evaluate(x0, y0) - r.rhs.evaluate(x0, y0) == r.residual.evaluate(
            x0, y0
        )
        if r.passed:
            assert r.residual.evaluate(x0, y0) == 0


def test_corrections_surface_in_reports():
    seen = set()
    for suite in GATED_SUITES:
        for r in run_suite(suite, SMALL):
            if r.correction_applied is not None:
                assert r.correction_applied == CORRECTIONS[r.identity_id]
                seen.add(r.identity_id)
    for expected in ("sp1-2", "sp2-1", "c1-2", "be9", "be7-y", "be8-y", "cw2", "cw3", "bb1"):
        assert expected in seen


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
    with pytest.raises(ValueError):
        Grid(n_max=4, alpha_set=(-1,), m_set=(1,), q_set=q)
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
    q = QParam(F(1, 2))
    first = identities.Point(None, q=q, m=3).P(4)
    assert first == identities.q_pair_power(q, F(1, 3), F(-1), 4)
    # a second read is keyed on the integer m: it builds and hashes no Fraction
    calls = []
    monkeypatch.setattr(F, "__hash__", lambda self: calls.append(self) or 0)
    assert identities.Point(None, q=q, m=3).P(4) == first
    assert calls == []


def test_one_table_cache_per_run(monkeypatch):
    built = []
    real = identities.family_table

    def counting(spec, max_n):
        built.append((spec, max_n))
        return real(spec, max_n)

    monkeypatch.setattr(identities, "family_table", counting)
    grid = Grid(n_max=3, alpha_set=(1, 2), m_set=(1, 2), q_set=(QParam(F(1, 2)),))
    run_suite("all", grid)
    assert built and len(built) == len(set(built))  # every table built once
    assert {n for _, n in built} == {10}  # as deep as alpha-zero reads
    for suite, depth in (("lemma1", 3), ("lemma4", 3), ("sp2", 4)):
        built.clear()
        run_suite(suite, grid)
        assert {n for _, n in built} == {depth}, suite


# q = a/b with |a|, b <= 20, on both sides of (0, 1), never a root of unity
random_q = st.builds(F, st.integers(-20, 20), st.integers(1, 20)).filter(
    lambda v: v not in (0, 1, -1)
)


@settings(max_examples=10, deadline=None)
@given(value=random_q)
def test_gated_suites_hold_at_random_q(value):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q outside (0, 1) is fine here
        grid = Grid(n_max=3, alpha_set=(1, 2), m_set=(1, 2), q_set=(QParam(value),))
        for suite in (*GATED_SUITES, "exp-inverse"):
            reports = run_suite(suite, grid)
            assert reports
            assert [r.identity_id for r in reports if not r.passed] == [], suite
