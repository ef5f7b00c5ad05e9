import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import qbern
import qbern.cli
from qbern.cli import KINDS, _json, main, poly_latex, poly_terms
from qbern.identities import SUITE_ORDER, IdentityReport, default_grid
from qbern.poly import Poly2, X, Y
from qbern.qcore import QParam
from qbern.qspecial import FamilySpec, family_table, q_bernoulli_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_json_qbernoulli(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--family",
            "qbernoulli",
            "--alpha",
            "1",
            "--n-max",
            "1",
            "--q",
            "1/2",
            "--no-meta",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"payload"}
        payload = doc["payload"]
        assert payload["q"] == "1/2"
        entry = payload["entries"][1]
        coeffs = {(t["dx"], t["dy"]): t["coeff"] for t in entry["poly"]}
        assert coeffs[(0, 0)] == "-2/3"
        assert coeffs[(1, 0)] == "1"
        assert coeffs[(0, 1)] == "1"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--family",
            "qbernoulli",
            "--alpha",
            "2",
            "--n-max",
            "6",
            "--q",
            "1/3",
            "--no-meta",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        table = q_bernoulli_table(QParam(F(1, 3)), 2, 6)
        for entry in payload["entries"]:
            assert entry["poly"] == poly_terms(table[entry["n"]])

    def test_deterministic_with_no_meta(self, capsys):
        args = (
            "table",
            "--family",
            "qeuler",
            "--alpha",
            "1",
            "--n-max",
            "5",
            "--q",
            "3/4",
            "--no-meta",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_meta_block_present_by_default(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "stirling2", "--n-max", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["tool"] == "qbern"
        assert "timestamp" in doc["meta"]

    @pytest.mark.parametrize("family", ["qeuler", "qstirling", "qbernstein"])
    def test_build_time_in_meta_only(self, capsys, family):
        args = ("table", "--family", family, "--n-max", "4", "--q", "3/4")
        start = time.perf_counter()
        code, out, _ = run(capsys, *args)
        wall_s = time.perf_counter() - start
        assert code == 0
        doc = json.loads(out)
        # the meta block follows the payload, as the build time is known only
        # once the last entry is built
        assert list(doc) == ["payload", "meta"]
        assert list(doc["meta"]["timing"]) == ["build_s"]
        assert 0 <= doc["meta"]["timing"]["build_s"] <= wall_s
        _, bare, _ = run(capsys, *args, "--no-meta")
        assert json.loads(bare) == {"payload": doc["payload"]}
        assert "timing" not in bare
        # and every command writes its document in that one layout
        for argv in (("verify", "--suite", "exp-inverse", "--n-max", "2"),
                     ("limit", "--family", "qeuler", "--n", "2")):
            code, out, _ = run(capsys, *argv)
            assert (code, list(json.loads(out))) == (0, ["payload", "meta"])

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--family",
            "qstirling",
            "--n-max",
            "3",
            "--q",
            "1/2",
            "--format",
            "csv",
            "--no-meta",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,value"
        assert "3,2,7/3" in lines

    def test_csv_polynomials(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--family",
            "classical-bernoulli",
            "--n-max",
            "2",
            "--format",
            "csv",
            "--no-meta",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,dx,dy,coeff"
        assert "2,0,0,1/6" in lines

    def test_csv_bernstein_rows_carry_k(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "qbernstein", "--n-max", "1", "--q", "1/2",
            "--format", "csv", "--no-meta",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,dx,dy,coeff"
        # b_{1,0} = 1 - x and b_{1,1} = x
        assert lines[1:] == ["0,0,0,0,1", "1,0,0,0,1", "1,0,1,0,-1", "1,1,1,0,1"]

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "65a7166c7ca72d317a664947ccee677782a5238dec9e415563d2bd39129da169"),
        ("csv", "d16093f83dbf7f4d5a734b6c134295b7421da54d9ab8406ff92f57f4145ab60e"),
        ("latex", "3aea0922a437fe708afe08340060b24700c9e0c0b298a3fb0eee79033cfce567"),
    ])
    def test_every_family_output_digest(self, capsys, fmt, digest):
        # pins the --no-meta output of all seven families, one format at a time
        outputs = []
        for family in ("qbernoulli", "qeuler", "qstirling", "qbernstein",
                       "classical-bernoulli", "classical-euler", "stirling2"):
            alpha = ("--alpha", "2") if family in KINDS else ()
            code, out, _ = run(capsys, "table", "--family", family, *alpha,
                               "--n-max", "4", "--q=-7/3", "--format", fmt, "--no-meta")
            assert code == 0
            outputs.append(out)
        assert hashlib.sha256("".join(outputs).encode()).hexdigest() == digest

    def test_cold_qstirling_table_builds_each_row_once(self, capsys, monkeypatch):
        # building row i reads the numerator N_i of [i] once, for the product
        # N_1...N_i its S(i, i) is divided by, so these reads mean each of rows
        # 1..12 was built once (a q no other test uses)
        reads = []
        real = qbern.qspecial._q_numerator
        monkeypatch.setattr(qbern.qspecial, "_q_numerator",
                            lambda c, d, i: reads.append(i) or real(c, d, i))
        code, _, _ = run(capsys, "table", "--family", "qstirling", "--n-max", "12",
                         "--q", "13/23", "--no-meta")
        assert code == 0
        assert sorted(reads) == list(range(1, 13))

    @pytest.mark.parametrize("family", ["qstirling", "qbernstein", "stirling2"])
    def test_alpha_is_usage_error_where_it_does_not_apply(self, capsys, family):
        code, out, err = run(capsys, "table", "--family", family, "--alpha", "1",
                             "--n-max", "2", "--q", "1/2")
        assert code == 2
        assert out == ""
        assert err == f"error: --alpha does not apply to {family}\n"

    @pytest.mark.parametrize("family", list(KINDS))
    def test_alpha_defaults_to_one(self, capsys, family):
        # --q is required by the q families and accepted by the classical ones
        argv = ("table", "--family", family, "--n-max", "3", "--q", "1/2", "--no-meta")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["payload"]["alpha"] == 1
        assert run(capsys, *argv, "--alpha", "1") == (0, out, "")
        if not family.startswith("q"):
            assert run(capsys, *argv[:-3], "--no-meta") == (0, out, "")

    def test_latex(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--family",
            "classical-euler",
            "--n-max",
            "1",
            "--format",
            "latex",
            "--no-meta",
        )
        assert code == 0
        assert out.startswith("\\begin{tabular}")
        assert "-\\frac{1}{2}" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run(
            capsys,
            "table",
            "--family",
            "qbernstein",
            "--n-max",
            "2",
            "--q",
            "1/2",
            "--no-meta",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())["payload"]
        assert payload["family"] == "qbernstein"

    def test_missing_q_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "table", "--family", "qbernoulli", "--n-max", "2"
        )
        assert code == 2
        assert "error" in err

    def test_q_equal_one_is_domain_error(self, capsys):
        code, _, err = run(
            capsys,
            "table",
            "--family",
            "qbernoulli",
            "--n-max",
            "2",
            "--q",
            "1",
        )
        assert code == 3
        assert "domain error" in err

    def test_q_minus_one_is_domain_error(self, capsys):
        code, _, err = run(capsys, "table", "--family", "qbernoulli", "--n-max", "2", "--q", "-1")
        assert code == 3
        assert "domain error" in err

    def test_meta_command_is_the_argv_main_was_given(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["host", "extra-host-arg", "--whatever"])
        target = str(tmp_path / "t.json")
        argv = ["table", "--family", "stirling2", "--n-max", "2", "--out", target]
        assert main(argv) == 0
        assert json.loads(Path(target).read_text())["meta"]["command"] == " ".join(argv)

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "f.json"
        code, _, err = run(
            capsys, "table", "--family", "stirling2", "--n-max", "2", "--out", str(out)
        )
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("table", "--family", "stirling2", "--n-max", "2"),
        ("verify", "--suite", "all", "--n-max", "12"),
        ("limit", "--family", "qeuler", "--n", "2"),
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_fails_before_the_command_computes(self, capsys, monkeypatch,
                                                              tmp_path, argv):
        calls = []
        monkeypatch.setitem(qbern.cli.COMMANDS, argv[0], lambda args: calls.append(args))
        out = tmp_path / "missing" / "x.json"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert (code, calls) == (2, [])
        assert err.startswith(f"error: cannot write {out}: ")

    def test_failed_command_removes_the_out_file_it_opened(self, capsys, tmp_path):
        target = tmp_path / "f"
        code, out, err = run(capsys, "table", "--family", "qbernoulli", "--q=-1",
                             "--n-max", "3", "--out", str(target))
        assert (code, out) == (3, "")
        assert err.startswith("domain error: ")
        assert not target.exists()

    def test_unknown_family_rejected_by_argparse(self, capsys):
        code, _, _ = run(
            capsys, "table", "--family", "nonsense", "--n-max", "2"
        )
        assert code == 2


class TestVerify:
    def test_exp_inverse_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "exp-inverse", "--no-meta"
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["failures"] == 0
        assert payload["total"] == 3
        assert all(r["pass"] for r in payload["reports"])

    def test_grid_flags_default_to_the_default_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma4", "--no-meta")
        assert code == 0
        grid = default_grid()
        assert json.loads(out)["payload"]["grid"] == {
            "n_max": grid.n_max,
            "alpha_set": list(grid.alpha_set),
            "m_set": list(grid.m_set),
            "q_set": [str(q) for q in grid.q_set],
        }

    def test_small_lemma_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "lemma3",
            "--n-max",
            "4",
            "--alpha-set",
            "1",
            "--m-set",
            "1",
            "--q-set",
            "1/2",
            "--no-meta",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["failures"] == 0
        assert payload["grid"]["q_set"] == ["1/2"]

    def test_corrections_listed(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "sp2",
            "--n-max",
            "3",
            "--alpha-set",
            "1",
            "--m-set",
            "1,2",
            "--q-set",
            "1/2",
            "--no-meta",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        tagged = [r for r in payload["reports"] if r["id"] == "sp2-1"]
        assert tagged
        assert all("correction_applied" in r for r in tagged)

    def test_verdict_only_does_not_gate(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "stirling-theorem",
            "--n-max",
            "3",
            "--alpha-set",
            "1",
            "--m-set",
            "2",
            "--q-set",
            "1/2",
            "--no-meta",
        )
        assert code == 0  # verdict-only statements never trip exit 1
        payload = json.loads(out)["payload"]
        assert payload["failures"] == 0
        assert payload["verdicts"]["recorded"] > 0
        assert payload["verdicts"]["failing"] > 0

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--suite", "lemma1", "--n-max", "0", "--no-meta"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("q", ["0", "1", "-1"])
    def test_excluded_q_is_domain_error(self, capsys, q):
        code, out, err = run(capsys, "verify", "--suite", "lemma1", f"--q-set=1/2,{q}")
        assert code == 3
        assert out == ""
        assert err.startswith("domain error: ")
        assert "Traceback" not in err

    def test_format_is_not_an_option(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "exp-inverse", "--format", "json")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --format json" in err

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(name, grid, timing=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(qbern.cli, "run_suite", broken)
        code, out, err = run(capsys, "verify", "--suite", "exp-inverse", "--no-meta")
        assert code == 4
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize("argv, builder", [
        (("table", "--family", "qeuler", "--q", "1/2", "--n-max", "3"), "family_entries"),
        (("verify", "--suite", "exp-inverse"), "run_suite"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_out_of_memory_is_internal_error(self, capsys, monkeypatch, tmp_path, argv, builder):
        # no input is bounded: running out of memory is exit 4, raised here without allocating
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(qbern.cli, builder, exhausted)
        target = tmp_path / "f.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out, err) == (4, "", "internal error: MemoryError: \n")
        assert not target.exists()

    def test_run_checking_nothing_is_usage_error(self, capsys, monkeypatch):
        # every valid grid gives every suite a point: lemma3 checks order 0 too
        code, out, _ = run(capsys, "verify", "--suite", "lemma3", "--alpha-set", "0",
                           "--no-meta")
        payload = json.loads(out)["payload"]
        assert (code, payload["total"], payload["failures"]) == (0, 108, 0)
        # so only a run that returns no report reaches the guard
        real = qbern.cli.run_suite
        monkeypatch.setattr(qbern.cli, "run_suite", lambda *args: real(*args)[:0])
        code, out, err = run(capsys, "verify", "--suite", "lemma3", "--alpha-set", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "checks no identity" in err

    def test_small_grid_output_digest(self, capsys, tmp_path):
        # pins every report id, parameter order and residual on a small grid
        out = tmp_path / "verify.json"
        code, _, _ = run(
            capsys, "verify", "--suite", "all", "--n-max", "5", "--alpha-set", "1,2",
            "--m-set", "1,2", "--q-set", "1/2,3/4", "--no-meta", "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "405145d1949b1eece9bc9ec146c4145797f364e08af118408658451d88fe27f2"
        )

    def test_timing_in_meta_only(self, capsys):
        args = ("verify", "--suite", "all", "--n-max", "2", "--alpha-set", "1",
                "--m-set", "1", "--q-set", "1/2")
        code, out, _ = run(capsys, *args)
        assert code == 0
        doc = json.loads(out)
        timing = doc["meta"]["timing"]
        assert list(timing["suites"]) == list(qbern.identities.SUITE_ORDER)
        assert sum(s["reports"] for s in timing["suites"].values()) == doc["payload"]["total"]
        assert all(s["wall_s"] >= 0 for s in timing["suites"].values())
        assert timing["wall_s"] >= sum(s["wall_s"] for s in timing["suites"].values())
        # the table builds are timed inside each suite's wall time
        assert all(0 <= s["tables_s"] <= s["wall_s"] for s in timing["suites"].values())
        assert sum(s["tables_s"] for s in timing["suites"].values()) > 0
        assert 0 <= timing["write_s"]
        memo = timing["scalar_memo"]
        assert memo["hits"] > 0 and memo["misses"] >= 0
        assert 0 < memo["size"] <= memo["bound"]
        _, out, _ = run(capsys, *args, "--no-meta")
        assert "timing" not in out
        assert list(json.loads(out)) == ["payload"]

    def test_run_cache_in_meta(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "sp1", "--n-max", "3",
                           "--alpha-set", "1,2", "--m-set", "1,2", "--q-set", "1/2")
        assert code == 0
        store = json.loads(out)["meta"]["timing"]["run_cache"]
        assert set(store) == {"entries", "peak_entries", "hits", "misses"}
        assert 0 < store["misses"] <= store["entries"]
        assert store["hits"] > 0
        assert 0 < store["peak_entries"]
        # one suite releases nothing: the store holds at the end all it built
        assert store["entries"] == store["peak_entries"] == store["misses"]

    def test_run_cache_in_meta_sums_the_passes(self, capsys):
        # a store per q: hits and misses are summed, the peak is the largest
        # store's, and the entries are those the last store held at its end
        def store(q_set):
            code, out, _ = run(capsys, "verify", "--suite", "sp1", "--n-max", "3",
                               "--alpha-set", "1,2", "--m-set", "1,2", f"--q-set={q_set}")
            assert code == 0
            return json.loads(out)["meta"]["timing"]["run_cache"]

        half, third, both = store("1/2"), store("-7/3"), store("1/2,-7/3")
        assert both["hits"] == half["hits"] + third["hits"]
        assert both["misses"] == half["misses"] + third["misses"]
        assert both["peak_entries"] == max(half["peak_entries"], third["peak_entries"])
        assert both["entries"] == third["entries"] < both["misses"]

    def test_deterministic_with_no_meta(self, capsys):
        args = (
            "verify",
            "--suite",
            "lemma2",
            "--n-max",
            "4",
            "--alpha-set",
            "1,2",
            "--m-set",
            "1",
            "--q-set",
            "1/2,3/4",
            "--no-meta",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestLimit:
    def test_euler_example(self, capsys):
        code, out, _ = run(
            capsys,
            "limit",
            "--family",
            "qeuler",
            "--n",
            "2",
            "--x",
            "0",
            "--q-seq",
            "9/10,99/100",
            "--no-meta",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert [e["error"] for e in payload["errors"]] == ["1/40", "1/400"]
        assert payload["monotone_decreasing"] is True

    def test_output_digest(self, capsys, tmp_path):
        # evaluates a row at x = 7/3 for every q of the default sequence
        out = tmp_path / "limit.json"
        code, _, _ = run(
            capsys, "limit", "--family", "qbernoulli", "--alpha", "2", "--n", "6",
            "--x", "7/3", "--no-meta", "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "33e02ce6eafa8ff05c4a1bbeca556cc92c4bba749dedc9204ac0648a92ae284b"
        )

    def test_decimal_overflow_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "limit", "--family", "qeuler", "--n", "2", "--x", "1e400", "--no-meta"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("domain error: ")
        assert "Traceback" not in err

    def test_negative_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "limit", "--family", "qeuler", "--n", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --n must be nonnegative\n"

    def test_unsupported_family(self, capsys):
        code, _, err = run(
            capsys, "limit", "--family", "qstirling", "--n", "2", "--no-meta"
        )
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("argv, option", [
    (("table", "--family", "qeuler", "--n-max", "4"), ("--q", "-7/3")),
    (("verify", "--suite", "lemma1", "--n-max", "3"), ("--q-set", "-7/3,1/2")),
    (("limit", "--family", "qeuler", "--n", "2"), ("--x", "-1/2")),
])
def test_negative_value_after_a_space(capsys, argv, option):
    # argparse alone reads "-7/3" as an option and exits 2
    code, spaced, err = run(capsys, *argv, *option, "--no-meta")
    assert (code, err) == (0, "")
    _, joined, _ = run(capsys, *argv, "=".join(option), "--no-meta")
    assert spaced == joined


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "lemma4", "--n-max", "2", "--q", "5/2", "--al", "1"),
    ("limit", "--family", "qeuler", "--n", "2", "--q", "1/2"),
    ("table", "--fam", "qeuler", "--n-max", "2", "--q", "1/2"),
])
def test_option_names_are_exact(capsys, argv):
    # a prefix of an option is not that option: --q is not --q-set or --q-seq
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err or "required" in err
    assert "Traceback" not in err


exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
coefficients = st.integers(-10**12, 10**12) | st.fractions(max_denominator=10**6)
# unit and small coefficients, so signs, \frac and the unit-monomial rule all show
latex_coefficients = st.sampled_from([1, -1, 2, -2, F(1, 2), F(-1, 2), F(-7, 3)]) | coefficients
polys = st.dictionaries(exponents, coefficients, max_size=4).map(Poly2)


def reference_poly_latex(terms: list[dict]) -> str:
    """LaTeX for a polynomial given as its ``poly_terms`` rows, read back
    from their strings: an independent reading of the same layout."""
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


class TestSerialization:
    def test_poly_terms_round_trip(self):
        p = X**2 - F(2, 3) * X * Y + Poly2.const(F(5, 7))
        terms = poly_terms(p)
        assert Poly2({(t["dx"], t["dy"]): F(t["coeff"]) for t in terms}) == p

    def test_poly_latex(self):
        p = X**2 - F(1, 2) * Y + Poly2.one()
        assert poly_latex(p) == "1 - \\frac{1}{2}y + x^{2}"

    def test_poly_latex_zero(self):
        assert poly_latex(Poly2.zero()) == "0"

    @settings(max_examples=150, deadline=None)
    @given(terms=st.dictionaries(exponents, latex_coefficients, max_size=5))
    @example(terms={})
    @example(terms={(0, 0): -1})
    @example(terms={(0, 0): 1, (1, 0): -1, (0, 1): 1})
    @example(terms={(0, 0): F(-1, 2), (2, 3): -1, (1, 1): F(7, 3)})
    @example(terms={(1, 0): -1, (0, 0): -5})
    def test_poly_latex_matches_the_string_reading(self, terms):
        p = Poly2(terms)
        assert poly_latex(p) == reference_poly_latex(poly_terms(p))

    @settings(max_examples=60, deadline=None)
    @given(a=st.dictionaries(exponents, coefficients, max_size=6),
           b=st.dictionaries(exponents, coefficients, max_size=6),
           cancel=st.sets(exponents))
    def test_poly_terms_formats_the_reduced_fractions(self, a, b, cancel):
        # b cancels a at the keys in ``cancel``; the sum's terms share one
        # denominator, so most of them reduce by a gcd above 1
        b.update({k: -a[k] for k in cancel & a.keys()})
        for p in (Poly2(a) + Poly2(b), Poly2(a) - Poly2(a)):
            assert poly_terms(p) == [
                {"dx": dx, "dy": dy, "coeff": str(c)} for (dx, dy), c in p.terms()
            ]
        assert poly_terms(Poly2.zero()) == []

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit before Python 3.11")
    def test_coefficient_over_the_digit_limit_is_domain_error(self, capsys, tmp_path):
        # the n = 14 row at this q has a 741-digit denominator; 640 is the lowest limit
        target = tmp_path / "t.json"
        argv = ("table", "--family", "qbernoulli", "--n-max", "14",
                "--q", "1234567/7654321", "--no-meta", "--out", str(target))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (3, "")
        assert err.startswith("domain error: ") and "Traceback" not in err
        assert not target.exists()
        assert run(capsys, *argv) == (0, "", "")
        assert target.exists()


def run_over_the_digit_limit(capsys, fmt, out):
    """``run`` of a table whose n = 14 row has a 741-digit denominator,
    under an int-to-str digit limit of 640, so its formatting raises."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        return run(capsys, "table", "--family", "qbernoulli", "--n-max", "14",
                   "--q", "1234567/7654321", "--format", fmt, "--no-meta", "--out", str(out))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
@pytest.mark.parametrize("argv, bases", [
    (("table", "--family", "qeuler", "--n-max", "3", "--q=-7/3"), {3}),
    (("table", "--family", "qbernstein", "--n-max", "3", "--q", "5/66"), {66}),
    (("table", "--family", "classical-euler", "--n-max", "3"), {1}),
])
def test_writers_reduce_terms_at_q_denominator(capsys, monkeypatch, fmt, argv, bases):
    seen = set()
    ratios = Poly2.term_ratios
    monkeypatch.setattr(Poly2, "term_ratios", lambda p, base=1: seen.add(base) or ratios(p, base))
    assert run(capsys, *argv, "--format", fmt)[0] == 0
    assert seen == bases


def test_verify_residuals_are_reduced_with_base_1(capsys, monkeypatch):
    seen = set()
    ratios = Poly2.term_ratios
    monkeypatch.setattr(Poly2, "term_ratios", lambda p, base=1: seen.add(base) or ratios(p, base))
    assert run(capsys, "verify", "--suite", "lemma3", "--n-max", "2", "--alpha-set", "1",
               "--m-set", "1", "--q-set", "1/2", "--no-meta")[0] == 0
    assert seen == {1}


class TestStreaming:
    def test_deep_table_is_written_without_holding_its_output(self, tmp_path):
        target = tmp_path / "deep.json"
        args = qbern.cli.build_parser().parse_args(
            ["table", "--family", "qbernoulli", "--n-max", "30", "--q", "7/11", "--no-meta",
             "--out", str(target)])
        payload = qbern.cli._table_payload(args)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with qbern.cli._output(args.out) as put:
                qbern.cli._emit([], args, payload, put)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        written = target.stat().st_size
        assert written > 2_800_000
        assert peak < written / 4, (peak, written)

    @pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
    def test_table_is_written_without_holding_the_table(self, tmp_path, fmt):
        # each entry is built, written and dropped before the next is built, so
        # writing the table takes well under what the finished table holds
        spec = FamilySpec("q_bernoulli", 1, QParam(F(7, 11)))
        target = tmp_path / "t"

        def argv(n_max):
            return ["table", "--family", "qbernoulli", "--n-max", n_max, "--q", "7/11",
                    "--format", fmt, "--out", str(target)]

        # a small run and a first build import and memoize what is not the table's
        assert main(argv("2")) == 0
        family_table(spec, 30)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = family_table(spec, 30)
            held = tracemalloc.get_traced_memory()[0] - before
            del table
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(argv("30")) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < held / 2, (peak, held)

    def test_a_pipe_closed_mid_table_stops_the_builds(self, capsys, monkeypatch):
        built = []
        real = qbern.cli.family_entries
        monkeypatch.setattr(qbern.cli, "family_entries", lambda spec, n_max: (
            built.append(n) or p for n, p in enumerate(real(spec, n_max))))
        r, w = os.pipe()
        os.close(r)

        class Stdout(io.StringIO):
            """A stdout whose reader goes away once entry 1 is under way."""

            def write(self, text):
                if '"n": 1' in self.getvalue():
                    raise BrokenPipeError
                return super().write(text)

            def fileno(self):
                return w

        stdout = Stdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["table", "--family", "qbernoulli", "--n-max", "12", "--q", "7/11",
                     "--no-meta"])
        monkeypatch.undo()
        os.close(w)
        assert (code, capsys.readouterr().err) == (141, "")
        assert stdout.getvalue().endswith('"n": 1')
        assert built == [0, 1]

    @pytest.mark.parametrize("exc, code, line", [
        (ZeroDivisionError("at entry 3"), 3, "domain error: at entry 3\n"),
        (RuntimeError("at entry 3"), 4, "internal error: RuntimeError: at entry 3\n"),
        (KeyboardInterrupt(), 130, "interrupted\n"),
    ], ids=["domain", "internal", "interrupt"])
    def test_error_while_building_an_entry(self, capsys, monkeypatch, tmp_path, exc, code, line):
        real = qbern.cli.family_entries

        def failing(spec, n_max):
            for n, p in enumerate(real(spec, n_max)):
                if n == 3:
                    raise exc
                yield p

        monkeypatch.setattr(qbern.cli, "family_entries", failing)
        argv = ("table", "--family", "qeuler", "--n-max", "6", "--q", "7/11", "--no-meta")
        target = tmp_path / "t.json"
        assert run(capsys, *argv, "--out", str(target)) == (code, "", line)
        assert not target.exists()
        # on stdout the entries before it stay written
        got, out, err = run(capsys, *argv)
        assert (got, err) == (code, line)
        assert '"n": 2' in out and '"n": 3' not in out

    @pytest.mark.parametrize("argv", [
        ("table", "--family", "qbernoulli", "--alpha", "2", "--n-max", "6", "--q=-7/3",
         "--no-meta"),
        ("table", "--family", "qbernstein", "--n-max", "4", "--q=-7/3", "--no-meta",
         "--format", "csv"),
        ("table", "--family", "qeuler", "--n-max", "6", "--q", "1/2", "--no-meta",
         "--format", "latex"),
        ("verify", "--suite", "lemma3", "--n-max", "2", "--alpha-set", "1", "--m-set", "1",
         "--q-set", "1/2,-7/3", "--no-meta"),
    ])
    def test_stdout_gets_the_bytes_out_gets(self, capsysbinary, tmp_path, argv):
        target = tmp_path / "out"
        assert main([*argv, "--out", str(target)]) == 0
        assert main(list(argv)) == 0
        out, err = capsysbinary.readouterr()
        assert err == b""
        assert out == target.read_bytes()

    def test_verify_payload_holds_nothing_per_report(self, monkeypatch):
        # the payload carries the reports run_suite returned as they are, each
        # formatted from its record where it is written; turning each of this
        # grid's 1,164 reports into a dict instead allocated about 364 KB here.
        # gc.collect() empties the interpreter's free lists first: an automatic
        # full collection while the payload is built would otherwise release
        # their memory from the trace and hide what the payload allocates
        args = qbern.cli.build_parser().parse_args(
            ["verify", "--suite", "all", "--n-max", "4", "--alpha-set", "1,2", "--m-set", "1,2",
             "--q-set", "1/2,3/4"])
        real = qbern.cli.run_suite
        after_run = []

        def run_suite(*args):
            reports = real(*args)
            gc.collect()
            after_run.append(tracemalloc.get_traced_memory()[0])
            return reports

        monkeypatch.setattr(qbern.cli, "run_suite", run_suite)
        tracemalloc.start()
        try:
            payload = qbern.cli._verify_payload(args)
            grown = tracemalloc.get_traced_memory()[0] - after_run[0]
        finally:
            tracemalloc.stop()
        assert payload["total"] >= 1000
        assert grown < 64 * 1024, (grown, payload["total"])

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit before Python 3.11")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_write_removes_a_regular_out_file(self, capsys, tmp_path, fmt):
        target = tmp_path / "t.out"
        target.write_text("an earlier output\n")
        code, out, err = run_over_the_digit_limit(capsys, fmt, target)
        assert (code, out) == (3, "")
        assert err.startswith("domain error: ")
        assert not target.exists()

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit before Python 3.11")
    def test_failed_write_leaves_an_out_symlink(self, capsys, tmp_path):
        dest = tmp_path / "dest.json"
        dest.write_text("")
        link = tmp_path / "link.json"
        link.symlink_to(dest)
        code, _, err = run_over_the_digit_limit(capsys, "json", link)
        assert code == 3
        assert err.startswith("domain error: ")
        assert link.is_symlink() and os.readlink(link) == str(dest)
        assert dest.exists()


json_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t aé€\u2028\U0001f600') | st.characters(),
                    max_size=8)
json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60)
                | st.floats() | json_text | polys)


def with_rows(doc):
    """``doc`` with each ``Poly2`` leaf replaced by its ``poly_terms`` rows, and
    each ``IdentityReport`` leaf by the object that the JSON writer writes for it."""
    if isinstance(doc, Poly2):
        return poly_terms(doc)
    if isinstance(doc, IdentityReport):
        obj = {
            "id": doc.identity_id,
            "params": dict(doc.params),
            "pass": doc.passed,
            "residual": poly_terms(doc.residual),
        }
        if doc.correction_applied:
            obj["correction_applied"] = doc.correction_applied
        if doc.verdict_only:
            obj["verdict_only"] = True
        return obj
    if isinstance(doc, dict):
        return {k: with_rows(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [with_rows(v) for v in doc]
    return doc


def json_containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(json_text, children, max_size=4))


json_documents = json_containers(st.recursive(json_scalars, json_containers, max_leaves=16))


class TestJsonWriter:
    # no shrink phase: shrinking these nested documents took minutes, so a
    # failure reports the example as it was generated
    @settings(max_examples=100, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(doc=json_documents)
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, True, False, None, {}, []])
    @example({"p": Poly2.zero(), "q": [X - F(1, 2) * Y, (Poly2.const(-3),)]})
    def test_matches_json_dumps_indent_2(self, doc):
        out = io.StringIO()
        _json(doc, out.write)
        assert out.getvalue() == json.dumps(with_rows(doc), indent=2) + "\n"

    def test_a_generator_is_written_as_its_list(self):
        def doc(seq):
            return {"empty": seq([]), "rows": seq([{"n": 0, "poly": X}, {"e": seq([])}]),
                    "last": seq([seq([1]), "a"])}

        out = io.StringIO()
        _json(doc(lambda items: (v for v in items)), out.write)
        assert out.getvalue() == json.dumps(with_rows(doc(list)), indent=2) + "\n"

    @pytest.mark.parametrize("report", [
        IdentityReport("lemma1", (("n", "3"), ("alpha", "2"), ("q", "1/2")), Poly2.zero()),
        IdentityReport("lemma3", (("n", "2"), ("q", "-7/3")),
                       X * X - F(1, 2) * X * Y + F(3, 7) * Y - F(22, 21)),
        IdentityReport("sp2-1", (("n", "1"), ("m", "2"), ("q", "3/4")), Poly2.const(F(-5, 9))),
        IdentityReport("stirling-bern", (("n", "2"), ("q", "1/3")), F(1, 6) * Y),
        IdentityReport("stirling-bern", (("n", "0"),), Poly2.zero()),
        IdentityReport("exp-inverse", (), Poly2.zero()),
        IdentityReport("exp-inverse", (), X - 1),
        IdentityReport('a "quoted" id\u00e9', (("k\n", "v\u2028"),), Poly2.const(2)),
    ], ids=["passing", "failing", "corrected", "verdict-failing", "verdict-holding",
            "no-params", "no-params-failing", "escaped"])
    def test_report_leaves_match_their_dict_form(self, report):
        doc = {"payload": {"total": 1, "reports": [report, report]}, "at_top": report,
               "nested": [[report], {"r": report}], "last": report}
        out = io.StringIO()
        _json(doc, out.write)
        assert out.getvalue() == json.dumps(with_rows(doc), indent=2) + "\n"
        out = io.StringIO()
        _json([report], out.write)
        assert out.getvalue() == json.dumps(with_rows([report]), indent=2) + "\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "lemma3", "--n-max", "2", "--alpha-set", "1", "--m-set", "1",
         "--q-set", "1/2,-7/3"),
        ("limit", "--family", "qbernoulli", "--alpha", "2", "--n", "6", "--x", "7/3"),
        ("table", "--family", "qbernstein", "--n-max", "3", "--q=-7/3", "--no-meta"),
    ])
    def test_real_documents_match_json_dumps(self, capsys, argv):
        # the verify and limit documents keep their meta block, timing floats
        # included; they are small, as pytest's diff of a failing comparison
        # of two long strings takes minutes
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert ("meta" in doc) == ("--no-meta" not in argv)
        assert out == json.dumps(doc, indent=2) + "\n"


def test_module_runs_as_script():
    env = dict(os.environ)
    src = str(Path(qbern.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "qbern.cli", "table", "--family", "stirling2", "--n-max", "2",
         "--no-meta"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["payload"]["rows"][-1] == {"n": 2, "k": 2, "value": "1"}


def cli_process(*argv, **popen):
    """``python -m qbern.cli`` on ``argv`` with block-buffered output, as
    from a shell, with stdout and stderr piped to the caller."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(qbern.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "qbern.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen)


def test_console_script_writes_coefficients_over_the_digit_limit():
    # entry 9's denominator has over 4,300 digits, Python's default int-to-str
    # limit; ``entry`` lifts it, where ``main`` in-process keeps it
    proc = cli_process("table", "--family", "qeuler", "--n-max", "9",
                       "--q", f"1/{10 ** 150 + 1}", "--no-meta")
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert len(out) == 1_090_673
    assert hashlib.sha256(out).hexdigest() == (
        "fca1081887aac69614ac21be9712287f56be115731fb7a67cacc4176eb14793e")


@pytest.mark.parametrize("family, alpha", [
    ("classical-bernoulli", ("--alpha", "3")), ("classical-euler", ("--alpha", "2")),
    ("stirling2", ()),
])
def test_classical_tables_accept_and_ignore_q(capsys, family, alpha):
    argv = ("table", "--family", family, *alpha, "--n-max", "5", "--no-meta")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--q", "7/11") == (0, out, "")


class TestClosedPipesAndInterrupts:
    @pytest.mark.parametrize("n_max, lines, codes", [
        # megabytes, far past any pipe buffer: the writer meets the closed pipe
        ("40", 1, {141}),
        # 2.5 kB: it may all be written before the reader closes, or not
        ("3", 1, {0, 141}),
        # closed before anything is read, so even a short output meets it
        ("3", 0, {141}),
    ])
    def test_a_reader_that_closes_stdout_early_is_no_error(self, n_max, lines, codes):
        proc = cli_process("table", "--family", "qbernoulli", "--n-max", n_max, "--q", "7/11")
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) in codes
        assert err == b""  # so no traceback and no "internal error" line

    def test_stdout_write_that_raises_broken_pipe_exits_141(self, capsys, monkeypatch):
        # a real descriptor, which pytest's captured stdout lacks: a pipe with
        # no reader, line-buffered so that the first write of a line raises
        r, w = os.pipe()
        os.close(r)
        with os.fdopen(w, "w", buffering=1) as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["table", "--family", "stirling2", "--n-max", "2", "--no-meta"])
            monkeypatch.undo()
            assert (code, capsys.readouterr().err) == (141, "")
            # the descriptor now points at devnull, so the final flush succeeds
            assert os.write(w, b"x") == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_broken_pipes_leave_no_descriptor_open(self, capsys, monkeypatch):
        r, w = os.pipe()
        os.close(r)

        class Stdout(io.StringIO):
            """A stdout whose reader has gone: every write raises."""

            def write(self, text):
                raise BrokenPipeError

            def fileno(self):
                return w

        monkeypatch.setattr(sys, "stdout", Stdout())
        before = len(os.listdir("/proc/self/fd"))
        codes = [main(["table", "--family", "stirling2", "--n-max", "2", "--no-meta"])
                 for _ in range(3)]
        after = len(os.listdir("/proc/self/fd"))
        monkeypatch.undo()
        os.close(w)
        assert (codes, capsys.readouterr().err) == ([141] * 3, "")
        assert after == before

    def test_broken_out_fifo_is_still_cannot_write(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # the reader opens the FIFO and closes it unread; the 1 MB output
        # fills the pipe, so a write meets the closed end whatever the timing
        reader = threading.Thread(target=lambda: open(fifo, "rb").close(), daemon=True)
        reader.start()
        code, out, err = run(capsys, "table", "--family", "qbernoulli", "--n-max", "24",
                             "--q", "7/11", "--no-meta", "--out", str(fifo))
        reader.join(timeout=60)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {fifo}: Broken pipe\n"
        assert fifo.exists()

    def test_interrupt_exits_130_without_a_traceback(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(qbern.cli.COMMANDS, "table", interrupted)
        assert run(capsys, "table", "--family", "stirling2", "--n-max", "2") == (
            130, "", "interrupted\n")
        monkeypatch.setattr(sys, "argv", ["qbern", "table", "--family", "stirling2",
                                          "--n-max", "2"])
        # ``entry`` lifts the int-to-str digit limit for the process; put it back
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        try:
            with pytest.raises(SystemExit) as exit_:
                qbern.cli.entry()
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert exit_.value.code == 130
        assert capsys.readouterr().err == "interrupted\n"

    def test_interrupt_while_writing_removes_a_regular_out_file(self, capsys, monkeypatch,
                                                                tmp_path):
        def interrupted(doc, put, base):
            put("{")
            raise KeyboardInterrupt

        monkeypatch.setitem(qbern.cli.WRITERS, "json", interrupted)
        target = tmp_path / "t.json"
        assert run(capsys, "table", "--family", "stirling2", "--n-max", "2",
                   "--out", str(target)) == (130, "", "interrupted\n")
        assert not target.exists()


# -- the CLI contract under generated argv ----------------------------

def pool(good: list[str], edge: list[str]) -> list[str]:
    """Valid values three times as likely as edge values, which come last, so
    a failing example shrinks towards a valid one."""
    return good * 3 + edge


# Edge values: empty, zero and -1, a zero denominator, nan and inf, an exponent
# past float range, a leading space, repeated and empty list items, non-ASCII
# digits, a plus sign, a decimal where an int belongs, and words
RATIONALS = pool(["1/2", "-7/3", "0", "1", "2/3", "0.5", "-1/5", "355/113"],
                 ["", "-1", "1/0", "nan", "inf", "1e400", " 3/4", "1/2,1/2", "٣/٤", "x"])
Q_LISTS = pool(["1/2", "1/2,-7/3", "9/10,99/100,999/1000", "-412/997", "5/2"],
               ["", "0", "1", "-1", "1/0", "nan", "0.5", "1/2,1/2", "1/2,,1/3", "٣/٤"])
SMALL_INTS = pool(["0", "1", "2", "3", "4"], ["", "-1", "+2", "1.5", "٢", "x"])
INT_LISTS = pool(["1", "2", "3", "1,2", "1,3"], ["", "0", "-1", "1,1", "1,x", "٢", "1.0"])
# each command's options and their values; --n-max and --n stay at most 4
OPTIONS = {
    "table": [("--family", pool(list(qbern.cli.TABLE_FAMILIES), ["nonsense"])),
              ("--alpha", SMALL_INTS), ("--n-max", SMALL_INTS), ("--q", RATIONALS),
              ("--format", pool(["json", "csv", "latex"], ["pdf"]))],
    "verify": [("--suite", pool([*SUITE_ORDER, "all"], ["bogus"])), ("--n-max", SMALL_INTS),
               ("--alpha-set", pool(["0", "0,2"], INT_LISTS)), ("--m-set", INT_LISTS),
               ("--q-set", Q_LISTS)],
    "limit": [("--family", pool(["qbernoulli", "qeuler"], ["qstirling"])),
              ("--alpha", SMALL_INTS), ("--n", SMALL_INTS), ("--x", RATIONALS),
              ("--q-seq", Q_LISTS)],
}
REQUIRED = {"--family", "--suite", "--n-max", "--n"}


@st.composite
def cli_argv(draw):
    """(argv, out, format): a command, its required options and a size (so no
    default reaches n = 8), its other options present or not, each with a
    value from its pool, as ``--flag value`` or ``--flag=value``, in any
    order, at times with an unknown option or a missing value; ``out`` is
    the --out name or None."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    words, fmt = [], "json"
    for flag, values in OPTIONS[command]:
        if flag in REQUIRED or draw(st.booleans()):
            value = draw(st.sampled_from(values))
            fmt = value if flag == "--format" else fmt
            words.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    out = draw(st.sampled_from([None, "out.json", "missing/out.json"]))
    if out:
        words.append(["--out", out])
    if draw(st.booleans()):
        words.append(["--no-meta"])
    if not draw(st.integers(0, 5)):
        words.append(draw(st.sampled_from([["--bogus"], ["--q"], ["-7/3"]])))
    words = draw(st.permutations(words))
    return [command, *(w for word in words for w in word)], out, fmt


class TestCliContract:
    # 400 examples take about 3 s; the count is not to be lowered to save time
    @settings(max_examples=400, deadline=None)
    @given(case=cli_argv())
    @example(case=(["limit", "--family", "qeuler", "--n", "4", "--x", "1e400"], None, "json"))
    @example(case=(["verify", "--suite", "all", "--n-max", "2", "--q-set", "1/2,1/2"], None,
                   "json"))
    @example(case=(["table", "--family", "qbernoulli", "--n-max", "3", "--q", "-7/3",
                    "--out", "out.json"], "out.json", "json"))
    def test_every_argv_gives_a_documented_exit(self, case):
        """Exit 0-3 and no traceback; a failure leaves no regular --out file, and
        a success writes JSON that parses, unless --format asked for CSV or LaTeX."""
        argv, out, fmt = case
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # --out names a file in a fresh directory
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv)
                written = Path(out).read_text() if out and Path(out).is_file() else None
            finally:
                os.chdir(cwd)
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3), (code, err)
        assert "Traceback" not in err
        if code:
            assert written is None
        elif fmt == "json":
            json.loads(written if out else stdout.getvalue())
