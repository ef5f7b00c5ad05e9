import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import qbern
import qbern.cli
from qbern.cli import KINDS, main, poly_latex, poly_terms
from qbern.identities import default_grid
from qbern.poly import Poly2, X, Y
from qbern.qcore import QParam
from qbern.qspecial import q_bernoulli_table


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

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "f.json"
        code, _, err = run(
            capsys, "table", "--family", "stirling2", "--n-max", "2", "--out", str(out)
        )
        assert code == 2
        assert err.startswith("error: ")

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

    def test_run_checking_nothing_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "lemma3", "--alpha-set", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

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
        assert set(store) == {"entries", "hits", "misses"}
        assert 0 < store["misses"] <= store["entries"]
        assert store["hits"] > 0

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


class TestSerialization:
    def test_poly_terms_round_trip(self):
        p = X**2 - F(2, 3) * X * Y + Poly2.const(F(5, 7))
        terms = poly_terms(p)
        assert Poly2({(t["dx"], t["dy"]): F(t["coeff"]) for t in terms}) == p

    def test_poly_latex(self):
        p = X**2 - F(1, 2) * Y + Poly2.one()
        assert poly_latex(poly_terms(p)) == "1 - \\frac{1}{2}y + x^{2}"

    def test_poly_latex_zero(self):
        assert poly_latex(poly_terms(Poly2.zero())) == "0"


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
