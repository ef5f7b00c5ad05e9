"""The benchmark's workloads.

Each workload turns the seed into inputs, then runs passes.  A pass is a
list of operations: one ``qbern.cli.main(argv)`` call, or one random-q
case made of public library calls.  The runner times each operation and
afterwards runs its light check (exit code, output digest); heavy checks
that parse the outputs run once, in :meth:`final_check`, after the
runner has read the peak memory.

Why each workload was chosen is in ``BENCHMARK.json``; ``spec.json``
beside this file holds the workloads' sizes, the output digests recorded
on the seed commit, and which layer metric should move which end-to-end
metric on which workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # result -> (problems, output units); an empty list means correct
    check: Callable[[object], tuple[list[str], int]]


def scan(path: Path, needle: bytes) -> tuple[str, int]:
    """sha256 of a file and the number of times ``needle`` occurs in it,
    read in chunks so the check adds little to the process's memory."""
    digest = hashlib.sha256()
    count = 0
    tail = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            window = tail + chunk
            count += window.count(needle)
            tail = window[-(len(needle) - 1):]
    return digest.hexdigest(), count


def _cli_check(path: Path, expected_sha: str, needle: bytes):
    def check(rc) -> tuple[list[str], int]:
        if rc != 0:
            return [f"exit code {rc}"], 0
        sha, units = scan(path, needle)
        if sha != expected_sha:
            return [f"{path.name}: sha256 {sha[:16]} != {expected_sha[:16]}"], 0
        return [], units

    return check


class VerifyGrid:
    """``verify --suite all --no-meta`` on the default grid."""

    name = "verify-grid"
    unit = "reports"

    def __init__(self, seed: int, outdir: Path):
        self.spec = SPEC["workloads"][self.name]
        self.out = outdir / "verify.json"

    def inputs(self) -> list[list[str]]:
        return [["verify", "--suite", "all", "--no-meta", "--out", str(self.out)]]

    def ops(self, prog, inputs) -> list[Op]:
        check = _cli_check(self.out, self.spec["sha256"], b'"pass":')
        return [Op(" ".join(argv[:3]), lambda argv=argv: prog.cli.main(argv), check)
                for argv in inputs]

    def final_check(self, prog) -> list[str]:
        payload = json.loads(self.out.read_text())["payload"]
        want = self.spec["totals"]
        gated_fails = sum(
            1 for r in payload["reports"] if not r["pass"] and not r.get("verdict_only")
        )
        got = {
            "total": payload["total"],
            "reports": len(payload["reports"]),
            "failures": payload["failures"],
            "gated_failing_reports": gated_fails,
            "verdicts": payload.get("verdicts"),
        }
        problems = [f"verify totals {got} != {want}"] if got != want else []
        grid = payload["grid"]
        return problems + grid_problems(prog.qbern, grid["q_set"], grid["n_max"])


class TableDeep:
    """Deep ``table --no-meta`` outputs: big-integer series and poly work."""

    name = "table-deep"
    unit = "coeffs"

    def __init__(self, seed: int, outdir: Path):
        self.spec = SPEC["workloads"][self.name]
        self.outdir = outdir

    def _path(self, family: str, alpha: int) -> Path:
        return self.outdir / f"{family}-a{alpha}.json"

    def inputs(self) -> list[tuple[str, list[str]]]:
        s = self.spec
        return [
            (f"{family} a{alpha}",
             ["table", "--family", family, "--alpha", str(alpha), "--n-max", str(s["n_max"]),
              "--q", s["q"], "--no-meta", "--out", str(self._path(family, alpha))])
            for family, alpha in s["tables"]
        ]

    def ops(self, prog, inputs) -> list[Op]:
        return [
            Op(label, lambda argv=argv: prog.cli.main(argv),
               _cli_check(Path(argv[-1]), self.spec["sha256"][label], b'"coeff":'))
            for label, argv in inputs
        ]

    def final_check(self, prog) -> list[str]:
        """Order-1 constant terms of the output against the recurrence
        oracles, and the library checks at this q for n <= 8."""
        qb = prog.qbern
        q = qb.QParam(Fraction(self.spec["q"]))
        n_max = self.spec["n_max"]
        oracles = {
            "qbernoulli": qb.q_bernoulli_numbers_recurrence,
            "qeuler": qb.q_euler_numbers_recurrence,
        }
        problems = []
        for family, oracle in oracles.items():
            entries = json.loads(self._path(family, 1).read_text())["payload"]["entries"]
            got = [
                sum((Fraction(t["coeff"]) for t in e["poly"] if t["dx"] == t["dy"] == 0),
                    Fraction(0))
                for e in entries
            ]
            if got != oracle(q, n_max):
                problems.append(f"{family} a1 numbers differ from the recurrence oracle")
        return problems + grid_problems(qb, [self.spec["q"]], 8)


class RandomQ:
    """A seeded stream of distinct rational q, each used for one case."""

    name = "random-q"
    unit = "cases"

    def __init__(self, seed: int, outdir: Path):
        self.spec = SPEC["workloads"][self.name]
        self.rng = random.Random(seed)
        self.seen: set[Fraction] = set()

    def draw(self) -> Fraction:
        """A new q = a/b with |a|, b <= 999 in lowest terms, q not in {0, 1}.

        Drawing the pair in lowest terms gives every rational value the
        same chance; independent a and b would favour values with many
        representations, such as 1/2 = 2/4.  q = -1 stays in the stream:
        it fails its case (ROADMAP item 4), and that failure counts.
        """
        top = self.spec["max_abs"]
        while True:
            a = self.rng.randint(-top, top)
            b = self.rng.randint(1, top)
            if math.gcd(a, b) != 1 or a in (0, b):
                continue
            q = Fraction(a, b)
            if q not in self.seen:
                self.seen.add(q)
                return q

    def inputs(self) -> list[Fraction]:
        return [self.draw() for _ in range(self.spec["cases_per_pass"])]

    def ops(self, prog, inputs) -> list[Op]:
        return [
            Op(f"q={q}", lambda q=q: random_q_case(prog.qbern, q, self.spec),
               lambda problems: (problems, 1))
            for q in inputs
        ]

    def final_check(self, prog) -> list[str]:
        return []


def oracle_problems(qb, q, n: int) -> list[str]:
    """Order-1 numbers from the generating functions against the
    independent recurrence oracles."""
    problems = []
    for kind, oracle in (("q_bernoulli", qb.q_bernoulli_numbers_recurrence),
                         ("q_euler", qb.q_euler_numbers_recurrence)):
        if qb.q_number_sequence(qb.FamilySpec(kind, 1, q), n) != oracle(q, n):
            problems.append(f"q={q}: {kind} numbers differ from the recurrence oracle")
    return problems


def unity_problems(qb, q, n: int) -> list[str]:
    """The q-Bernstein partition of unity: sum_k [n k]_q b_{n,k} = 1."""
    unity = qb.Poly2.zero()
    for k in range(n + 1):
        unity = unity + qb.q_binomial(q, n, k) * qb.q_bernstein(q, n, k)
    return [] if unity == qb.Poly2.one() else [f"q={q}: q-Bernstein row {n} does not sum to 1"]


def grid_problems(qb, q_values, n_max: int) -> list[str]:
    """The oracle and partition-of-unity checks for n <= n_max at each q."""
    problems = []
    for value in q_values:
        q = qb.QParam(Fraction(value))
        problems += oracle_problems(qb, q, n_max)
        for n in range(n_max + 1):
            problems += unity_problems(qb, q, n)
    return problems


def random_q_case(qb, value: Fraction, spec: dict) -> list[str]:
    """One random-q case; returns the problems found (empty when correct)."""
    q = qb.QParam(value)
    n = spec["n"]
    problems = oracle_problems(qb, q, n)
    row = [qb.q_stirling2(q, n, k) for k in range(n + 1)]
    if row[1] != 1 or row[n] != 1:
        problems.append(f"q={q}: q-Stirling row: S(n,1) or S(n,n) is not 1")
    problems += unity_problems(qb, q, n)
    lemma = spec["lemma1"]
    grid = qb.Grid(lemma["n_max"], tuple(lemma["alpha_set"]), (1,), (q,))
    failed = sum(not r.passed for r in qb.run_suite("lemma1", grid))
    if failed:
        problems.append(f"q={q}: lemma1: {failed} identities fail")
    return problems


WORKLOADS = {w.name: w for w in (VerifyGrid, TableDeep, RandomQ)}
