#!/usr/bin/env python3
"""Run the benchmark of two checkouts in alternating pairs.

    python3 perfbench/ab.py PARENT_DIR CHANGE_DIR --workload verify-grid \\
        --seeds 1-10 --seconds 20 --out ab/
    python3 perfbench/compare.py ab/parent.jsonl ab/change.jsonl

Each seed makes one pair: ``run.py`` of both checkouts on that seed, one
right after the other, with the side that goes first alternating from
pair to pair.  A slow phase of a shared machine lasts a minute or more,
so it hits both runs of a pair alike, and ``compare.py`` judges each
metric on the ratios within pairs.  The records, tagged with their pair
number, are appended to ``OUT/parent.jsonl`` and ``OUT/change.jsonl``.
Both checkouts should hold the same benchmark code.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def seeds(text: str) -> list[int]:
    """"1-10" or "1,4,7" -> the seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(checkout: Path, workload: str, seed: int, seconds: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        save = Path(tmp) / "run.jsonl"
        subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0", "--save", str(save)],
            cwd=checkout, stdout=subprocess.DEVNULL, timeout=600)
        if not save.exists():
            raise RuntimeError(f"{checkout}: run with seed {seed} saved no record")
        return json.loads(save.read_text().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for pair, seed in enumerate(args.seeds):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            record = run_one(sides[side], args.workload, seed, args.seconds)
            record["context"]["pair"] = pair
            with open(args.out / f"{side}.jsonl", "a") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"pair {pair} seed {seed} {side}: correct={record['correct']} "
                  f"wall_s={record['all_metrics']['wall_s']:.4g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
