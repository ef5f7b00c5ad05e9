#!/usr/bin/env python3
"""qbern benchmark runner.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a qbern checkout: the program is imported from
``src/`` there, never from an installed copy.  One caller, no threads:
the runner executes one operation at a time and waits for it.

A run first times ``SETUPS`` set-ups, each in a fresh interpreter (the
import of qbern plus input generation from the seed, see
``setup_child.py``).  It then runs passes of the workload, each after a
fresh import of qbern so that no module-level state carries over, until
``--seconds`` of timed work have elapsed.  Every operation's output is
checked.  Every reported time is scaled by a reference kernel timed
around it (``speed.py``), so that a slow phase of a shared machine does
not read as a slower qbern; the unscaled times are printed too.  With
``--trace 1`` the run instead makes one untraced and one traced pass over
the same inputs and reports the per-layer metrics of the traced pass.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and the metrics listed in ``BENCHMARK.json``
(end-to-end ones without tracing, per-layer ones with).  The lines before
it print every metric, with its unit, for a reader.  The exit code is
nonzero when any check failed.  ``--workload all`` runs every workload,
each in a fresh process, one after the other.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import typing
import warnings
from pathlib import Path
from types import SimpleNamespace

import speed
from layers import LAYERS, LayerTrace
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 25  # fresh-interpreter set-ups per run; setup_s is their median
KERNELS_PER_SETUP = 3  # kernel runs between two set-ups, for their scale


def fresh_import() -> SimpleNamespace:
    """Import qbern from scratch: module-level state of an earlier import
    (for example a cache) does not carry over into the next pass."""
    for name in [n for n in sys.modules if n == "qbern" or n.startswith("qbern.")]:
        del sys.modules[name]
    # Free the previous import, module-level caches included, now: its
    # modules hold reference cycles, and a collection that happened to run
    # during the next pass would bill that pass for their teardown.
    # typing's caches hold aliases such as Union[Poly2, Fraction, int],
    # which would keep the previous Poly2, and with it every module, alive.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    qbern = importlib.import_module("qbern")
    if not Path(qbern.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qbern imported from {qbern.__file__}, not from {SRC}")
    modules = {layer: importlib.import_module(f"qbern.{layer}") for layer in LAYERS}
    return SimpleNamespace(qbern=qbern, cli=modules["cli"], modules=modules)


def git_commit() -> str:
    """The checkout's commit, or "unknown" outside a git repository (git
    does not look above the checkout for one)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def percentile_tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten values beyond it."""
    n = len(values)
    if n < 11:
        return None
    pct = max(p for p in range(1, 100) if n - (p * n + 99) // 100 >= 10)
    return pct, statistics.quantiles(values, n=100)[pct - 1]


class Runner:
    def __init__(self, workload, clock=time.perf_counter, sampler=speed.Sampler):
        self.workload = workload
        self.clock = clock
        self.sampler = sampler
        self.kernel_s: list[float] = []  # every reference kernel time of the run
        self.walls: list[float] = []  # scaled seconds of each timed pass
        self.raw_walls: list[float] = []
        self.op_s: list[float] = []  # scaled seconds of each timed operation
        self.units = 0
        self.attempted = 0
        self.failed = 0

    def prepare(self, inputs=None):
        """A fresh import of qbern and, unless given, the next inputs.

        Callers hold no reference to the previous import here, so that
        :func:`fresh_import` can free it.
        """
        return fresh_import(), self.workload.inputs() if inputs is None else inputs

    def run_pass(self, prog, inputs, sampler, trace: LayerTrace | None = None):
        """Run and check every operation of one pass; return each one's
        seconds, unscaled and scaled, as ``sampler`` measures them."""
        raw, scaled = [], []
        for op in self.workload.ops(prog, inputs):
            if trace:
                trace.install()
            t0, s0 = sampler.clock(), sampler.scaled_clock()
            try:
                result, error = op.run(), None
            except Exception:  # a failing operation is counted, not fatal
                result, error = None, traceback.format_exc(limit=3)
            raw.append(sampler.clock() - t0)
            scaled.append(sampler.scaled_clock() - s0)
            if trace:
                trace.uninstall()
            problems, units = ([error], 0) if error else op.check(result)
            self.attempted += 1
            self.units += units
            if problems:
                self.failed += 1
                print(f"FAIL {self.workload.name} {op.label}: {'; '.join(problems)}",
                      file=sys.stderr)
        return raw, scaled

    def sampled_pass(self, inputs=None, traced: bool = False):
        """One pass on a fresh import while the kernel is sampled; return
        its operations' unscaled and scaled seconds and, if ``traced``,
        the LayerTrace that recorded the pass (on the unscaled clock)."""
        with self.sampler(self.clock) as sampler:
            prog, inputs = self.prepare(inputs)
            trace = LayerTrace(prog.modules, prog.qbern, sampler.clock) if traced else None
            raw, scaled = self.run_pass(prog, inputs, sampler, trace)
        self.kernel_s += sampler.kernel_s
        return raw, scaled, trace

    def timed_passes(self, seconds: float) -> None:
        """Passes on fresh imports until ``seconds`` have elapsed."""
        started = self.clock()
        while True:
            raw, scaled, _ = self.sampled_pass()
            self.raw_walls.append(sum(raw))
            self.walls.append(sum(scaled))
            self.op_s += scaled
            if self.clock() - started >= seconds:
                return

    def child_setups(self, seed: int, outdir: Path, count: int) -> tuple[list[float], list[float]]:
        """Time ``count`` set-ups, each in a fresh interpreter, one after
        the other with kernel runs in between; return their unscaled
        seconds and each one scaled by the kernel runs just around it."""
        argv = [sys.executable, "-W", "ignore::UserWarning", str(HERE / "setup_child.py"),
                self.workload.name, str(seed), str(outdir)]
        kernels = [[speed.timed_kernel() for _ in range(KERNELS_PER_SETUP)]]
        times = []
        for _ in range(count):
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
            times.append(float(proc.stdout.split()[-1]))
            kernels.append([speed.timed_kernel() for _ in range(KERNELS_PER_SETUP)])
        self.kernel_s += [k for ks in kernels for k in ks]
        return times, [t * speed.factor(kernels[i] + kernels[i + 1]) for i, t in enumerate(times)]

    def final_check(self, prog) -> None:
        """The checks that parse the outputs; they count as one operation."""
        problems = self.workload.final_check(prog)
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {self.workload.name}: {p}", file=sys.stderr)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(args, outdir: Path) -> tuple[Runner, dict[str, float], dict[str, float], list[dict]]:
    """One run: the runner, the metrics, the unscaled times and the spans."""
    workload = WORKLOADS[args.workload](args.seed, outdir)
    runner = Runner(workload)
    if not args.trace:
        setups, scaled_setups = runner.child_setups(args.seed, outdir, SETUPS)
        runner.timed_passes(args.seconds)
        peak = peak_rss_mib()
        runner.final_check(fresh_import())
        metrics = {
            "setup_s": statistics.median(scaled_setups),
            "wall_s": statistics.median(runner.walls),
            "items_per_s": runner.units / sum(runner.walls),
            "case_ms.p50": 1000 * statistics.median(runner.op_s),
            "peak_rss_mib": peak,
        }
        raw = {"raw.setup_s": statistics.median(setups),
               "raw.wall_s": statistics.median(runner.raw_walls)}
        return runner, metrics, raw, []

    inputs = workload.inputs()
    untraced, untraced_scaled, _ = runner.sampled_pass(inputs)
    traced, traced_scaled, trace = runner.sampled_pass(inputs, traced=True)
    output_bytes = sum(p.stat().st_size for p in outdir.iterdir())
    runner.final_check(fresh_import())
    metrics = trace.metrics(output_bytes, sum(traced_scaled) / sum(traced))
    metrics["trace.wall_s"] = sum(traced_scaled)
    metrics["trace.overhead_s"] = sum(traced_scaled) - sum(untraced_scaled)
    raw = {"raw.trace.wall_s": sum(traced), "raw.untraced.wall_s": sum(untraced)}
    return runner, metrics, raw, trace.span_records()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None,
                        help="append this run's record (with context) to a JSONL file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.save:
            rest += ["--save", str(args.save)]
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode
                 for w in WORKLOADS]
        return max(codes)

    if not (SRC / "qbern" / "__init__.py").is_file():
        print(f"error: no qbern sources under {SRC}; run from a qbern checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # QParam warns for q outside (0, 1); cli.main silences it the same way
    warnings.simplefilter("ignore", UserWarning)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner, metrics, raw, spans = run(args, Path(tmp))

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "setups": 0 if args.trace else SETUPS,
        "passes": 2 if args.trace else len(runner.walls),
        "kernel_ms": 1000 * statistics.median(runner.kernel_s),
        "operations": runner.attempted,
        "units": runner.units,
    }
    print("context " + json.dumps(context))
    w = runner.workload
    units = {"case_ms.p50": "ms"}
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    human = dict(metrics)
    if not args.trace:
        human[f"{w.unit}_per_s"] = metrics["items_per_s"]
        units[f"{w.unit}_per_s"] = "1/s"
        tail = percentile_tail([1000 * s for s in runner.op_s])
        if tail:
            human[f"case_ms.p{tail[0]}"] = tail[1]
            units[f"case_ms.p{tail[0]}"] = "ms"
    human["fail_ratio"] = runner.failed / runner.attempted
    units["fail_ratio"] = f"of {runner.attempted}"
    human.update(raw)
    units.update((name, "s unscaled") for name in raw)
    for name, value in human.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{w.name:12s} {name:36s} {shown} {units[name]}")
    print(f"{w.name:12s} {'operations':36s} {runner.attempted} ({runner.units} {w.unit})")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    if args.save:
        record = {"context": context, **result, "all_metrics": human}
        with open(args.save, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    if args.trace:
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
