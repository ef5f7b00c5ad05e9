"""Self-tests of the benchmark's tracer and workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import types
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


class FakeSampler:
    """Stands in for speed.Sampler: no signals, a fixed kernel time."""

    def __init__(self, base):
        self.clock = self.scaled_clock = base
        self.kernel_s = [1.0]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class FakeClock:
    """Advances one tick per reading, so every duration is a known count."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_of_nested_call_tree():
    t = Tracer(clock=FakeClock())

    def leaf():
        pass

    def mid():
        leaf_w()
        leaf_w()

    def top():
        mid_w()
        leaf_w()

    leaf_w = t.wrap(leaf, "c", "leaf")
    mid_w = t.wrap(mid, "b", "mid", span=lambda: "mid")
    top_w = t.wrap(top, "a", "top", span=lambda: "top")
    top_w()
    # A wrapped call reads the clock on entry and on exit, and each reading
    # advances it one tick.  So a leaf lasts 1 tick; mid lasts 5, of which
    # its two leaves cover 2; top lasts 9, of which mid and a leaf cover 6.
    assert t.calls == {"a.top": 1, "b.mid": 1, "c.leaf": 3}
    assert t.self_s == {"c": 3.0, "b": 3.0, "a": 3.0}
    assert [s[0] for s in t.spans] == ["top", "mid"]
    assert [s[3] for s in t.spans] == [None, 0]
    assert t.span_self_s() == [9.0 - 5.0, 5.0]


def test_group_time_counts_outermost_calls_only():
    t = Tracer(clock=FakeClock())
    inner = t.wrap(lambda: None, "x", "inner", group="g")
    outer = t.wrap(lambda: inner(), "x", "outer", group="g")
    outer()
    inner()
    assert t.group_s["g"] == 3.0 + 1.0


def test_exception_still_closes_the_frame():
    t = Tracer(clock=FakeClock())

    def boom():
        raise ValueError

    boom_w = t.wrap(boom, "x", "boom", span=lambda: "boom")
    with pytest.raises(ValueError):
        boom_w()
    assert t.calls["x.boom"] == 1 and t._children == [] and t._open_spans == []
    assert t.self_s["x"] == 1.0


def _fake_package():
    """pkg.a defines f and a class; pkg.b imports f by name and registers
    it in a dict, the way qbern.identities does with SUITES."""
    a = types.ModuleType("pkg.a")
    exec(
        "def f(x):\n    return x + 1\n"
        "def g():\n    return f(1)\n"
        "class K:\n"
        "    def __add__(self, o):\n        return 0\n"
        "    __radd__ = __add__\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls()\n",
        a.__dict__,
    )
    b = types.ModuleType("pkg.b")
    b.f = a.f
    b.REGISTRY = {"f": a.f}
    return a, b


def test_install_replaces_every_reference_and_uninstall_restores_them():
    a, b = _fake_package()
    originals = (a.f, a.K.__dict__["__add__"], a.K.__dict__["make"].__func__)
    t = Tracer()
    wrappers = {
        id(a.f): t.wrap(a.f, "a", "f"),
        id(originals[1]): t.wrap(originals[1], "a", "add"),
        id(originals[2]): t.wrap(originals[2], "a", "make"),
    }
    # a.f, b.f, b.REGISTRY["f"], K.__add__, K.__radd__, K.make
    assert t.install([a, b], wrappers) == 6
    a.g()
    b.f(1)
    b.REGISTRY["f"](1)
    k = a.K.make()
    k + k
    1 + k
    assert t.calls == {"a.f": 3, "a.add": 2, "a.make": 1}

    t.uninstall()
    assert a.f is b.f is b.REGISTRY["f"] is originals[0]
    assert a.K.__dict__["__add__"] is a.K.__dict__["__radd__"] is originals[1]
    assert a.K.__dict__["make"].__func__ is originals[2]
    a.g()
    assert t.calls["a.f"] == 3


@pytest.fixture()
def qbern():
    sys.path.insert(0, str(SRC))
    try:
        import run

        yield run.fresh_import()
    finally:
        sys.path.remove(str(SRC))


def _namespaces(qbern):
    """Every module, class and module-level dict entry of qbern, by identity."""
    out = {}
    for mod in (qbern.qbern, *qbern.modules.values()):
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
            elif isinstance(value, dict) and attr != "__builtins__":
                for key, item in value.items():
                    out[(mod.__name__, attr, key)] = item
    return out


def test_layer_wrappers_reach_directly_imported_names(qbern):
    from layers import LayerTrace

    before = _namespaces(qbern)
    trace = LayerTrace(qbern.modules, qbern.qbern)
    trace.install()
    for mod in (qbern.qbern, *qbern.modules.values()):
        if "q_binomial" in vars(mod):
            assert mod.q_binomial is not before[(mod.__name__, "q_binomial")], mod.__name__
    identities = qbern.modules["identities"]
    for name, fn in identities.SUITES.items():
        assert fn is not before[("qbern.identities", "SUITES", name)], name
    q = qbern.qbern.QParam(Fraction(1, 2))
    qbern.qbern.q_pair_power(q, 1, 1, 2)
    qbern.modules["poly"].X * qbern.modules["poly"].Y
    trace.uninstall()
    assert trace.tracer.calls["qcore.q_pair_power"] == 1
    assert trace.tracer.calls["qcore.q_binomial"] == 3
    assert trace.tracer.calls["poly.mul"] == 1
    after = _namespaces(qbern)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_random_q_case_counts_q_minus_one_as_a_failure(qbern, tmp_path, capsys):
    import run
    import workloads

    runner = run.Runner(workloads.RandomQ(1, tmp_path))
    runner.run_pass(qbern, [Fraction(3, 7), Fraction(-1)], FakeSampler(FakeClock()))
    assert (runner.attempted, runner.failed, runner.units) == (2, 1, 1)
    assert "ZeroDivisionError" in capsys.readouterr().err


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_lists_exactly_the_benchmark_metrics(trace, monkeypatch, capsys):
    import run
    import workloads

    monkeypatch.setitem(workloads.SPEC["workloads"]["random-q"], "cases_per_pass", 2)
    monkeypatch.setattr(run, "SETUPS", 1)
    code = run.main(["--workload", "random-q", "--seed", "1", "--seconds", "0", "--trace", trace])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    bench = json.loads((SRC.parent / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if trace == "1" else "end_to_end"]
    assert code == 0
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0)
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(v["unit"] == m["unit"] for v, m in zip(result["metrics"].values(), wanted))


def test_random_q_stream_is_seeded_and_distinct(tmp_path):
    import workloads

    draws = [workloads.RandomQ(7, tmp_path).inputs() for _ in range(2)]
    assert draws[0] == draws[1]
    stream = workloads.RandomQ(7, tmp_path)
    values = stream.inputs() + stream.inputs()
    assert len(set(values)) == len(values)
    assert all(v not in (0, 1) and abs(v.numerator) <= 999 and v.denominator <= 999
               for v in values)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_pass_leaves_nothing_of_its_import_alive_into_the_next(qbern, monkeypatch, tmp_path):
    import run
    import workloads

    monkeypatch.setitem(workloads.SPEC["workloads"]["random-q"], "cases_per_pass", 1)
    real_import = run.fresh_import
    earlier: list[weakref.ref] = []
    alive_at_pass_start: list[int] = []

    def tracked_import():
        prog = real_import()
        # every earlier import has been freed by now
        alive_at_pass_start.append(sum(ref() is not None for ref in earlier))
        earlier.append(weakref.ref(prog.modules["qcore"]))
        earlier.append(weakref.ref(prog.modules["qcore"].q_number))
        return prog

    monkeypatch.setattr(run, "fresh_import", tracked_import)
    runner = run.Runner(workloads.RandomQ(1, tmp_path), clock=FakeClock(), sampler=FakeSampler)
    runner.timed_passes(seconds=25)  # FakeClock: one tick per reading
    assert len(runner.walls) >= 3
    assert alive_at_pass_start == [0] * len(runner.walls)


def test_child_set_ups_time_a_fresh_interpreter_each(qbern, tmp_path):
    import run
    import workloads

    runner = run.Runner(workloads.RandomQ(1, tmp_path))
    times, scaled = runner.child_setups(1, tmp_path, 2)
    assert len(times) == len(scaled) == 2 and all(0 < t < 60 for t in times + scaled)
    assert len(runner.kernel_s) == 3 * run.KERNELS_PER_SETUP


def test_speed_factor_scales_to_the_nominal_kernel_time():
    import speed

    assert speed.factor([2 * speed.NOMINAL_KERNEL_S] * 3) == 0.5
    assert speed.timed_kernel(FakeClock()) == 1.0


def test_sampler_runs_the_kernel_during_the_block_and_its_clock_skips_it():
    import signal

    import speed

    handler = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval=0.02) as sampler:
        base0, clock0 = sampler.base(), sampler.clock()
        while sampler.base() - base0 < 0.3:
            pass
        paused = sampler.paused_s
        clock1, base1 = sampler.clock(), sampler.base()
    assert len(sampler.kernel_s) >= 4  # one run at the start, then ticks
    assert paused >= sum(sampler.kernel_s[:-1])  # a tick may follow the read
    assert (base1 - base0) - (clock1 - clock0) == pytest.approx(paused, abs=0.01)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scaled_clock_runs_at_the_speed_the_kernel_measured(monkeypatch):
    import speed

    now = [0.0]
    kernel_s = [speed.NOMINAL_KERNEL_S]
    monkeypatch.setattr(speed, "timed_kernel", lambda clock: kernel_s[0])
    sampler = speed.Sampler(base=lambda: now[0])
    sampler._tick()  # as the with block starts: nominal speed
    now[0] = 2.0
    assert sampler.scaled_clock() == pytest.approx(2.0)
    kernel_s[0] = 2 * speed.NOMINAL_KERNEL_S  # the machine halves its speed
    for _ in range(speed.WINDOW):
        sampler._tick()
    assert sampler.scaled_clock() == pytest.approx(2.0)
    now[0] = 4.0
    assert sampler.scaled_clock() == pytest.approx(2.0 + 2.0 / 2)
    assert sampler.clock() == 4.0


def _record(workload, wall, pair=None):
    context = {"workload": workload, "python": "3", "nproc": 2, "platform": "p", "machine": "m"}
    if pair is not None:
        context["pair"] = pair
    return {"context": context, "correct": True, "all_metrics": {"wall_s": wall}}


def test_compare_judges_paired_runs_on_their_ratios():
    import compare

    # The machine drifts 80% across the set, a quartile spread of 36%.
    parent = [10.0, 12.0, 14.0, 16.0, 18.0] * 2
    same = [p * 1.01 for p in parent]
    slower = [p * 1.3 for p in parent]
    faster = [p * 0.6 for p in parent]
    assert compare.verdict(parent, same, "lower", 0.25) == "unresolved"
    assert compare.verdict(parent, same, "lower", 0.25, paired=True) == "same"
    assert compare.verdict(parent, slower, "lower", 0.25, paired=True) == "REGRESSION"
    assert compare.verdict(parent, faster, "lower", 0.25, paired=True) == "better"
    # a gain must also exceed the parent's own spread
    assert compare.verdict(parent, slower, "higher", 0.25, paired=True) == "same"
    noisy = [p * f for p, f in zip(parent, [1, 1.5, 0.7, 1.4, 0.8, 1, 1.5, 0.7, 1.4, 0.8])]
    assert compare.verdict(parent, noisy, "lower", 0.25, paired=True) == "unresolved"


def test_compare_pairs_records_by_pair_number(tmp_path, monkeypatch, capsys):
    import compare

    parent = [_record("w", 10.0 + i, pair=i) for i in range(4)]
    change = [_record("w", 13.5 + i, pair=i) for i in reversed(range(4))]
    for name, records in (("p.jsonl", parent), ("c.jsonl", change)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    code = compare.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl")])
    out = capsys.readouterr().out
    assert out.startswith("paired runs")
    assert code == 1 and "REGRESSION" in out
