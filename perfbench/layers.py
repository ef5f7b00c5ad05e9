"""Per-layer tracing of qbern: which functions are wrapped, and the
per-layer metrics computed from the counts and times.

The layers are the six modules of ``src/qbern``.  Every public function
and method a module defines is wrapped, plus the arithmetic dunders of
``Poly2`` and ``Series``; in ``cli`` the private helpers are wrapped too,
because they are where parsing and serialization happen.  Suites, table
builds and the CLI command are coarse boundaries that keep spans.
"""

from __future__ import annotations

import time
from types import FunctionType, ModuleType

from tracer import Tracer

LAYERS = ("qcore", "poly", "series", "qspecial", "identities", "cli")
ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__neg__", "__pow__"}
PARSE = {"build_parser", "_parse_fraction", "_parse_q", "_parse_int_list", "_parse_q_list"}
SERIALIZE = {"_emit", "_report_obj", "poly_terms", "poly_latex", "_table_csv", "_table_latex"}
SUITES = ("lemma1", "lemma2", "lemma3", "lemma4", "lemma5", "sp1", "sp2", "corollaries",
          "stirling-theorem", "bernstein", "alpha-zero", "exp-inverse")


def targets(mod: ModuleType, layer: str):
    """(name, function) for each function of ``mod`` that gets a wrapper."""
    seen = set()
    for attr, value in vars(mod).items():
        if getattr(value, "__module__", None) != mod.__name__:
            continue
        if isinstance(value, FunctionType):
            if not attr.startswith("_") or layer == "cli":
                seen.add(id(value))
                yield attr, value
        elif isinstance(value, type):
            for cattr, cvalue in vars(value).items():
                fn = getattr(cvalue, "__func__", cvalue)
                if not isinstance(fn, FunctionType) or id(fn) in seen:
                    continue
                if not cattr.startswith("_") or cattr in ARITHMETIC:
                    seen.add(id(fn))
                    yield cattr.strip("_"), fn


class LayerTrace:
    """Installs wrappers on a freshly imported qbern and reads the metrics."""

    def __init__(self, modules: dict[str, ModuleType], package: ModuleType, clock=time.perf_counter):
        self.tracer = Tracer(clock)
        self.modules = modules
        self.package = package
        self.term_pairs = 0
        self.coeff_bits = 0
        self.tables: set = set()
        self.cache_gets = 0
        self.cache_hits = 0
        self.reports = 0

    def install(self) -> None:
        suite_names = {id(fn): name for name, fn in self.modules["identities"].SUITES.items()}
        exp_inverse = getattr(self.modules["identities"], "check_exp_inverse", None)
        if exp_inverse is not None:
            suite_names.setdefault(id(exp_inverse), "exp-inverse")
        wrappers = {}
        for layer in LAYERS:
            for name, fn in targets(self.modules[layer], layer):
                wrappers[id(fn)] = self._wrap(layer, name, fn, suite_names.get(id(fn)))
        self.tracer.install([self.package, *self.modules.values()], wrappers)

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def _wrap(self, layer: str, name: str, fn, suite: str | None):
        t = self.tracer
        if suite is not None:
            return t.wrap(fn, layer, name, span=lambda *a, **k: f"suite {suite}",
                          group=f"suite {suite}", after=self._count_reports)
        if (layer, name) == ("poly", "mul"):
            return t.wrap(fn, layer, name, after=self._count_mul)
        if (layer, name) == ("qspecial", "family_table"):
            return t.wrap(fn, layer, name, span=lambda *a, **k: "family_table",
                          after=self._count_table)
        if (layer, name) == ("identities", "get"):
            return t.wrap(fn, layer, "table_cache.get", before=self._table_calls,
                          after=self._count_cache)
        if (layer, name) == ("cli", "main"):
            return t.wrap(fn, layer, name, span=_command_name)
        if (layer, name) == ("cli", "build_parser"):
            return t.wrap(fn, layer, name, group="parse", after=self._wrap_parse_args)
        if layer == "cli" and name in PARSE:
            return t.wrap(fn, layer, name, group="parse")
        if layer == "cli" and name in SERIALIZE:
            return t.wrap(fn, layer, name, group="serialize")
        return t.wrap(fn, layer, name)

    # -- hooks (run after the wrapped call returns) -----------------------

    def _count_reports(self, result, token, *args, **kwargs):
        self.reports += len(result)

    def _count_mul(self, result, token, a, b):
        self.term_pairs += len(a._terms) * (len(b._terms) if hasattr(b, "_terms") else 1)
        for c in result._terms.values():
            bits = c.numerator.bit_length() + c.denominator.bit_length()
            if bits > self.coeff_bits:
                self.coeff_bits = bits

    def _count_table(self, result, token, *args, **kwargs):
        self.tables.add((args, tuple(sorted(kwargs.items()))))

    def _table_calls(self, *args, **kwargs):
        return self.tracer.calls["qspecial.family_table"]

    def _count_cache(self, result, token, *args, **kwargs):
        self.cache_gets += 1
        if self.tracer.calls["qspecial.family_table"] == token:
            self.cache_hits += 1

    def _wrap_parse_args(self, parser, token, *args, **kwargs):
        parser.parse_args = self.tracer.wrap(parser.parse_args, "cli", "parse_args", group="parse")

    # -- metrics ----------------------------------------------------------

    def metrics(self, output_bytes: int, scale: float) -> dict[str, float]:
        """The per-layer metrics; every time is multiplied by ``scale``."""
        t = self.tracer
        calls = t.calls
        out: dict[str, float] = {}
        for name in ("q_number", "q_factorial", "q_binomial", "gauss_exponent", "q_pair_power"):
            out[f"qcore.{name}.calls"] = calls[f"qcore.{name}"]
        tables = calls["qspecial.family_table"]
        out["qspecial.family_table.calls"] = tables
        out["qspecial.family_table.distinct"] = len(self.tables)
        out["qspecial.family_table.useful_ratio"] = len(self.tables) / tables if tables else 0.0
        for name in ("classical_stirling2", "q_stirling2", "q_bernstein"):
            out[f"qspecial.{name}.calls"] = calls[f"qspecial.{name}"]
        out["identities.table_cache.gets"] = self.cache_gets
        out["identities.table_cache.hit_ratio"] = (
            self.cache_hits / self.cache_gets if self.cache_gets else 0.0)
        out["identities.reports"] = self.reports
        for suite in SUITES:
            out[f"identities.{suite}.s"] = scale * t.group_s.get(f"suite {suite}", 0.0)
        for name in ("mul", "add", "substitute", "compose"):
            out[f"poly.{name}.calls"] = calls[f"poly.{name}"]
        out["poly.mul.term_pairs"] = self.term_pairs
        out["poly.coeff_bits.max"] = self.coeff_bits
        for name in ("mul", "reciprocal", "int_power"):
            out[f"series.{name}.calls"] = calls[f"series.{name}"]
        out["cli.parse_s"] = scale * t.group_s.get("parse", 0.0)
        out["cli.serialize_s"] = scale * t.group_s.get("serialize", 0.0)
        out["cli.output_bytes"] = output_bytes
        for layer in LAYERS:
            out[f"{layer}.self_s"] = scale * t.self_s.get(layer, 0.0)
        return out

    def span_records(self) -> list[dict]:
        self_s = self.tracer.span_self_s()
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "self_s": s}
            for (name, start, end, parent), s in zip(self.tracer.spans, self_s)
        ]


def _command_name(argv=None, *args, **kwargs) -> str:
    return f"cli {argv[0] if argv else '?'}"

