"""Call table, span recorder and per-layer metrics.

Workloads call the library only through an ``api`` namespace built here.
Untraced, its attributes are the library functions themselves, so an
untraced run pays nothing for the indirection beyond one attribute lookup.
Traced, each attribute records a span (name ``module.function``, start, end,
parent item) around the call, plus boundary counts from which the per-layer
ratios are formed.  Spans are kept in flat arrays and written out only when
the run ends.
"""

from __future__ import annotations

import json
import statistics
import types
from array import array
from collections import Counter
from time import perf_counter_ns

from grzseq import correspond, frep, grzeval, ordinals, seq, slowdown
from grzseq.grzeval import Exact, ExceedsCap

# (span name, attribute in the api namespace, function)
CALLS = [
    ("grzeval.eval_F", "eval_F", grzeval.eval_F),
    ("grzeval.eval_F_iter", "eval_F_iter", grzeval.eval_F_iter),
    ("grzeval.exceeds", "exceeds", grzeval.exceeds),
    ("frep.encode", "encode", frep.encode),
    ("frep.decode", "decode", frep.decode),
    ("frep.compare", "rep_compare", frep.compare),
    ("frep.shift_value", "shift_value", frep.shift_value),
    ("frep.shift_total_value", "shift_total_value", frep.shift_total_value),
    ("frep.to_total", "to_total", frep.to_total),
    ("frep.decode_total", "decode_total", frep.decode_total),
    # Ordinal.__lt__ is ordinals.compare behind the operator a binary search uses
    ("ordinals.compare", "ordinal_lt", ordinals.Ordinal.__lt__),
    ("ordinals.parse_ordinal", "parse_ordinal", ordinals.parse_ordinal),
    ("ordinals.add", "add", ordinals.add),
    ("ordinals.mul_omega_omega", "mul_omega_omega", ordinals.mul_omega_omega),
    ("ordinals.coeff_measure", "coeff_measure", ordinals.coeff_measure),
    ("correspond.o_map", "o_map", correspond.o_map),
    ("correspond.in_D", "in_D", correspond.in_D),
    ("correspond.L_inverse", "L_inverse", correspond.L_inverse),
    ("correspond.Q_pred", "Q_pred", correspond.Q_pred),
    ("correspond.g", "g", correspond.g),
    ("seq.run", "run", seq.run),
    ("seq.shadow_check", "shadow_check", seq.shadow_check),
    ("seq.dominate_check", "dominate_check", seq.dominate_check),
    ("slowdown.parse_chain_text", "parse_chain_text", slowdown.parse_chain_text),
    ("slowdown.compress", "compress", slowdown.compress),
    ("slowdown.verify_slow", "verify_slow", slowdown.verify_slow),
    ("slowdown.chain_to_text", "chain_to_text", slowdown.chain_to_text),
]

CLI_GROUPS = ("repr", "shift", "seq", "ord", "gn", "chain")


def _count_bounded(counts: Counter, out) -> None:
    counts["grzeval.results"] += 1
    counts["grzeval.over_cap"] += out is True or isinstance(out, ExceedsCap)


def _count_shift(counts: Counter, out) -> None:
    counts["frep.shift.results"] += 1
    counts["frep.shift.exact"] += isinstance(out, Exact)


def _count_encode(counts: Counter, out) -> None:
    if not out.is_atom:
        counts["frep.encode.pair_forms"] += 1
        counts["frep.encode.pairs"] += len(out.pairs)


def _count_in_D(counts: Counter, out) -> None:
    counts["correspond.in_D.results"] += 1
    counts["correspond.in_D.members"] += out.member


# Boundary counts, by span name: fn(counts, result)
OBSERVE = {
    "grzeval.eval_F": _count_bounded,
    "grzeval.eval_F_iter": _count_bounded,
    "grzeval.exceeds": _count_bounded,
    "frep.encode": _count_encode,
    "frep.shift_value": _count_shift,
    "frep.shift_total_value": _count_shift,
    "correspond.in_D": _count_in_D,
    "seq.run": lambda counts, out: counts.update({"seq.steps": len(out.steps)}),
    "slowdown.parse_chain_text": lambda counts, out: counts.update({"slowdown.lines": len(out)}),
    "slowdown.compress": lambda counts, out: counts.update({"slowdown.entries": len(out.entries)}),
}


def plain_api(calls) -> types.SimpleNamespace:
    return types.SimpleNamespace(**{attr: fn for _, attr, fn in calls})


class Tracer:
    """Spans in flat arrays: name index, start and end in ns, parent item."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_ix = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = -1
        self.counts: Counter = Counter()

    def _ix(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn):
        ix = self._ix(name)
        observe = OBSERVE.get(name)
        counts = self.counts

        def traced(*args):
            t0 = perf_counter_ns()
            try:
                out = fn(*args)
            except Exception:
                counts[name + ".failed"] += 1
                raise
            t1 = perf_counter_ns()
            self.name_ix.append(ix)
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(self.item)
            if observe is not None:
                observe(counts, out)
            return out

        return traced

    def api(self, calls) -> types.SimpleNamespace:
        return types.SimpleNamespace(**{attr: self.wrap(name, fn) for name, attr, fn in calls})

    def durations_by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {name: [] for name in self.names}
        for ix, t0, t1 in zip(self.name_ix, self.start, self.end):
            out[self.names[ix]].append(t1 - t0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for ix, t0, t1, item in zip(self.name_ix, self.start, self.end, self.parent):
                handle.write(json.dumps({"name": self.names[ix], "start_ns": t0,
                                         "end_ns": t1, "item": item}) + "\n")


def timer_overhead_ns(reps: int = 200_000) -> float:
    """Mean cost of one perf_counter_ns() call, in ns."""
    t0 = perf_counter_ns()
    for _ in range(reps):
        perf_counter_ns()
    return (perf_counter_ns() - t0) / reps


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of the traced rounds.

    A layer the workload never calls reads 0 calls and 0 time."""
    spans = tracer.durations_by_name()
    counts = tracer.counts

    def p50_us(name: str) -> float:
        d = spans.get(name)
        return statistics.median(d) / 1e3 if d else 0.0

    def total_ns(name: str) -> int:
        return sum(spans.get(name, ()))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in ("grzeval", "frep", "ordinals", "correspond", "seq", "slowdown"):
        names = [n for n in spans if n.startswith(layer + ".")]
        m[f"{layer}.calls"] = sum(len(spans[n]) for n in names)
        m[f"{layer}.busy_s"] = sum(total_ns(n) for n in names) / 1e9
    for name, _, _ in CALLS:
        if not name.startswith("slowdown."):
            m[f"{name}.us_p50"] = p50_us(name)
    m["grzeval.exceeds_cap_ratio"] = ratio(counts["grzeval.over_cap"], counts["grzeval.results"])
    m["grzeval.failed"] = sum(counts[n + ".failed"] for n, _, _ in CALLS if n.startswith("grzeval."))
    m["frep.encode.pairs_mean"] = ratio(counts["frep.encode.pairs"], counts["frep.encode.pair_forms"])
    m["frep.shift.exact_ratio"] = ratio(counts["frep.shift.exact"], counts["frep.shift.results"])
    m["ordinals.compare.calls"] = len(spans.get("ordinals.compare", ()))
    m["correspond.in_D.member_ratio"] = ratio(counts["correspond.in_D.members"],
                                              counts["correspond.in_D.results"])
    m["seq.steps"] = counts["seq.steps"]
    entries = counts["slowdown.entries"]
    m["slowdown.entries"] = entries
    m["slowdown.compress.us_per_entry"] = ratio(total_ns("slowdown.compress") / 1e3, entries)
    m["slowdown.verify_slow.us_per_entry"] = ratio(total_ns("slowdown.verify_slow") / 1e3, entries)
    m["slowdown.parse_chain_text.us_per_line"] = ratio(total_ns("slowdown.parse_chain_text") / 1e3,
                                                       counts["slowdown.lines"])
    for group in CLI_GROUPS:
        d = spans.get(f"cli.{group}")
        m[f"cli.{group}.ms_p50"] = statistics.median(d) / 1e6 if d else 0.0
    m["cli.failed"] = counts["cli.failed"]
    return m
