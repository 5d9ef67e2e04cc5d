"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the result records ``run.py --out FILE`` appends, one JSON
line per run.  Make them as alternated pairs: parent then change on pair 1,
change then parent on pair 2, and so on, at least ten pairs per workload,
with the same ``--seconds`` on both sides and a seed not used while the
change was written (see README.md).  Only untraced records are compared.

For every workload and end-to-end metric the table gives each side's median
and quartiles and the pairs the change won (ties count for neither side).
The verdict follows these rules:

* ``gain`` - the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's inter-quartile spread;
* ``REGRESSION`` - the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` - the parent's spread exceeds the bound, and not every run
  of the change beats every run of the parent;
* ``same`` - none of the above.

It exits 1 when any row is a regression or the change fails a larger share
of items than the parent, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                rec = json.loads(line)
                if rec.get("trace") == 0:
                    by_workload.setdefault(rec["workload"], []).append(rec)
    for recs in by_workload.values():
        recs.sort(key=lambda r: r["started"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if sign * (pm - cm) > bound * pm:
        return "REGRESSION", wins
    if wins >= 0.9 * pairs and sign * (cm - pm) > p3 - p1:
        return "gain", wins
    if (p3 - p1) > bound * pm:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "better (every run)", wins
        return "unresolved", wins
    return "same", wins


def describe(recs: list[dict]) -> str:
    keys = ("python", "cores", "sha", "seconds")
    meta = {k: sorted({str(r.get(k)) for r in recs}) for k in keys}
    seeds = sorted({r["seed"] for r in recs})
    return ", ".join(f"{k} {'/'.join(v)}" for k, v in meta.items()) + f", seeds {seeds}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(argv[0]), load(argv[1])
    bad = False
    for name in [w["name"] for w in spec["workloads"]]:
        p_recs, c_recs = parent.get(name, []), change.get(name, [])
        if not p_recs or not c_recs:
            print(f"{name}: no records on {'both sides' if not p_recs and not c_recs else 'one side'}")
            continue
        pairs = min(len(p_recs), len(c_recs))
        firsts = ["parent" if p["started"] < c["started"] else "change" for p, c in zip(p_recs, c_recs)]
        alternated = all(a != b for a, b in zip(firsts, firsts[1:]))
        print(f"\n{name}: {pairs} pairs{'' if alternated else ' (NOT alternated)'}"
              f"{'' if pairs >= 10 else ' (fewer than 10: no claim can rest on these)'}")
        print(f"  parent: {describe(p_recs)}")
        print(f"  change: {describe(c_recs)}")
        shares = []
        for recs in (p_recs, c_recs):
            shares.append(sum(r["failed"] for r in recs) / sum(r["attempted"] for r in recs))
        print(f"  failed share: parent {shares[0]:.6f}, change {shares[1]:.6f}")
        bad |= shares[1] > shares[0]
        print(f"  {'metric':<24}{'parent q1/median/q3':>34}{'change q1/median/q3':>34}  wins  verdict")
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in p_recs[:pairs]]
            cv = [r["metrics"][m["name"]]["value"] for r in c_recs[:pairs]]
            v, wins = verdict(pv, cv, m["better"], m["bound"])
            bad |= v == "REGRESSION"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"  {m['name']:<24}{fmt(quartiles(pv)):>34}{fmt(quartiles(cv)):>34}"
                  f"  {wins:>2}/{pairs}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
