"""Quick self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

It runs each workload at a small fraction of its size and checks that:

* the reference computations pass their hand-derived facts;
* each run exits 0 with a correct result whose last line has exactly the
  keys correct, attempted, failed and metrics;
* every metric BENCHMARK.json names is emitted with its unit, the
  end-to-end ones untraced and the per-layer ones traced;
* two runs with the same seed build identical inputs and produce the same
  digest of the library's outputs, and another seed builds other inputs;
* run.py exits non-zero without a result where the library is missing.

It lives outside the test suite's ``testpaths`` on purpose: the test suite's
time does not grow.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"
SEED = 3


def run(workload: str, seed: int, trace: int, out: Path, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--scale", SCALE,
            "--out", str(out)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    sys.path.insert(0, str(HERE))
    import reference

    reference.self_check()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        for w in (w["name"] for w in spec["workloads"]):
            print(w)
            out = tmp / f"{w}.jsonl"
            for seed, trace in ((SEED, 0), (SEED, 0), (SEED + 1, 0), (SEED, 1)):
                proc = run(w, seed, trace, out)
                check(proc.returncode == 0, f"seed {seed} trace {trace} exits 0 "
                      f"{proc.stderr.strip()[-300:] if proc.returncode else ''}", failures)
                if proc.returncode:
                    continue
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                check(set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
                      and last["attempted"] >= 1, f"seed {seed} trace {trace} result line", failures)
                got = {k: v["unit"] for k, v in last["metrics"].items()}
                check(got == wanted[trace], f"seed {seed} trace {trace} emits every metric with its unit",
                      failures)
            recs = [json.loads(line) for line in out.read_text().splitlines()]
            if len(recs) == 4:
                a, b, other, _ = recs
                check(a["inputs_digest"] == b["inputs_digest"], "same seed, same inputs", failures)
                check(a["outputs_digest"] == b["outputs_digest"], "same seed, same output digest", failures)
                check(a["inputs_digest"] != other["inputs_digest"], "another seed, other inputs", failures)
                check(a["failed"] * b["attempted"] == b["failed"] * a["attempted"],
                      "same failed share in both runs", failures)
        print("benchmark files alone")
        bare = tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("codec_sweep", SEED, 0, tmp / "bare.jsonl", cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(), "exits non-zero without a result",
              failures)
    print(f"self-test: {'FAILED: ' + '; '.join(failures) if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
