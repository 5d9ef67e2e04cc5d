"""Run one grzseq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload codec_sweep --seed 0 --seconds 16 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones.  The exit status is 0 only when every answer was right;
the two known faults of the library count as failed items, not as wrong
answers.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
START_SAMPLES = 5
CALIBRATION_EVERY_NS = 10_000_000
KEPT_ROUNDS = 15  # the last rounds whose item times a run keeps

# The machine the figures in README.md come from (2 shared x86-64 cores,
# Python 3.11.7) runs at two speeds about 2x apart, switching every few
# seconds and sometimes for a whole run.  Times are therefore scaled to a
# nominal speed, fixed by what two probes that run no grzseq code take there
# when nothing slows it down: calibrate() and a bare `python -c pass`.
NOMINAL_CALIBRATION_NS = 200_000
NOMINAL_START_S = 0.050


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import grzseq
    except ImportError as err:
        sys.exit(f"perfbench: cannot import grzseq from {src}: {err}")
    if not Path(grzseq.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: grzseq was imported from {grzseq.__file__}, not from {src}")


def _calibration_loop(n: int = 450) -> int:
    acc = 0
    seen = {}
    for i in range(n):
        key = (i % 7, (i * 31) % 11, (i & 3, i >> 2))
        seen[key[0]] = key
        if key < (3, 5, (1, 0)):
            acc += len(key)
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    return acc + len(seen)


def calibrate() -> int:
    """Best of two timings, in ns, of a fixed pure-Python loop that calls no
    grzseq code: how fast this machine runs the interpreter right now."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter_ns()
        _calibration_loop()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def wall_s(argv: list[str], env: dict | None = None) -> float:
    """Wall time of one child process, in s; the child must succeed."""
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def bare_start_s() -> float:
    return wall_s([sys.executable, "-c", "pass"])


def _paired_median(argv: list[str], samples: int, env: dict | None = None):
    """Median wall time of a child process as measured and at the nominal
    speed (each run scaled by a bare interpreter start just before it), and
    the median bare start, all in s."""
    bare, raw, nominal = [], [], []
    for _ in range(samples):
        b = bare_start_s()
        w = wall_s(argv, env)
        bare.append(b)
        raw.append(w)
        nominal.append(w * NOMINAL_START_S / b)
    return statistics.median(raw), statistics.median(nominal), statistics.median(bare)


def measure_setup(args) -> tuple[float, float]:
    """Median time of fresh processes that import grzseq and build the
    workload's seeded inputs, then exit: as measured and at nominal speed."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed), "--scale", str(args.scale)]
    raw, nominal, _ = _paired_median(argv, SETUP_SAMPLES)
    return raw, nominal


def measure_start() -> tuple[float, float]:
    """A bare interpreter start as measured, and `import grzseq.cli` beyond
    it at the nominal speed, in ms."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    _, nominal, bare = _paired_median([sys.executable, "-c", "import grzseq.cli"], START_SAMPLES, env)
    return bare * 1e3, (nominal - NOMINAL_START_S) * 1e3


class Run:
    """Counts and item times over the rounds of one run.

    Every round runs the same items.  Each item's time is scaled to the
    nominal machine speed by a probe taken just before it: the latest
    calibrate() (taken at least every 10 ms) for in-process items, a bare
    interpreter start for child-process items (``cli_commands``).  An item's
    time is the median of its times over the last KEPT_ROUNDS rounds; they
    are kept in buffers of a fixed size, so that the run's own memory does
    not grow with the number of rounds."""

    def __init__(self, workload, tracer=None):
        from workloads import FAULT, WrongAnswer

        self.workload = workload
        self.tracer = tracer
        self.fault, self.wrong = FAULT, WrongAnswer
        self.reset()

    def reset(self) -> None:
        self.attempted = self.failed = 0
        self.rounds = 0
        self.by_kind: dict[str, list[int]] = {}
        self.scales: list[float] = []
        self.timed: set[int] = set()
        # item ix of round r sits at ix * KEPT_ROUNDS + r % KEPT_ROUNDS
        self.raw = array("d")
        self.nominal = array("d")

    def round(self, api, traced: bool = False, digest=None) -> float:
        """Run one round; return its summed item time in ns at nominal speed."""
        clock = time.perf_counter_ns
        busy = 0.0
        slot = self.rounds % KEPT_ROUNDS
        tracer = self.tracer if traced else None
        children = self.workload.children
        items = self.workload.items()
        if not self.raw:
            self.raw = array("d", bytes(8 * len(items) * KEPT_ROUNDS))
            self.nominal = array("d", self.raw)
        gc.collect()  # every round starts from the same collector state
        last_cal = 0
        for ix, item in enumerate(items):
            if children:
                scale = NOMINAL_START_S / bare_start_s()
                self.scales.append(scale)
            elif clock() - last_cal > CALIBRATION_EVERY_NS:
                scale = NOMINAL_CALIBRATION_NS / calibrate()
                self.scales.append(scale)
                last_cal = clock()
            if tracer is not None:
                tracer.item = ix
            t0 = clock()
            try:
                out = item.call(api)
            except Exception as err:
                raise self.wrong(f"{item.kind} item {ix} raised {type(err).__name__}: {err}") from err
            dt = clock() - t0
            if digest is not None:
                digest.update(repr(out if item.kind != "cli" else out[:2]).encode())
            counts = self.by_kind.setdefault(item.kind, [0, 0])
            counts[0] += 1
            self.attempted += 1
            if item.verify(out) == self.fault:
                counts[1] += 1
                self.failed += 1
                if tracer is not None:
                    tracer.counts[item.kind.split("_")[0] + ".failed"] += 1
                continue
            if tracer is not None and item.split is not None:
                item.split(api, out)
            at = ix * KEPT_ROUNDS + slot
            self.raw[at] = dt
            self.nominal[at] = dt * scale
            self.timed.add(ix)
            busy += dt * scale
        self.workload.end_round()
        self.rounds += 1
        return busy

    def speed_scale(self) -> float:
        """Median factor that took this run's times to the nominal speed."""
        return statistics.median(self.scales)

    def item_figures(self) -> tuple[dict, dict]:
        """Figures over the items' median times: as measured, and nominal."""
        kept = min(self.rounds, KEPT_ROUNDS)
        return tuple(figures_of([statistics.median(times[ix * KEPT_ROUNDS:ix * KEPT_ROUNDS + kept])
                                   for ix in sorted(self.timed)])
                     for times in (self.raw, self.nominal))


def figures_of(item_ns: list[float]) -> dict:
    q = statistics.quantiles(item_ns, n=100, method="inclusive")
    return {"throughput_items_per_s": len(item_ns) / (sum(item_ns) / 1e9),
            "item_p50_us": statistics.median(item_ns) / 1e3,
            "item_p99_us": q[98] / 1e3}


UNITS = {"setup_s": "s", "throughput_items_per_s": "items/s", "item_p50_us": "us",
         "item_p99_us": "us", "peak_rss_mib": "MiB"}


def end_to_end(items: dict, setup_s: float, rss_kib: int) -> dict:
    values = dict(items, setup_s=setup_s, peak_rss_mib=rss_kib / 1024)
    return {name: (values[name], unit) for name, unit in UNITS.items()}


def run_all(args) -> int:
    """Run every workload of BENCHMARK.json in turn, each in its own process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", str(args.scale)]
        if args.out:
            argv += ["--out", args.out]
        status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="window-size factor; the self-test runs at a tiny scale")
    parser.add_argument("--out", help="append a result record (JSON line) to this file")
    parser.add_argument("--spans", help="write the traced run's spans (JSON lines) to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.spans or args.setup_only:
            parser.error("--spans and --setup-only take a single workload")
        return run_all(args)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # let `finally` clean up
    started = time.time()
    _import_library()
    import reference
    import tracing
    from workloads import CLI_CALLS, WORKLOADS, WrongAnswer

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    if args.setup_only:
        workload.close()
        return 0

    calls = tracing.CALLS + CLI_CALLS
    tracer = tracing.Tracer() if args.trace else None
    run = Run(workload, tracer)
    digest = hashlib.sha256()
    error = None
    overhead_pct = None
    try:
        reference.self_check()
        workload.prepare()
        plain = tracing.plain_api(calls)
        run.round(plain, digest=digest)  # warm-up: checked and digested, not counted
        run.reset()
        rounds = 0
        t_end = time.perf_counter() + args.seconds
        if tracer is None:
            while rounds == 0 or time.perf_counter() < t_end:
                run.round(plain)
                rounds += 1
        else:
            # untraced and traced rounds alternate; their ratio is the
            # tracing overhead, and only the traced rounds feed the spans
            traced_api = tracer.api(calls)
            plain_ns, traced_ns = [], []
            while rounds == 0 or time.perf_counter() < t_end:
                plain_ns.append(run.round(plain))
                traced_ns.append(run.round(traced_api, traced=True))
                rounds += 1
            overhead_pct = (min(traced_ns) / min(plain_ns) - 1) * 100
    except WrongAnswer as err:
        error = str(err)
    except Exception as err:  # the library refused an input the reference built
        traceback.print_exc()
        error = f"{type(err).__name__}: {err}"
    finally:
        workload.close()

    if error is not None:
        print(f"perfbench: {args.workload} seed {args.seed}: WRONG ANSWER: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": run.failed, "metrics": {}}))
        return 1

    scale = run.speed_scale()
    raw = None
    if tracer is None:
        who = resource.RUSAGE_CHILDREN if workload.children else resource.RUSAGE_SELF
        rss_kib = resource.getrusage(who).ru_maxrss  # before any set-up child runs
        setup_raw, setup_nominal = measure_setup(args)
        raw_items, nominal_items = run.item_figures()
        raw = end_to_end(raw_items, setup_raw, rss_kib)
        metrics = end_to_end(nominal_items, setup_nominal, rss_kib)
    else:
        # span times are scaled by the run's median factor
        layer = tracing.layer_metrics(tracer)
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: (value * scale if units[name] in ("s", "ms", "us") else value, units[name])
                   for name, value in layer.items()}
        interp_ms, import_ms = measure_start()
        metrics["cli.interpreter_ms"] = (interp_ms, "ms")
        metrics["cli.import_ms"] = (import_ms, "ms")
        metrics["trace.overhead_pct"] = (overhead_pct, "%")
        metrics["trace.timer_ns"] = (tracing.timer_overhead_ns(), "ns")
        metrics = {name: metrics[name] for name in units}
        if args.spans:
            tracer.write(args.spans)

    mode = "traced" if tracer else "untraced"
    print(f"{args.workload} seed {args.seed}, {mode}: {rounds} rounds, "
          f"{run.attempted} items attempted, {run.failed} failed, output digest {digest.hexdigest()[:16]}")
    for kind, (attempted, failed) in run.by_kind.items():
        print(f"  {kind:>14}: {attempted} attempted, {failed} failed")
    print(f"  machine speed: times scaled to the nominal speed by a median factor of {scale:.4f}")
    for name, (value, unit) in metrics.items():
        as_measured = f"  (as measured: {raw[name][0]:.6g})" if raw and name != "peak_rss_mib" else ""
        print(f"  {name} = {value:.6g} {unit}{as_measured}")
    result = {"correct": True, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, scale=args.scale, rounds=rounds,
                      python=platform.python_version(), cores=os.cpu_count(), sha=_git_sha(),
                      started=started, inputs_digest=workload.inputs_digest(),
                      outputs_digest=digest.hexdigest(), speed_scale=scale,
                      as_measured={name: value for name, (value, _) in (raw or {}).items()})
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
