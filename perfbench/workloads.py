"""The four seeded workloads.

Each workload is a closed loop: one caller in one process, no threads, the
next item issued when the previous one returns.  A seed picks contiguous
windows of inputs and the order they run in; each window is swept
exhaustively.  Seed 0 is the default and starts every window at the start
of the acceptance ranges.

A workload is built in two phases.  The constructor makes the seeded inputs
(this is what ``setup_s`` times).  ``prepare`` then derives the expected
answers from ``reference`` (and the probes built from them), which is the
benchmark's own cost and is not timed.  ``items`` returns one round: the
same items in the same order every round, so every run attempts whole
rounds and the share of failed items never depends on the run length.

An item's ``call`` is what is timed.  Its ``verify`` raises ``WrongAnswer``
on any answer that differs from the reference or breaks a property the
method must have, and returns ``FAULT`` for one of the two known faults:

* ``eval_F(n, 2, cap)`` with n >= 1000 and ``cap.bit_length() > 2048``
  raises RecursionError (the n >= 4 short-circuit in ``grzeval._eval`` is
  gated on the cap's size); its correct answer is ExceedsCap(cap).
* ``grzseq ord C`` on a 1,500-deep ``w^(w^(...))`` term exits through a
  RecursionError traceback; its correct answer is C = 1, or a usage error.

Both probes use fixed inputs, independent of the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import reference as ref
from tracing import CLI_GROUPS
from grzseq.grzeval import Exact, ExceedsCap
from grzseq.order import Ordering
from grzseq.ordinals import Ordinal

ROOT = Path(__file__).resolve().parent.parent
CAP = 10**7
FAULT = "known-fault"


class WrongAnswer(Exception):
    """The library returned an answer the reference or a property refutes."""


@dataclass
class Item:
    kind: str
    call: Callable[[Any], Any]
    verify: Callable[[Any], Any]
    split: Callable[[Any, Any], None] | None = None


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def okey(a: Ordinal) -> tuple:
    """The library's ordinal as a reference key (a structural walk)."""
    return tuple((okey(e), c) for e, c in a.terms)


def tkey(t):
    """The library's hereditary representation as a reference tree."""
    return t.body if t.is_atom else tuple((tkey(e), tkey(c)) for e, c in t.pairs)


def ordinal(key: tuple) -> Ordinal:
    """A reference key as a library ordinal (the constructor validates it)."""
    return Ordinal(tuple((ordinal(e), c) for e, c in key))


def bounded(v: int | None, cap: int):
    return ExceedsCap(cap) if v is None else Exact(v)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _windows(rng: random.Random | None, start: int, lo: int, hi: int, width: int,
             count: int) -> list[int]:
    """Starts of ``count`` windows of ``width`` values.

    Seeded, each starts at random inside [lo, hi - width); without a
    generator (seed 0) they tile the range from ``start`` on."""
    if rng is None:
        return [start + j * width for j in range(count)]
    return [rng.randrange(lo, hi - width) for _ in range(count)]


class Workload:
    name = ""
    children = False  # items time child processes rather than in-process calls

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(f"{self.name}:{seed}")
        self.windowed = random.Random(f"{self.name}:{seed}:windows") if seed else None

    def size(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def inputs(self):
        raise NotImplementedError

    def inputs_digest(self) -> str:
        return _digest(self.inputs())

    def prepare(self) -> None:
        """Compute the expected answers (untimed)."""

    def items(self) -> list[Item]:
        raise NotImplementedError

    def end_round(self) -> None:
        """Check properties of a whole round."""

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# codec_sweep: frep codec and grzeval kernel, no ordinals


class CodecSweep(Workload):
    name = "codec_sweep"
    BASES = range(2, 7)
    DIGITS = (30, 60, 100, 200, 300)
    GRID_CAPS = (10**7, 10**30, 10**300, 2**2048, 2**5000)
    PROBES = [(n, 2, cap) for n in (1000, 1500, 2000) for cap in (2**2049, 2**3000, 2**5000)]

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        w = self.windowed
        # (base, first value, width): codec, shift and hereditary sub-windows
        # inside the acceptance range 0..100000.  Seeded windows keep to its
        # upper part, where the cost per value is nearly flat, so that the
        # figures of different seeds stay comparable.
        def windows(width: int, count: int) -> list[int]:
            return _windows(w, 0, 20_000, 100_001, self.size(width), count)

        self.codec = [(k, s, self.size(50)) for k in self.BASES for s in windows(50, 20)]
        self.shift = [(k, s, self.size(16)) for k in self.BASES for s in windows(16, 5)]
        self.total = [(k, s, self.size(2)) for k in self.BASES for s in windows(2, 30)]
        # bigint slice: a window of consecutive d-digit values per size
        self.big = []
        for j, d in enumerate(self.DIGITS):
            lo = 10 ** (d - 1)
            start = lo if w is None else lo + w.randrange(8 * lo)
            self.big.append((2 + j % 5, start, self.size(6)))
        x0 = 0 if w is None else w.randrange(0, 40)
        xs = range(x0, x0 + self.size(12))
        grid = [("eval_F", (n, x, cap)) for n in range(6) for x in xs for cap in self.GRID_CAPS]
        grid += [("eval_F_iter", (n, i, x, cap)) for n in range(4) for i in range(4)
                 for x in xs for cap in self.GRID_CAPS[::2]]
        grid += [("exceeds", (n, i, x, b)) for n in range(4) for i in range(1, 4)
                 for x in xs for b in self.GRID_CAPS[:2]]
        self.rng.shuffle(grid)
        self.grid = grid

    def inputs(self):
        return (self.codec, self.shift, self.total, self.big, self.grid)

    def prepare(self) -> None:
        self.rep = {}
        for k, s, n in self.codec:
            for x in range(s, s + n):
                self.rep[x, k] = ref.decompose(x, k)
        for k, s, n in self.big:
            for x in range(s, s + n):
                self.rep[x, k] = ref.decompose(x, k)
        self.shifted = {(x, k): (bounded(ref.shift(x, k, k + 1, CAP), CAP),
                                 bounded(ref.shift(x, k, k + 1, CAP, True), CAP))
                        for k, s, n in self.shift for x in range(s, s + n)}
        self.tree = {(x, k): ref.hereditary(x, k) for k, s, n in self.total for x in range(s, s + n)}
        ev = {"eval_F": lambda n, x, cap: bounded(ref.F(n, x, cap), cap),
              "eval_F_iter": lambda n, i, x, cap: bounded(ref.F_iter(n, i, x, cap), cap),
              "exceeds": lambda n, i, x, b: ref.F_iter(n, i, x, b) is None}
        self.kernel = [ev[fn](*args) for fn, args in self.grid]

    def _codec_items(self, kind: str, windows, cap_of) -> list[Item]:
        items = []
        for k, s, n in windows:
            prev = [None]
            for x in range(s, s + n):
                cap = cap_of(x)

                def call(api, x=x, k=k, cap=cap, prev=prev):
                    r = api.encode(x, k)
                    out = r, api.decode(r, cap), prev[0] and api.rep_compare(prev[0], r)
                    prev[0] = r
                    return out

                def verify(out, x=x, k=k, s=s):
                    r, v, order = out
                    expect(r.base == k and r.body == self.rep[x, k], f"encode({x}, {k}) = {r}")
                    expect(v == Exact(x), f"decode(encode({x}, {k})) = {v}")
                    expect(x == s or order is Ordering.LT, f"compare at {x - 1}, {x} base {k}: {order}")

                items.append(Item(kind, call, verify))
        return items

    def items(self) -> list[Item]:
        items = self._codec_items("codec", self.codec, lambda x: CAP)
        items += self._codec_items("bigint", self.big, lambda x: 10 * x)
        for k, s, n in self.shift:
            for x in range(s, s + n):
                def call(api, x=x, k=k):
                    return api.shift_value(x, k, k + 1, CAP), api.shift_total_value(x, k, k + 1, CAP)

                def verify(out, x=x, k=k):
                    expect(out == self.shifted[x, k], f"shift({x}, {k}->{k + 1}) = {out}")

                items.append(Item("shift", call, verify))
        for k, s, n in self.total:
            for x in range(s, s + n):
                def call(api, x=x, k=k):
                    t = api.to_total(x, k)
                    return t, api.decode_total(t, CAP)

                def verify(out, x=x, k=k):
                    t, v = out
                    expect(tkey(t) == self.tree[x, k], f"to_total({x}, {k}) = {t}")
                    expect(v == Exact(x), f"decode_total(to_total({x}, {k})) = {v}")

                items.append(Item("total", call, verify))
        for (fn, args), want in zip(self.grid, self.kernel):
            def call(api, fn=fn, args=args):
                return getattr(api, fn)(*args)

            def verify(out, fn=fn, args=args, want=want):
                expect(out == want, f"{fn}{args[:-1]} under a {args[-1].bit_length()}-bit cap = {out}")

            items.append(Item("kernel", call, verify))
        for n, x, cap in self.PROBES:
            def call(api, n=n, x=x, cap=cap):
                try:
                    return api.eval_F(n, x, cap)
                except RecursionError:
                    return FAULT

            def verify(out, n=n, cap=cap):
                if out == FAULT:
                    return FAULT
                expect(out == ExceedsCap(cap), f"eval_F({n}, 2) under a {cap.bit_length()}-bit cap = {out}")

            items.append(Item("kernel_probe", call, verify))
        return items


# ---------------------------------------------------------------------------
# ordinal_order: ordinals.compare and correspond, codec via o_map only


class OrdinalOrder(Workload):
    name = "ordinal_order"
    BASES = (2, 3)

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        width = self.size(50)
        # twenty windows per base inside the acceptance range k+1..10000 of
        # inversion and predecessor; seeded ones keep to 1000..10000, where
        # the cost per value is nearly flat
        self.windows = [(k, s, width) for k in self.BASES
                        for s in _windows(self.windowed, k + 1, 1000, 10_001, width, 20)]
        self.order = sorted({(x, k) for k, s, n in self.windows for x in range(s, s + n)})
        self.rng.shuffle(self.order)

    def inputs(self):
        return self.order

    def prepare(self) -> None:
        self.key = {}
        for k, s, n in self.windows:
            for x in range(s - 1, s + n):
                self.key[x, k] = ref.o_key(x, k)
        # Non-members of D_k by a rule that provably leaves it: every image
        # has finite exponents below k and a leading count below k, so raise
        # the leading count by k, or append a finite exponent >= k.
        self.probe = {}
        for x, k in self.order:
            key = self.key[x, k]
            if x % 2:
                (e, c), rest = key[0], key[1:]
                bad = ((e, c + k),) + rest
            else:
                bad = ref.add(key, ((ref.finite(k + x % 3), 1),))
            self.probe[x, k] = ordinal(bad)

    def items(self) -> list[Item]:
        self.sorted = {k: ([], []) for k in self.BASES}
        items = []
        for x, k in self.order:
            images, values = self.sorted[k]
            probe = self.probe[x, k]

            def call(api, x=x, k=k, images=images, values=values, probe=probe):
                img = api.o_map(x, k)
                lo, hi = 0, len(images)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if api.ordinal_lt(img, images[mid]):
                        hi = mid
                    else:
                        lo = mid + 1
                images.insert(lo, img)
                values.insert(lo, x)
                return (img, api.in_D(img, k), api.L_inverse(img, k), api.Q_pred(img, k),
                        api.in_D(probe, k))

            def verify(out, x=x, k=k):
                img, member, inv, pred, probe_report = out
                expect(okey(img) == self.key[x, k], f"o_{k}({x}) = {img}")
                expect(member.member, f"o_{k}({x}) reported outside D_{k}: {member.reason}")
                expect(inv == Exact(x), f"L_{k}(o_{k}({x})) = {inv}")
                expect(okey(pred) == self.key[x - 1, k], f"Q_{k}(o_{k}({x})) = {pred}")
                expect(not probe_report.member, f"probe for {x} reported inside D_{k}")

            def split(api, out, x=x, k=k):
                api.encode(x, k)

            items.append(Item("order", call, verify, split))
        return items

    def end_round(self) -> None:
        for k, (_, values) in self.sorted.items():
            expect(values == sorted(values), f"images at base {k} sorted by compare are out of value order")


# ---------------------------------------------------------------------------
# descent_chains: ordinal construction, slowdown and sequence engines


def random_ordinal(rng: random.Random, depth: int) -> tuple:
    """A CNF key with at most three terms and coefficients (hence C) <= 8."""
    exps = set()
    for _ in range(rng.randint(1, 3)):
        if depth == 0 or rng.random() < 0.4:
            exps.add(ref.finite(rng.randint(0, 6)))
        else:
            exps.add(random_ordinal(rng, depth - 1))
    return tuple((e, rng.randint(1, 8)) for e in sorted(exps, reverse=True))


def random_chain(rng: random.Random, length: int) -> list[tuple]:
    """A strictly descending chain of ``length`` keys ending in 0, each with
    leading coefficient 8 (so C = 8 and a chain's size fixes the number of
    entries its compression emits)."""
    keys = set()
    while len(keys) < length - 1:
        (e, _), *rest = random_ordinal(rng, 2)
        keys.add(((e, 8), *rest))
    return sorted(keys, reverse=True) + [ref.ZERO]


def chain_file_text(keys: list[tuple], seed: int) -> str:
    lines = [f"# descending chain, seed {seed}", ""]
    lines += [ref.text(a) for a in keys]
    return "\n".join(lines) + "\n"


class DescentChains(Workload):
    name = "descent_chains"
    LENGTHS = (20, 30, 40, 60, 80, 100, 150, 200)
    CAPS = (10**7, 10**30, 10**100, 10**300)

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.chains = []
        for j, length in enumerate(self.LENGTHS):
            keys = random_chain(self.rng, max(3, self.size(length)))
            self.chains.append((keys, chain_file_text(keys, seed), j % 4))
        # seeds >= 8 all overflow at k = 1; seeded windows keep to
        # 10^4..10^5, where the cost per seed is nearly flat
        z0 = 8 if self.windowed is None else self.windowed.randrange(10_000, 100_000)
        self.overflow = [(z, self.CAPS[z % 4]) for z in range(z0, z0 + self.size(40))]
        self.runs = [(z, hered) for z in range(8) for hered in (False, True)]

    def inputs(self):
        return ([text for _, text, _ in self.chains], self.overflow, self.runs)

    def prepare(self) -> None:
        self.trail = {(z, h): ref.sequence(z, h, CAP) for z, h in self.runs}
        for z, cap in self.overflow:
            expect(ref.sequence(z, False, cap)[1:] == ("overflowed_cap", 1),
                   f"reference: seed {z} must overflow at k = 1")
        # descending member chains: the shadows o_{2+k}(z_k) of the leading
        # representation steps of a plain trace
        self.member_chains = []
        for z in range(2, 8):
            values = self.trail[z, False][0]
            lead = []
            for k, v in enumerate(values):
                if v < 2 + k:
                    break
                lead.append(v)
            keys = [ref.o_key(v, 2 + k) for k, v in enumerate(lead)]
            self.member_chains.append((lead, [ordinal(a) for a in keys]))
        self.checked_text: dict[int, str] = {}

    def _check_chain(self, j: int, keys: list[tuple], c: int, out, report, text: str) -> None:
        if self.checked_text.get(j) == text:
            return  # byte-identical to an output already checked this run
        expect(report.ok, f"chain {j}: verify_slow rejected the compressed chain: {report.violations[:2]}")
        entries = [ref.parse(line) for line in text.splitlines()]
        expect(all(b < a for a, b in zip(entries, entries[1:])), f"chain {j}: emitted chain does not descend")
        expect(all(ref.C(a) <= i + 1 for i, a in enumerate(entries)), f"chain {j}: C(entry_i) > i + 1")
        measures = [ref.C(a) for a in keys]
        ell = max(c, measures[0])
        expect(out.tower_prefix_len == ell, f"chain {j}: tower prefix {out.tower_prefix_len} != {ell}")
        expect(len(entries) == max(ell, sum(measures)), f"chain {j}: {len(entries)} entries emitted")
        self.checked_text[j] = text

    def items(self) -> list[Item]:
        items = []
        for j, (keys, text, c) in enumerate(self.chains):
            def call(api, text=text, c=c):
                alphas = api.parse_chain_text(text)
                out = api.compress(alphas, 2, c)
                return alphas, out, api.verify_slow(out), api.chain_to_text(out.entries)

            def verify(out, j=j, keys=keys, c=c):
                alphas, slow, report, emitted = out
                expect([okey(a) for a in alphas] == keys, f"chain {j}: parse_chain_text misread the file")
                self._check_chain(j, keys, c, slow, report, emitted)

            def split(api, out, text=text):
                # the construction's building blocks on the same chain
                for line in text.splitlines()[2:]:
                    api.parse_ordinal(line)
                for k, a in enumerate(out[0]):
                    api.coeff_measure(a)
                    api.add(api.mul_omega_omega(a), api.g(2, max(2, k), k % 8))

            items.append(Item("chain", call, verify, split))
        for z, hered in self.runs:
            def call(api, z=z, hered=hered):
                t = api.run(z, hered, CAP, 10**4, not hered)
                return t, None if hered else api.shadow_check(t)

            def verify(out, z=z, hered=hered):
                t, report = out
                values, kind, at = self.trail[z, hered]
                expect(t.exact_values() == values and (t.outcome.kind, t.outcome.at) == (kind, at),
                       f"run({z}, hereditary={hered}) = {t.exact_values()}, {t.outcome}")
                expect(hered or report.ok, f"shadow_check(run({z})) failed: {report and report.violations[:2]}")

            items.append(Item("seq", call, verify))
        for z, cap in self.overflow:
            def call(api, z=z, cap=cap):
                return api.run(z, False, cap)

            def verify(t, z=z, cap=cap):
                expect((t.outcome.kind, t.outcome.at) == ("overflowed_cap", 1)
                       and t.steps[0].value == Exact(z) and t.steps[-1].value == ExceedsCap(cap),
                       f"run({z}, cap 10^{len(str(cap)) - 1}) ended {t.outcome}")

            items.append(Item("overflow", call, verify))
        for lead, gammas in self.member_chains:
            def call(api, gammas=gammas):
                return api.dominate_check(gammas, CAP)

            def verify(report, lead=lead):
                want = tuple((k, v, v) for k, v in enumerate(lead))
                expect(report.ok and report.entries == want and not report.skipped,
                       f"dominate_check on the shadows of {lead[0]}: {report}")

            items.append(Item("dominate", call, verify))
        random.Random(self.seed).shuffle(items)
        return items


# ---------------------------------------------------------------------------
# cli_commands: one `python -m grzseq.cli` process at a time


def run_cli(args: list[str]) -> tuple[int, str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("GRZ_CAP", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-m", "grzseq.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


CLI_CALLS = [(f"cli.{group}", f"cli_{group}", run_cli) for group in CLI_GROUPS]
DEEP = 1500


class CliCommands(Workload):
    name = "cli_commands"
    children = True

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        rng = self.rng
        w = self.windowed
        x = 1000 if w is None else w.randrange(1000, 100_000)
        k = 2 + rng.randrange(5)
        z = 4 + rng.randrange(4)
        self.x, self.k, self.z = x, k, z
        self.tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        chain = random_chain(rng, 40)
        verify_chain = random_chain(rng, 30)
        (self.tmp / "chain.txt").write_text(chain_file_text(chain, seed))
        (self.tmp / "verify.txt").write_text(chain_file_text(verify_chain, seed))
        self.chain, self.verify_chain, self.const = chain, verify_chain, rng.randrange(4)
        self.x_shift = x + rng.randrange(-500, 500)
        self.x_over = 8 + rng.randrange(1000)
        self.gn = (3, rng.choice((2, 3)), rng.randrange(2, 2048))
        self.pair = (x + 3, x + rng.randrange(-50, 50))
        self.member = seed % 2 == 0
        # ordinal arguments, written by the reference printer
        self.image = ref.o_key(x, k)
        self.pair_keys = [ref.o_key(v, k) for v in self.pair]
        self.c_arg = chain[len(chain) // 2]
        (e, c), rest = self.image[0], self.image[1:]
        self.in_d_arg = self.image if self.member else ((e, c + k),) + rest
        deep = "w^(" * DEEP + "1" + ")" * DEEP
        t = str(self.tmp)
        self.commands = [
            ("repr", ["repr", str(x), "--base", str(k)]),
            ("repr", ["repr", str(x), "--base", str(k), "--total"]),
            ("shift", ["shift", str(self.x_shift), "--from", str(k), "--to", str(k + 1)]),
            ("shift", ["shift", str(self.x_over), "--from", "2", "--to", "3"]),
            ("seq", ["seq", str(z), "--shadow"]),
            ("seq", ["seq", str(z), "--hereditary", "--json"]),
            ("ord", ["ord", "encode", str(x), "--base", str(k)]),
            ("ord", ["ord", "compare", *map(ref.text, self.pair_keys)]),
            ("ord", ["ord", "C", ref.text(self.c_arg)]),
            ("ord", ["ord", "inD", ref.text(self.in_d_arg), "--base", str(k)]),
            ("ord", ["ord", "Q", ref.text(self.image), "--base", str(k)]),
            ("gn", ["gn", *map(str, self.gn)]),
            ("chain", ["chain", "slowdown", "--input", f"{t}/chain.txt", "--index", "2",
                       "--const", str(self.const)]),
            ("chain", ["chain", "verify", "--input", f"{t}/verify.txt"]),
            ("ord", ["ord", "C", deep]),
        ]
        self.order = list(range(len(self.commands)))
        rng.shuffle(self.order)

    def inputs(self):
        return (self.x, self.k, self.z, self.x_shift, self.x_over, self.gn, self.pair,
                self.member, self.const, self.chain, self.verify_chain, self.order)

    def prepare(self) -> None:
        x, k = self.x, self.k
        a, b = self.pair_keys
        over = ref.shift(self.x_over, 2, 3, CAP)
        expect(over is None, "reference: the overflowing shift must exceed the cap")
        shifted = ref.shift(self.x_shift, k, k + 1, CAP)
        plain, hered = ref.sequence(self.z, False, CAP), ref.sequence(self.z, True, CAP)
        measures = [ref.C(e) for e in self.chain]
        ell = max(self.const, measures[0])
        bad = sum(1 for p, q in zip(self.verify_chain, self.verify_chain[1:]) if not q < p)
        bad += sum(1 for i, e in enumerate(self.verify_chain) if ref.C(e) > i + 1)
        self.expected = [
            (0, ref.rep_text(x, k)),
            (0, ref.hereditary_text(ref.hereditary(x, k), k)),
            (0 if shifted is not None else 1, str(shifted) if shifted is not None else f">cap({CAP})"),
            (1, f">cap({CAP})"),
            (0, plain),
            (0, hered),
            (0, ref.text(self.image)),
            (0, {-1: "LT", 0: "EQ", 1: "GT"}[(a > b) - (a < b)]),
            (0, str(ref.C(self.c_arg))),
            (0, "member" if self.member else "non-member"),
            (0, ref.text(ref.o_key(x - 1, k))),
            (0, ref.text(ref.g(*self.gn))),
            (0, (ell, max(ell, sum(measures)))),
            (3 if bad else 0, bad),
        ]

    def _verify(self, i: int, code: int, out: str, err: str) -> None:
        kind, argv = self.commands[i]
        what = "grzseq " + " ".join(a if len(a) < 60 else a[:20] + "..." for a in argv)
        want_code, want = self.expected[i]
        expect(code in (0, 1, 2, 3) and "Traceback" not in err, f"{what}: exit {code}, {err[-300:]!r}")
        expect(code == want_code, f"{what}: exit {code}, expected {want_code}")
        lines = out.splitlines()
        if argv[0] == "seq" and "--json" in argv:
            trace = json.loads(out)
            values = [int(s["value"]) for s in trace["steps"]]
            got = (values, trace["outcome"]["kind"], trace["outcome"]["at"])
            expect(got == want, f"{what}: {got}")
        elif argv[0] == "seq":
            values, shadows = [], []
            for line in lines[:-1]:
                fields = dict(f.split("=", 1) for f in line.split()[:-1])
                values.append(int(fields["value"]))
                if "shadow" in fields:
                    base = int(fields["base"])
                    shadows.append(fields["shadow"] == ref.text(ref.o_key(values[-1], base)))
            got = (values, *lines[-1].removeprefix("outcome: ").split(" at k="))
            expect(got == (want[0], want[1], str(want[2])) and all(shadows), f"{what}: {out!r}")
        elif argv[:2] == ["chain", "slowdown"]:
            ell, count = want
            entries = [ref.parse(line) for line in lines if not line.startswith("#")]
            expect(all(b < a for a, b in zip(entries, entries[1:])), f"{what}: output does not descend")
            expect(all(ref.C(e) <= j + 1 for j, e in enumerate(entries)), f"{what}: C(entry_i) > i + 1")
            expect(len(entries) == count and f"# ell={ell} " in out and "# verified: ok" in out,
                   f"{what}: {lines[-3:]}")
        elif argv[:2] == ["chain", "verify"]:
            if want:
                expect(len(lines) == want and all(l.startswith("violation:") for l in lines),
                       f"{what}: {len(lines)} violation lines, expected {want}")
            else:
                expect(out.startswith(f"ok: {len(self.verify_chain)} entries"), f"{what}: {out!r}")
        elif argv[:2] == ["ord", "inD"]:
            expect(out.strip().split(":")[0] == want, f"{what}: {out!r}")
        else:
            expect(out.strip() == want, f"{what}: {out.strip()!r}, expected {want!r}")

    def _verify_deep(self, code: int, out: str, err: str):
        if code == 1 and "RecursionError" in err:
            return FAULT
        # mended: C(w^(w^(...^1))) = 1, or a documented usage rejection
        expect((code, out.strip()) == (0, "1") or (code == 2 and "Traceback" not in err),
               f"grzseq ord C on a {DEEP}-deep term: exit {code}, {out[:80]!r} {err[-200:]!r}")

    def items(self) -> list[Item]:
        items = []
        for i in self.order:
            kind, argv = self.commands[i]

            def call(api, kind=kind, argv=argv):
                return getattr(api, f"cli_{kind}")(argv)

            if i == len(self.commands) - 1:
                def verify(out):
                    return self._verify_deep(*out)
            else:
                def verify(out, i=i):
                    self._verify(i, *out)

            items.append(Item("cli", call, verify))
        return items

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CodecSweep, OrdinalOrder, DescentChains, CliCommands)}
