"""Base-shift countdown sequences and their ordinal shadows.

Starting from z at step 0 (base 2), each step re-reads the current value at
the next base and subtracts one:

    z_{k+1} = z_k - 1                     when z_k < 2+k,
    z_{k+1} = z_k[2+k := 3+k] - 1         otherwise,

with the hereditary variant using the total shift (counts move too).  The
engine records every step, optionally with the value's representation and
its ordinal shadow, and stops honestly at zero, at the cap, or at the step
limit.  One base shift can already overflow any practical cap (seed 8 at
base 2 jumps to F_3(3)), so overflow is a first-class outcome carrying a
symbolic description of the offending shift.
"""

from __future__ import annotations

import enum

from .correspond import L_inverse, NotInDError, Q_pred, in_D, o_map
from .frep import encode, print_rep, rep_to_json, shift_total_value, shift_value, to_total
from .grzeval import DEFAULT_CAP, DEFAULT_MAX_STEPS, BoundedNat, CapExceededError, Exact, ExceedsCap
from .order import Record, check_nat
from .ordinals import Ordinal, ordinal_to_json


class Phase(enum.Enum):
    REPRESENTATION = "representation"
    COUNTDOWN = "countdown"
    OVERFLOW = "overflow"
    DONE = "done"


class TraceStep(Record):
    __slots__ = _fields = ("k", "base", "value", "rep", "shadow", "phase")


class Outcome(Record):
    __slots__ = _fields = ("kind", "at")  # kind: "terminated" | "overflowed_cap" | "step_limit"


class Trace(Record):
    __slots__ = _fields = ("start", "hereditary", "cap", "steps", "outcome", "overflow_desc")
    _defaults = (None,)

    def exact_values(self) -> list[int]:
        return [s.value.value for s in self.steps if isinstance(s.value, Exact)]


class CheckReport(Record):
    __slots__ = _fields = ("ok", "checked", "skipped", "violations")


class DominationReport(Record):
    __slots__ = _fields = ("ok", "entries", "skipped", "violations")  # entries: the (k, v_k, z_k) compared


def next_step(v: int, k: int, hereditary: bool, cap: int) -> BoundedNat:
    """One step of the rule at index k (base 2+k), cutoff-aware."""
    if not (isinstance(v, int) and isinstance(k, int)) or bool in (type(v), type(k)) or v < 0 or k < 0:
        raise ValueError("value and step index must be non-negative integers")
    check_nat("cap", cap)
    base = 2 + k
    if v < base:
        return Exact(v - 1 if v > 0 else 0)
    shift = shift_total_value if hereditary else shift_value
    s = shift(v, base, base + 1, cap)
    if isinstance(s, ExceedsCap):
        return s
    return Exact(s.value - 1)


def run(
    z: int,
    hereditary: bool = False,
    cap: int = DEFAULT_CAP,
    max_steps: int = DEFAULT_MAX_STEPS,
    with_shadow: bool = False,
) -> Trace:
    """Iterate the rule from seed z until zero, cap overflow, or the step limit.
    The seed, the cap and the step limit are checked up front, whatever the seed."""
    check_nat("seed", z)
    check_nat("cap", cap)
    check_nat("max_steps", max_steps)
    steps: list[TraceStep] = []
    v, k = z, 0
    outcome: Outcome | None = None
    overflow_desc: str | None = None
    while True:
        base = 2 + k
        if v == 0:
            steps.append(TraceStep(k, base, Exact(0), None, None, Phase.DONE))
            outcome = Outcome("terminated", k)
            break
        if v < base:
            steps.append(TraceStep(k, base, Exact(v), None, None, Phase.COUNTDOWN))
            rep = None
        else:
            rep = to_total(v, base) if hereditary else encode(v, base)
            shadow = o_map(v, base) if with_shadow else None
            steps.append(TraceStep(k, base, Exact(v), rep, shadow, Phase.REPRESENTATION))
        if len(steps) > max_steps:
            outcome = Outcome("step_limit", k)
            break
        nxt = next_step(v, k, hereditary, cap)
        if isinstance(nxt, ExceedsCap):
            steps.append(TraceStep(k + 1, base + 1, nxt, None, None, Phase.OVERFLOW))
            desc = print_rep(rep) if rep is not None else str(v)
            overflow_desc = f"{desc}[{base}:={base + 1}] - 1 > {cap}"
            outcome = Outcome("overflowed_cap", k + 1)
            break
        v, k = nxt.value, k + 1
    return Trace(z, hereditary, cap, tuple(steps), outcome, overflow_desc)


def shadow_check(t: Trace) -> CheckReport:
    """Verify the ordinal shadows along a trace.

    For every consecutive pair of representation-phase steps: the shadows
    strictly decrease, each shadow is a member of D at its own base, and the
    later shadow is exactly the predecessor of the earlier one inside D at
    the later base (skipped when the preimage is above the cap, and left out
    when the earlier shadow is outside D or zero, whose failure is reported
    already).
    """
    violations: list[str] = []
    checked = skipped = 0
    rep_steps = [s for s in t.steps if s.phase == Phase.REPRESENTATION]
    for s in rep_steps:
        if s.shadow is None:
            continue
        if not in_D(s.shadow, s.base).member:
            violations.append(f"k={s.k}: shadow {s.shadow} not in D_{s.base}")
    for s1, s2 in zip(rep_steps, rep_steps[1:]):
        if s1.shadow is None or s2.shadow is None or s2.k != s1.k + 1:
            continue
        checked += 1
        if not s2.shadow < s1.shadow:
            violations.append(
                f"k={s1.k}->{s2.k}: shadow did not descend ({s1.shadow} then {s2.shadow})"
            )
        if s1.shadow.is_zero:  # no predecessor, and the descent has failed above
            continue
        try:
            expected = Q_pred(s1.shadow, s2.base, t.cap)
        except CapExceededError:
            skipped += 1
            continue
        except NotInDError:  # then s1's shadow is outside D at its own base too, as D_k is in D_{k+1}
            continue
        if expected != s2.shadow:
            violations.append(
                f"k={s2.k}: shadow {s2.shadow} differs from the D_{s2.base} predecessor {expected}"
            )
    return CheckReport(not violations, checked, skipped, tuple(violations))


def dominate_check(gammas: list[Ordinal], cap: int = DEFAULT_CAP) -> DominationReport:
    """Check that the preimages of a descending member chain stay below the
    sequence seeded at the first preimage.

    The input must be strictly descending with entry k a member of D_{2+k};
    anything else is rejected outright.
    """
    check_nat("cap", cap)
    for k, a in enumerate(gammas):
        if not isinstance(a, Ordinal):
            raise ValueError(f"entry {k} must be an Ordinal, got {a!r}")
    for a, b in zip(gammas, gammas[1:]):
        if not b < a:
            raise ValueError(f"chain not strictly descending at {a} then {b}")
    preimages = []  # one walk per entry decides membership: its bound exceeds C(a), as in_D's does
    for k, a in enumerate(gammas):
        try:
            preimages.append(L_inverse(a, 2 + k, cap))
        except NotInDError as err:
            raise ValueError(f"entry {k} ({a}) is not in D_{2 + k}: {err.reason}") from None
    if not gammas:
        return DominationReport(True, (), (), ())

    zk: BoundedNat = preimages[0]
    if isinstance(zk, ExceedsCap):
        raise CapExceededError(cap)
    entries: list[tuple[int, int, int]] = []
    skipped: list[int] = []
    violations: list[str] = []
    for k, vk in enumerate(preimages):
        if k and isinstance(zk, Exact):  # z_k by the rule; zero stays zero, and past an overflow z_k is unknown
            zk = next_step(zk.value, k - 1, False, cap)
        if isinstance(vk, ExceedsCap) or isinstance(zk, ExceedsCap):
            skipped.append(k)
            continue
        entries.append((k, vk.value, zk.value))
        if vk.value > zk.value:
            violations.append(f"k={k}: preimage {vk.value} above sequence value {zk.value}")
    return DominationReport(not violations, tuple(entries), tuple(skipped), tuple(violations))


# ---------------------------------------------------------------------------
# JSON form


def _value_json(v: BoundedNat):
    if isinstance(v, Exact):
        return str(v.value)
    return {"exceeds_cap": str(v.cap)}


def trace_to_json(t: Trace) -> dict:
    out = {
        "start": str(t.start),
        "hereditary": t.hereditary,
        "cap": str(t.cap),
        "steps": [
            {
                "k": s.k,
                "base": s.base,
                "value": _value_json(s.value),
                "rep": rep_to_json(s.rep) if s.rep is not None else None,
                "shadow": ordinal_to_json(s.shadow) if s.shadow is not None else None,
                "phase": s.phase.value,
            }
            for s in t.steps
        ],
        "outcome": {"kind": t.outcome.kind, "at": t.outcome.at},
    }
    if t.overflow_desc is not None:
        out["overflow"] = t.overflow_desc
    return out
