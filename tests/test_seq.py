"""Sequence engine: hand-derived trails, shadow verification, domination."""

import pytest

from grzseq import correspond
from grzseq.correspond import in_D, o_map
from grzseq.frep import rep_from_json
from grzseq.grzeval import CapExceededError, Exact, ExceedsCap
from grzseq.ordinals import ONE, ZERO, OMEGA, from_int, omega_pow, omega_tower, ordinal_from_json, parse_ordinal
from grzseq.seq import (
    CheckReport,
    Phase,
    Trace,
    TraceStep,
    dominate_check,
    next_step,
    run,
    shadow_check,
    trace_to_json,
)

CAP = 10**7


def test_next_step_examples():
    assert next_step(3, 0, False, CAP) == Exact(3)  # [(0,1)]_2 -> [(0,1)]_3 = 4, -1
    assert next_step(1, 5, False, CAP) == Exact(0)
    assert next_step(8, 0, False, CAP) == ExceedsCap(CAP)  # 8[2:=3] = F_3(3)
    assert next_step(0, 3, False, CAP) == Exact(0)


@pytest.mark.parametrize("z", [True, False])
def test_run_rejects_a_bool_seed(z):
    with pytest.raises(ValueError) as err:
        run(z)
    assert str(err.value) == f"seed must be a non-negative integer, got {z}"


@pytest.mark.parametrize("bad", ["x", True, -1, 2.5])
@pytest.mark.parametrize("z", [1, 5])
def test_run_checks_cap_and_max_steps_up_front(z, bad):
    # seed 1 counts down without a shift, so only an up-front check sees them
    for name in ("cap", "max_steps"):
        with pytest.raises(ValueError) as err:
            run(z, **{name: bad})
        assert str(err.value).startswith(f"{name} must be a non-negative integer, got ")


@pytest.mark.parametrize("v,k", [(True, 0), (False, 0), (3, True), (3, False)])
def test_next_step_rejects_bools(v, k):
    with pytest.raises(ValueError) as err:
        next_step(v, k, False, 9)
    assert str(err.value) == "value and step index must be non-negative integers"


def test_run_zero_seed():
    t = run(0)
    assert t.outcome.kind == "terminated" and t.outcome.at == 0
    assert t.exact_values() == [0]


def test_run_three():
    t = run(3, cap=CAP, max_steps=100, with_shadow=True)
    assert t.exact_values() == [3, 3, 3, 2, 1, 0]
    assert t.outcome.kind == "terminated" and t.outcome.at == 5


def test_run_four():
    t = run(4, cap=CAP, max_steps=100, with_shadow=True)
    assert t.exact_values() == [4, 5, 5, 5, 5, 4, 3, 2, 1, 0]
    assert t.outcome.kind == "terminated" and t.outcome.at == 9


# Hand-derived termination indices for every seed that stays under the cap.
PLAIN_LENGTHS = {0: 0, 1: 1, 2: 3, 3: 5, 4: 9, 5: 13, 6: 17, 7: 21}
HEREDITARY_LENGTHS = {0: 0, 1: 1, 2: 3, 3: 5, 4: 9, 5: 13, 6: 21, 7: 29}


@pytest.mark.parametrize("z,expect", sorted(PLAIN_LENGTHS.items()))
def test_plain_termination_lengths(z, expect):
    t = run(z, cap=CAP, max_steps=200)
    assert t.outcome.kind == "terminated"
    assert t.outcome.at == expect


@pytest.mark.parametrize("z,expect", sorted(HEREDITARY_LENGTHS.items()))
def test_hereditary_termination_lengths(z, expect):
    t = run(z, hereditary=True, cap=CAP, max_steps=200)
    assert t.outcome.kind == "terminated"
    assert t.outcome.at == expect


def test_hereditary_value_dominates_plain():
    for z in range(8):
        plain = run(z, cap=CAP, max_steps=200).exact_values()
        total = run(z, hereditary=True, cap=CAP, max_steps=200).exact_values()
        for zv, wv in zip(plain, total):
            assert wv >= zv


def test_seed_eight_overflows():
    t = run(8, cap=CAP, max_steps=100)
    assert t.outcome.kind == "overflowed_cap" and t.outcome.at == 1
    assert t.steps[-1].phase == Phase.OVERFLOW
    assert t.overflow_desc == f"[(2,1)]_2[2:=3] - 1 > {CAP}"


def test_overflow_honesty():
    # a larger cap must reproduce the shared prefix exactly and only ever
    # push the overflow later
    for z in (8, 9, 10, 11):
        small = run(z, cap=10**6, max_steps=100)
        large = run(z, cap=10**7, max_steps=100)
        ns = [s for s in small.steps if isinstance(s.value, Exact)]
        nl = [s for s in large.steps if isinstance(s.value, Exact)]
        shared = min(len(ns), len(nl))
        assert [s.value for s in ns[:shared]] == [s.value for s in nl[:shared]]
        if small.outcome.kind == "overflowed_cap" and large.outcome.kind == "overflowed_cap":
            assert large.outcome.at >= small.outcome.at


def test_step_limit():
    t = run(7, cap=CAP, max_steps=3)
    assert t.outcome.kind == "step_limit"
    assert len(t.steps) == 4


# ---------------------------------------------------------------------------
# Shadows


def test_shadow_values_along_run_four():
    t = run(4, cap=CAP, max_steps=100, with_shadow=True)
    shadows = [s.shadow for s in t.steps if s.phase == Phase.REPRESENTATION]
    assert shadows == [OMEGA, from_int(2), from_int(1), ZERO]


def test_shadow_check_passes_on_terminating_traces():
    for z in range(8):
        t = run(z, cap=CAP, max_steps=200, with_shadow=True)
        report = shadow_check(t)
        assert report.ok, (z, report.violations)


def test_shadow_check_vacuous_on_trivial_trace():
    report = shadow_check(run(2, cap=CAP, max_steps=100, with_shadow=True))
    assert report.ok and report.checked == 0


def test_shadow_check_detects_corruption():
    t = run(4, cap=CAP, max_steps=100, with_shadow=True)
    steps = list(t.steps)
    target = steps[2]
    assert target.phase == Phase.REPRESENTATION and target.value == Exact(5)
    bumped = 6
    steps[2] = TraceStep(
        target.k,
        target.base,
        Exact(bumped),
        target.rep,
        o_map(bumped, target.base),
        Phase.REPRESENTATION,
    )
    corrupted = Trace(t.start, t.hereditary, t.cap, tuple(steps), t.outcome)
    report = shadow_check(corrupted)
    assert not report.ok
    assert any("descend" in v for v in report.violations)


def test_shadow_check_on_a_trace_without_shadows_checks_nothing():
    assert shadow_check(run(4, cap=CAP, max_steps=100)) == CheckReport(True, 0, 0, ())


def test_shadow_check_reports_a_shadow_outside_d():
    t = run(4, cap=CAP, max_steps=100, with_shadow=True)
    step = t.steps[1]
    assert step.base == 3 and step.phase == Phase.REPRESENTATION
    # w^5 is no member of D_3: its exponent 5 is not below the base
    alien = TraceStep(step.k, step.base, step.value, step.rep, omega_pow(from_int(5)), step.phase)
    report = shadow_check(Trace(t.start, t.hereditary, t.cap, (alien,), t.outcome))
    assert report == CheckReport(False, 0, 0, ("k=1: shadow w^(5)*1 not in D_3",))


def test_shadow_check_reports_a_shadow_outside_d_that_a_later_step_follows():
    # the pair after the alien shadow would ask for its predecessor in D_4,
    # where it is no member either: the membership violation stands for it
    t = run(4, cap=CAP, max_steps=100, with_shadow=True)
    steps = list(t.steps)
    step = steps[1]
    steps[1] = TraceStep(step.k, step.base, step.value, step.rep, omega_pow(from_int(5)), step.phase)
    report = shadow_check(Trace(t.start, t.hereditary, t.cap, tuple(steps), t.outcome))
    assert report == CheckReport(False, 3, 0, (
        "k=1: shadow w^(5)*1 not in D_3",
        "k=0->1: shadow did not descend (w^(1)*1 then w^(5)*1)",
        "k=1: shadow w^(5)*1 differs from the D_3 predecessor 2",
    ))


def test_shadow_check_reports_a_zero_shadow_that_a_later_step_follows():
    # zero has no predecessor in D_4, so the pair after it reports the failed
    # descent and asks nothing more
    t = run(4, cap=CAP, max_steps=100, with_shadow=True)
    steps = list(t.steps)
    step = steps[1]
    steps[1] = TraceStep(step.k, step.base, step.value, step.rep, ZERO, step.phase)
    report = shadow_check(Trace(t.start, t.hereditary, t.cap, tuple(steps), t.outcome))
    assert report == CheckReport(False, 3, 0, (
        "k=1: shadow 0 differs from the D_3 predecessor 2",
        "k=1->2: shadow did not descend (0 then 1)",
    ))


def test_shadow_check_skips_a_pair_whose_preimage_passes_the_cap():
    t = run(4, cap=CAP, max_steps=100, with_shadow=True)
    assert shadow_check(t) == CheckReport(True, 3, 0, ())
    assert shadow_check(Trace(t.start, t.hereditary, 2, t.steps, t.outcome)) == CheckReport(True, 3, 3, ())


def test_hereditary_shadows_break_the_plain_descent():
    # the plain-sequence shadow argument does not transfer to the hereditary
    # rule: the recorded shadows fail to descend
    t = run(7, hereditary=True, cap=CAP, max_steps=200, with_shadow=True)
    assert t.outcome.kind == "terminated"
    assert not shadow_check(t).ok


# ---------------------------------------------------------------------------
# Domination


def test_dominate_two_entry_chain():
    report = dominate_check([from_int(1), ZERO], cap=CAP)
    assert report.ok
    assert report.entries == ((0, 3, 3), (1, 3, 3))


def test_dominate_omega_chain():
    report = dominate_check([OMEGA, from_int(1), ZERO], cap=CAP)
    assert report.ok
    assert report.entries[0] == (0, 4, 4)


def test_dominate_long_chain():
    gammas = [
        parse_ordinal("w+3"),
        parse_ordinal("w+2"),
        parse_ordinal("w+1"),
        OMEGA,
        from_int(4),
        from_int(3),
        from_int(2),
        from_int(1),
        ZERO,
    ]
    report = dominate_check(gammas, cap=CAP)
    assert report.ok and len(report.entries) == 9 and not report.skipped


def test_dominate_empty_is_vacuous():
    report = dominate_check([], cap=CAP)
    assert report.ok and report.entries == ()


def test_dominate_skips_past_overflow():
    # the sequence from 8 overflows at step 1: only index 0 is comparable,
    # later indices must be skipped rather than treated as zero
    gammas = [parse_ordinal("w^w"), parse_ordinal("w*2"), OMEGA]
    report = dominate_check(gammas, cap=CAP)
    assert report.ok
    assert report.entries == ((0, 8, 8),)
    assert report.skipped == (1, 2)


def test_dominate_rejects_non_member():
    with pytest.raises(ValueError, match="not in D_2"):
        dominate_check([omega_pow(from_int(2)), from_int(1), ZERO], cap=CAP)


def test_dominate_rejects_non_descending():
    with pytest.raises(ValueError, match="descending"):
        dominate_check([from_int(1), from_int(1)], cap=CAP)


DOMINATED = [  # chain, its report
    ([from_int(1), ZERO], ((0, 3, 3), (1, 3, 3)), ()),
    ([OMEGA, from_int(1), ZERO], ((0, 4, 4), (1, 4, 5), (2, 4, 5)), ()),
    ([parse_ordinal(t) for t in ("w+3", "w+2", "w+1", "w")] + list(map(from_int, (4, 3, 2, 1, 0))),
     ((0, 7, 7), (1, 8, 8), (2, 9, 9), (3, 10, 10), (4, 10, 11), (5, 10, 11), (6, 10, 11), (7, 10, 11),
      (8, 10, 11)), ()),
    ([parse_ordinal("w^w"), parse_ordinal("w*2"), OMEGA], ((0, 8, 8),), (1, 2)),
]


@pytest.mark.parametrize("gammas,entries,skipped", DOMINATED)
def test_dominate_walks_each_entry_once(monkeypatch, gammas, entries, skipped):
    # one walk per entry decides its membership and gives its preimage; the
    # version with a separate in_D pass walked 2n + 1 - (zero entries) times
    walks = []
    walk = correspond._skeleton
    monkeypatch.setattr(correspond, "_skeleton", lambda *args: walks.append(args[1]) or walk(*args))
    report = dominate_check(gammas, cap=CAP)
    assert walks == list(range(2, 2 + len(gammas)))
    assert (report.ok, report.entries, report.skipped, report.violations) == (True, entries, skipped, ())


@pytest.mark.parametrize("gammas,message", [
    ([omega_pow(from_int(2)), from_int(1), ZERO],
     "entry 0 (w^(2)*1) is not in D_2: finite exponent 2 not below base 2"),
    ([omega_pow(ONE, 2), ZERO], "entry 0 (w^(1)*2) is not in D_2: count 2 at position 1 not below intermediate base 2"),
    ([omega_tower(3), parse_ordinal("w^(w+5)")],
     "entry 1 (w^(w^(1)*1+5)*1) is not in D_3: count 5 at position 1 not below intermediate base 3"),
    ([parse_ordinal("w^(w^w*2)"), ZERO],
     "entry 0 (w^(w^(w^(1)*1)*2)*1) is not in D_2: count 2 at position 1 not below intermediate base 2"),
])
def test_dominate_names_the_first_non_member_with_in_D_s_reason(gammas, message):
    k = int(message.split()[1])
    assert in_D(gammas[k], 2 + k).reason == message.split(": ", 1)[1]
    with pytest.raises(ValueError) as err:
        dominate_check(gammas, cap=CAP)
    assert type(err.value) is ValueError and str(err.value) == message


def test_dominate_refuses_a_first_preimage_above_the_cap():
    with pytest.raises(CapExceededError):
        dominate_check([omega_tower(4), OMEGA], cap=CAP)


# ---------------------------------------------------------------------------
# JSON form


def test_trace_json_roundtrips_through_module_parsers():
    t = run(4, cap=CAP, max_steps=100, with_shadow=True)
    obj = trace_to_json(t)
    assert obj["start"] == "4" and obj["outcome"] == {"kind": "terminated", "at": 9}
    for step, orig in zip(obj["steps"], t.steps):
        if orig.rep is not None:
            assert rep_from_json(step["rep"]) == orig.rep
        if orig.shadow is not None:
            assert ordinal_from_json(step["shadow"]) == orig.shadow
        if isinstance(orig.value, Exact):
            assert int(step["value"]) == orig.value.value


def test_trace_json_overflow_marker():
    t = run(8, cap=CAP, max_steps=10)
    obj = trace_to_json(t)
    assert obj["steps"][-1]["value"] == {"exceeds_cap": str(CAP)}
    assert obj["overflow"].startswith("[(2,1)]_2")
