"""The hereditary codec that shares sub-values within a call, and the kernel
that iterates F_2 in one loop, against the bodies they replaced: equal trees
with identical text and JSON, identical shift answers, and fold answers that
match a budgeted naive evaluator.  The shifts also stay lazy: a count past
the cap is never encoded."""

import json
import random

import pytest

from naive_eval import naive_iter

from grzseq import frep
from grzseq.frep import TRep, encode, encode_pairs, print_rep, rep_to_json, shift_total_value, shift_value, to_total
from grzseq.grzeval import Exact, ExceedsCap, eval_F, eval_F_iter, fold


# ---------------------------------------------------------------------------
# The replaced bodies


def ref_fold(pairs, base, cap):
    """One eval_F_iter per pair, but F_2 one eval_F at a time, as _iter
    iterated it."""
    y = base
    for e, c in pairs:
        if e is None or c is None:
            return None
        if e == 2:
            v = Exact(y) if y <= cap else ExceedsCap(cap)
            for _ in range(c):
                if isinstance(v, ExceedsCap):
                    break
                v = eval_F(2, v.value, cap)
        else:
            v = eval_F_iter(e, c, y, cap)
        if not isinstance(v, Exact):
            return None
        y = v.value
    return y


def ref_to_total(x, k):
    """One encode per occurrence of a sub-value, nothing shared."""
    if x < k:
        return TRep(k, x)
    return TRep(k, tuple((ref_to_total(e, k), ref_to_total(c, k)) for e, c in encode(x, k).pairs))


def ref_shift_component(v, k, m, cap, hereditary):
    if v < k:
        return v
    return ref_fold(ref_shifted_pairs(v, k, m, cap, hereditary), m, cap)


def ref_shifted_pairs(v, k, m, cap, hereditary):
    for e, c in encode(v, k).pairs:
        e2 = ref_shift_component(e, k, m, cap, hereditary)
        if hereditary and e2 is not None:
            c = ref_shift_component(c, k, m, cap, hereditary)
        yield e2, c


def ref_shift(x, k, m, cap, hereditary):
    v = ref_shift_component(x, k, m, cap, hereditary)
    return Exact(v) if v is not None else ExceedsCap(cap)


# ---------------------------------------------------------------------------
# to_total

BASES = range(2, 7)


def bigints(digits=(30, 60, 100, 200), each=2):
    rng = random.Random(9)
    return [rng.randrange(10 ** (d - 1), 10**d) for d in digits for _ in range(each)]


# 200 values from the upper part of the acceptance range, where the
# benchmark's codec windows sit
SWEEP_RANGE = random.Random(25).sample(range(20_000, 100_001), 200)


def same_tree(a, b):
    """a == b without recursion: a tree is about half as deep as its value
    has bits, and == recurses several frames per level."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b) or a.base != b.base or a.is_atom != b.is_atom:
            return False
        if a.is_atom:
            if a.body != b.body:
                return False
        elif len(a.pairs) != len(b.pairs):
            return False
        else:
            stack += [(u, v) for p, q in zip(a.pairs, b.pairs) for u, v in zip(p, q)]
    return True


@pytest.mark.parametrize("k", BASES)
def test_to_total_matches_reference(k):
    # the recursive reference reaches 200 digits, == and rep_to_json 100
    for x in [*range(0, 200), *SWEEP_RANGE, *bigints()]:
        t, want = to_total(x, k), ref_to_total(x, k)
        assert same_tree(t, want), (x, k)
        assert print_rep(t) == print_rep(want)
        if x < 10**100:
            assert t == want
            assert json.dumps(rep_to_json(t)) == json.dumps(rep_to_json(want))


def test_to_total_shares_equal_sub_trees():
    # within one tree, sub-trees that print alike are one object
    t = to_total(10**30, 2)
    seen = {}
    stack = [t]
    while stack:
        node = stack.pop()
        assert seen.setdefault(print_rep(node), node) is node
        if not node.is_atom:
            stack.extend(v for pair in node.pairs for v in pair)
    assert len(seen) > 1
    # and nothing is shared between calls
    assert to_total(10**30, 2).pairs[0][0] is not t.pairs[0][0]


# ---------------------------------------------------------------------------
# shift_value, shift_total_value

SHIFT_CAPS = [10**7, 10**30, 2**2048]


@pytest.mark.parametrize("cap", SHIFT_CAPS, ids=["1e7", "1e30", "2^2048"])
@pytest.mark.parametrize("k", range(2, 7))
def test_shift_matches_reference(k, cap):
    # the recursive reference reaches 100 digits
    for x in [*range(0, 300), *SWEEP_RANGE, *bigints((30, 60, 100))]:
        for shift, hereditary in ((shift_value, False), (shift_total_value, True)):
            assert shift(x, k, k + 1, cap) == ref_shift(x, k, k + 1, cap, hereditary), (x, k, hereditary)


def encoded_by(monkeypatch, call):
    """The values whose pairs frep's search was asked for while call ran."""
    encoded, search = [], frep._pairs
    monkeypatch.setattr(frep, "_pairs", lambda v, k: encoded.append(v) or search(v, k))
    call()
    monkeypatch.setattr(frep, "_pairs", search)
    return encoded


def test_shift_encodes_no_count_past_the_cap(monkeypatch):
    # 50000 = [(3,1),(1,4),(0,17232)]_2.  At base 3 its first pair reads
    # F_4(3), past the cap, so fold stops there and the count 17232 is
    # never encoded, by either shift
    assert encode_pairs(50000, 2) == ((3, 1), (1, 4), (0, 17232))
    for shift in shift_value, shift_total_value:
        out = []
        encoded = encoded_by(monkeypatch, lambda: out.append(shift(50000, 2, 3, 10**7)))
        assert out == [ExceedsCap(10**7)]
        assert 50000 in encoded and 17232 not in encoded, (shift, encoded)
    # under the cap the hereditary shift encodes the count, the plain one not
    assert encode_pairs(20000, 3) == ((2, 1), (1, 9), (0, 7712))
    assert 7712 in encoded_by(monkeypatch, lambda: shift_total_value(20000, 3, 4, 10**7))
    assert 7712 not in encoded_by(monkeypatch, lambda: shift_value(20000, 3, 4, 10**7))


# ---------------------------------------------------------------------------
# fold

BUDGET = 2**2048
GRID = [(e, c, y) for e in range(4) for c in range(7) for y in range(41)]


def caps_for(value):
    # the exact value, one below it and 0; past the budget, the budget and 0
    return [0, BUDGET] if value is None else sorted({0, max(value - 1, 0), value})


@pytest.mark.parametrize("e", range(4))
def test_fold_one_pair_matches_naive(e):
    for _, c, y in (g for g in GRID if g[0] == e):
        truth = naive_iter(e, c, y, BUDGET)
        for cap in caps_for(truth):
            want = truth if truth is not None and truth <= cap else None
            assert fold(((e, c),), y, cap) == ref_fold(((e, c),), y, cap) == want, (e, c, y, cap)


def test_fold_two_pairs_matches_naive():
    # each step hands its value on: every pair of small pairs over y in 0..3
    small = [(e, c) for e in range(4) for c in range(4)]
    for y in range(4):
        for p1 in small:
            for p2 in small:
                mid = naive_iter(*p1, y, BUDGET)
                truth = None if mid is None else naive_iter(*p2, mid, BUDGET)
                for cap in caps_for(truth):
                    want = truth if truth is not None and truth <= cap else None
                    assert fold((p1, p2), y, cap) == ref_fold((p1, p2), y, cap) == want, (p1, p2, y, cap)


@pytest.mark.parametrize("y", [0, 1])
def test_fold_at_zero_and_one(y):
    # 0 is a fixed point of F_e for e >= 1, and F_e(1) = 2 for e >= 1
    for e in range(6):
        for c in range(7):
            for cap in (0, 1, 2, 3, 10**7):
                assert fold(((e, c),), y, cap) == ref_fold(((e, c),), y, cap), (e, c, y, cap)


def test_fold_base_above_cap():
    # a base already above cap sinks every pair, a zero count included
    for e in range(5):
        for c in range(3):
            assert fold(((e, c),), 9, 8) is None and ref_fold(((e, c),), 9, 8) is None
