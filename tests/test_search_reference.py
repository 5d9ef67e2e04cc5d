"""The greedy tower search that climbs each level once, and the kernel whose
only evaluator of F_n is ``climb``, against the bodies they replaced:
identical pairs from ``encode`` and ``encode_pairs``, identical ``eval_F``,
``eval_F_iter``, ``exceeds`` and ``in_relation_R`` answers."""

import random

import pytest

from grzseq.frep import encode, encode_pairs
from grzseq.grzeval import Exact, ExceedsCap, eval_F, eval_F_iter, exceeds, in_relation_R

# ---------------------------------------------------------------------------
# The replaced bodies: a kernel with its own F_2 loop and its own F_n loop,
# and a search that asks first for the level, then for the count.


def ref_f2(x, cap):
    if x >= cap.bit_length() and x > 0:
        return None
    v = x << x
    return v if v <= cap else None


def ref_eval(n, x, cap):
    if n == 0:
        v = x + 1
        return v if v <= cap else None
    if x == 0:
        return 0
    if x == 1:
        return 2 if cap >= 2 else None
    if n == 1:
        v = 2 * x
        return v if v <= cap else None
    if n == 2:
        return ref_f2(x, cap)
    if ref_f2(x, cap) is None:
        return None
    if n >= 4:
        return None
    return ref_iter(n - 1, x, x, cap)


def ref_iter(n, i, x, cap):
    if x > cap:
        return None
    if n == 0:
        v = x + i
        return v if v <= cap else None
    if n == 1:
        if x == 0:
            return 0
        if i >= cap.bit_length():
            return None
        v = x << i
        return v if v <= cap else None
    if x == 0:
        return 0
    y = x
    if n == 2:
        bits = cap.bit_length()
        for _ in range(i):
            if y >= bits:
                return None
            y <<= y
        return y if y <= cap else None
    while i > 0:
        y = ref_eval(n, y, cap)
        if y is None:
            return None
        i -= 1
    return y


def ref_step(x, base):
    if x < 2 * base:
        return 0, x - base, x
    if base >= x.bit_length() or x < base << base:
        i = (x // base).bit_length() - 1
        return 1, i, base << i
    e = 2
    while ref_iter(e + 1, 1, base, x) is not None:
        e += 1
    i, y = 0, base
    while (nxt := ref_iter(e, 1, y, x)) is not None:
        i, y = i + 1, nxt
    return e, i, y


def ref_pairs(x, k):
    if x == k:
        return ((0, 0),)
    pairs = []
    base = k
    while x > base:
        e, i, base = ref_step(x, base)
        pairs.append((e, i))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# The search


def pair_mismatches(k, xs):
    """The x whose encode_pairs differ from the replaced search's (collected,
    not asserted one by one: the loop is hot)."""
    return [x for x in xs if encode_pairs(x, k) != ref_pairs(x, k)]


@pytest.mark.parametrize("k", range(2, 7))
def test_pairs_match_the_two_loop_search(k):
    assert pair_mismatches(k, range(k, 20_001)) == []
    assert pair_mismatches(k, range(20_001, 100_001, 7)) == []


@pytest.mark.parametrize("k", range(2, 9))
def test_pairs_of_long_values_match_the_two_loop_search(k):
    rng = random.Random(14 * k)
    xs = [rng.randrange(10 ** (d - 1), 10**d) for d in range(30, 301, 9)]
    assert pair_mismatches(k, xs) == []
    for x in xs[::4]:
        assert encode(x, k).pairs == ref_pairs(x, k)


def test_encode_matches_the_two_loop_search():
    for k in range(2, 7):
        for x in range(k, 3000, 3):
            assert encode(x, k).pairs == ref_pairs(x, k), (x, k)


THRESHOLD_LIMIT = 10**300


def iterates(k):
    """Every F_e^(i)(k) up to THRESHOLD_LIMIT for e = 1..3: the bases the
    search can stand on after a run of pairs of one exponent."""
    found = set()
    for e in (1, 2, 3):
        y = k
        while True:
            found.add(y)
            v = eval_F(e, y, THRESHOLD_LIMIT)
            if not isinstance(v, Exact):
                break
            y = v.value
    return found


def threshold_values(k):
    """Where the search's branches meet, from base k and from each iterate b
    of k: b, x = 2b, x = b << b, and the first and last x with bitlen(x) = b,
    each with its neighbours on both sides."""
    xs = set()
    for b in iterates(k):
        marks = [b, 2 * b]
        if b <= 1000:  # b << b and 2^b stay near THRESHOLD_LIMIT
            marks += [b << b, 1 << (b - 1), (1 << b) - 1]
        xs.update(mark + d for mark in marks for d in (-1, 0, 1))
    return sorted(x for x in xs if x >= k)


@pytest.mark.parametrize("k", range(2, 41))
def test_pairs_at_the_branch_thresholds_match_the_two_loop_search(k):
    xs = threshold_values(k)
    assert {2 * k, k << k, 1 << (k - 1), (1 << k) - 1} <= set(xs)
    assert pair_mismatches(k, xs) == []


# ---------------------------------------------------------------------------
# The kernel

CAPS = [0, 1, 2, 5, 10**7, 10**30, 10**300, 2**2048, 2**5000]


def bounded(v, cap):
    return Exact(v) if v is not None else ExceedsCap(cap)


@pytest.mark.parametrize("n", range(6))
def test_kernel_matches_the_loop_per_level_kernel(n):
    for cap in CAPS:
        for x in range(40):
            assert eval_F(n, x, cap) == bounded(ref_eval(n, x, cap), cap), (n, x, cap)
            for i in range(6):
                want = ref_iter(n, i, x, cap)
                assert eval_F_iter(n, i, x, cap) == bounded(want, cap), (n, i, x, cap)
                assert exceeds(n, i, x, cap) == (want is None), (n, i, x, cap)


@pytest.mark.parametrize("n", range(6))
def test_relation_matches_the_loop_per_level_kernel(n):
    # each cap as y, and each value the replaced kernel found under a cap
    for cap in CAPS:
        for x in range(40):
            v = ref_eval(n, x, cap)
            assert in_relation_R(n, x, cap) == (v == cap), (n, x, cap)
            if v is not None:
                assert in_relation_R(n, x, v), (n, x, v)
