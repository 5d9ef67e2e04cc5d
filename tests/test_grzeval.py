"""Core hierarchy evaluator: oracle agreement, cutoff soundness, monotonicity laws."""

import pytest

from naive_eval import naive_iter

from grzseq.grzeval import Exact, ExceedsCap, climb, eval_F, eval_F_iter, exceeds, fold, in_relation_R


# ---------------------------------------------------------------------------
# Independent oracle: the recursion evaluated blindly, usable only on inputs
# tiny enough that nothing explodes.


def naive_F(n, x):
    if n == 0:
        return x + 1
    y = x
    for _ in range(x):
        y = naive_F(n - 1, y)
    return y


def naive_F_iter(n, i, x):
    y = x
    for _ in range(i):
        y = naive_F(n, y)
    return y


TINY = [(n, x) for n in range(4) for x in range(5) if not (n >= 3 and x >= 3)]
CAPS = [0, 1, 2, 3, 5, 17, 100, 2048, 10**6]


@pytest.mark.parametrize("n,x", TINY)
@pytest.mark.parametrize("cap", CAPS)
def test_eval_matches_naive_under_cap(n, x, cap):
    truth = naive_F(n, x)
    got = eval_F(n, x, cap)
    if truth <= cap:
        assert got == Exact(truth)
    else:
        assert got == ExceedsCap(cap)


# The naive oracle runs on unary successor steps, so keep iterate combos small
# enough that the true value stays modest (F_2 twice from 4 is already ~10^21).
ITER_TINY = (
    [(0, i, x) for i in range(5) for x in range(6)]
    + [(1, i, x) for i in range(5) for x in range(6)]
    + [(2, 0, x) for x in range(6)]
    + [(2, 1, x) for x in range(6)]
    + [(2, 2, 0), (2, 2, 1), (2, 2, 2), (3, 1, 2)]
)


@pytest.mark.parametrize("n,i,x", ITER_TINY)
@pytest.mark.parametrize("cap", [0, 7, 100, 10**6])
def test_iter_matches_naive_under_cap(n, i, x, cap):
    truth = naive_F_iter(n, i, x)
    got = eval_F_iter(n, i, x, cap)
    if truth <= cap:
        assert got == Exact(truth)
    else:
        assert got == ExceedsCap(cap)
    # a one-pair fold is the same iterate
    assert fold([(n, i)], x, cap) == (truth if truth <= cap else None)


def test_fold_composes_iterates_and_propagates_none():
    # [(2,1),(0,3)] over 2 is F_0^(3)(F_2(2)) = 11
    truth = naive_F_iter(0, 3, naive_F_iter(2, 1, 2))
    assert fold([(2, 1), (0, 3)], 2, 100) == truth == 11
    assert fold([(2, 1), (0, 3)], 2, 10) is None
    # a None component means "already above cap" and sinks the whole fold
    assert fold([(None, 1), (0, 1)], 2, 100) is None
    assert fold([(1, 1), (0, None)], 2, 100) is None

    def pairs_then_fail():
        yield None, 1
        raise AssertionError("fold read past an over-cap component")

    assert fold(pairs_then_fail(), 2, 100) is None


# ---------------------------------------------------------------------------
# climb: the most iterates, up to a limit, that stay under the cap


def naive_climb(n, x, cap, limit):
    # one naive step at a time while the next iterate fits
    i = 0
    while i < limit and (nxt := naive_iter(n, 1, x, cap)) is not None:
        i, x = i + 1, nxt
    return i, x


@pytest.mark.parametrize("n", range(5))
def test_climb_matches_naive(n):
    for cap in [0, 1, 2, 3, 5, 8, 17, 100, 2048, 10**4]:
        for x in range(min(cap, 40) + 1):
            for limit in range(7):
                assert climb(n, x, cap, limit) == naive_climb(n, x, cap, limit), (n, x, cap, limit)


def test_climb_limit_zero_is_the_argument():
    for n in range(6):
        for cap in (0, 1, 7, 10**30):
            for x in {0, min(1, cap), cap // 2, cap}:
                assert climb(n, x, cap, 0) == (0, x)


def test_climb_from_zero_and_from_the_cap():
    # 0 is a fixed point of F_n for n >= 1, so every iterate fits, however many
    for n in range(1, 6):
        assert climb(n, 0, 0, 10**100) == (10**100, 0)
        assert climb(n, 0, 9, 3) == (3, 0)
    assert climb(0, 0, 9, 10**100) == (9, 9)
    assert climb(0, 0, 9, 4) == (4, 4)
    # F_n(x) > x for x > 0: nothing past x = cap fits
    for n in range(6):
        for cap in (1, 2, 9, 10**30, 2**2048):
            assert climb(n, cap, cap, 5) == (0, cap)


def test_climb_with_huge_limits_stops_at_the_cap():
    assert climb(1, 3, 10**7, 10**9) == (21, 3 << 21)
    assert climb(2, 2, 10**7, 10**100) == (2, 2048)
    # F_3(2) = 2048, and F_3(2048) >= F_2(F_2(2048)) has more than 2^2059 bits
    assert climb(3, 2, 2**3000, 10**100) == (1, 2048)
    assert climb(4, 1, 2**3000, 10**100) == (1, 2)


# ---------------------------------------------------------------------------
# Pinned values.


def test_successor_level():
    assert eval_F(0, 5, 10**6) == Exact(6)


def test_doubling_level():
    # F_1(2) = F_0(F_0(2)) = 4
    assert eval_F(1, 2, 10**6) == Exact(4)


def test_level_two():
    # F_2(3) = F_1^(3)(3) = 24, three doublings
    assert eval_F(2, 3, 10**6) == Exact(24)


def test_level_three_small():
    # F_3(2) = F_2(F_2(2)) = F_2(8) = 8 * 2^8 = 2048
    assert eval_F(3, 2, 10**6) == Exact(2048)


def test_level_three_overflows():
    # F_3(3) >= F_2(F_2(3)) = F_2(24) = 24 * 2^24 > 10^6
    assert eval_F(3, 3, 10**6) == ExceedsCap(10**6)


def test_iterate_zero_is_identity():
    assert eval_F_iter(1, 0, 7, 100) == Exact(7)


def test_iterate_of_successor():
    assert eval_F_iter(0, 3, 4, 100) == Exact(7)


def test_iterate_of_doubling():
    assert eval_F_iter(1, 3, 3, 100) == Exact(24)


def test_exceeds_examples():
    assert exceeds(2, 1, 2, 8) is False  # F_2(2) = 8
    assert exceeds(2, 2, 2, 8) is True  # F_2(8) = 2048
    assert exceeds(0, 0, 5, 5) is False


def test_relation_examples():
    assert in_relation_R(1, 2, 4) is True
    assert in_relation_R(1, 2, 5) is False
    assert in_relation_R(0, 9, 10) is True


def test_huge_iterate_counts_terminate():
    # The iterate count may be astronomical; the evaluator must still answer fast.
    assert eval_F_iter(1, 10**9, 3, 10**7) == ExceedsCap(10**7)
    assert eval_F_iter(2, 10**100, 2, 10**7) == ExceedsCap(10**7)
    assert eval_F_iter(0, 10**9, 3, 10**7) == ExceedsCap(10**7)
    assert eval_F_iter(5, 10**9, 0, 10**7) == Exact(0)


def test_large_n_small_cap():
    assert eval_F(50, 2, 10**9) == ExceedsCap(10**9)
    # F_n(2) >= F_4(2) has more than 2^2059 bits, whatever the cap's size
    assert eval_F(2000, 2, 2**5000) == ExceedsCap(2**5000)
    assert eval_F(1000, 2, 2**3000) == ExceedsCap(2**3000)
    assert eval_F(50, 1, 10**9) == Exact(2)
    assert eval_F(50, 0, 10**9) == Exact(0)


def at_stack_depth(frames, f, *args):
    """f(*args) called from a stack about this many frames deeper."""
    return f(*args) if frames == 0 else at_stack_depth(frames - 1, f, *args)


@pytest.mark.parametrize("frames", [0, 800])
def test_large_levels_answer_without_recursing(frames):
    # F_n(0) = 0 and F_n(1) = 2 at every level, and past F_3 no F_n(2) fits
    # any cap: answered at the level asked, with no climb down the levels
    cap = 2**5000
    for n in (4, 1000, 2000):
        for x, y in ((0, 0), (1, 2), (2, None)):
            want = Exact(y) if y is not None else ExceedsCap(cap)
            assert at_stack_depth(frames, eval_F, n, x, cap) == want, (n, x)
            assert at_stack_depth(frames, eval_F_iter, n, 1, x, cap) == want, (n, x)
            assert at_stack_depth(frames, exceeds, n, 1, x, cap) is (y is None), (n, x)
            assert at_stack_depth(frames, in_relation_R, n, x, cap if y is None else y) is (y is not None), (n, x)


def test_rejects_negative_arguments():
    with pytest.raises(ValueError):
        eval_F(-1, 2, 100)
    with pytest.raises(ValueError):
        eval_F_iter(1, 2, -3, 100)
    with pytest.raises(ValueError):
        exceeds(1, -1, 2, 100)


# ---------------------------------------------------------------------------
# Monotonicity laws on sub-cap grids.

CAP = 10**7


def _exact(b):
    return b.value if isinstance(b, Exact) else None


def test_strictly_above_argument():
    # F_n(x) > x for x > 0
    for n in range(4):
        for x in range(1, 201):
            v = _exact(eval_F(n, x, CAP))
            if v is not None:
                assert v > x


def test_iterates_dominate_argument():
    # F_n^(y)(x) >= x
    for n in range(4):
        for y in range(4):
            for x in range(0, 201, 7):
                v = _exact(eval_F_iter(n, y, x, CAP))
                if v is not None:
                    assert v >= x


def test_strict_monotonicity_in_argument_and_iterate():
    for n in range(4):
        for y in range(4):
            for x in range(1, 120):
                a = _exact(eval_F_iter(n, y, x, CAP))
                b = _exact(eval_F_iter(n, y, x + 1, CAP))
                if a is not None and b is not None:
                    assert a < b
                c = _exact(eval_F_iter(n, y + 1, x, CAP))
                if a is not None and c is not None:
                    assert a < c


def test_strictly_increasing_in_level():
    # F_{n+1}(x) > F_n(x) for x >= 2
    for n in range(3):
        for x in range(2, 201):
            a = _exact(eval_F(n, x, CAP))
            b = _exact(eval_F(n + 1, x, CAP))
            if a is not None and b is not None:
                assert b > a
