"""The rank window g_window against one g call per rank and against the body
g had before it became the window's one-element case: equal keys, equal
text, the same messages for bad arguments, and one shared exponent object
for the ranks below the base."""

import pytest

from grzseq.correspond import flip, g, g_window, profile
from grzseq.grzeval import eval_F, exceeds
from grzseq.ordinals import ZERO, Ordinal, from_int, omega_pow, print_ordinal


def ref_g(n, k, x):
    """g's body before the window: one rank, every argument checked."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"base must be an integer >= 2, got {k!r}")
    if (not isinstance(n, int) or isinstance(n, bool) or n < 0
            or not isinstance(x, int) or isinstance(x, bool) or x < 0):
        raise ValueError("slot count and value must be non-negative integers")
    if n == 0:
        return from_int(max(0, (k + 1) - x))
    if x < k:
        return omega_pow(from_int(n), k - x)
    if not exceeds(n, 1, k, x):
        return ZERO
    fl = flip(profile(x, n, k))
    return Ordinal(tuple((from_int(n - q), fl[q - 1]) for q in range(1, n + 1)))


def windows(n, k):
    """(x, count) pairs covering x < k, k <= x < F_n(k), x >= F_n(k) where
    F_n(k) is small enough to reach, windows that straddle the borders, and
    empty windows."""
    out = [(0, k), (0, k + 6), (k - 1, 3), (k, 5), (0, 0), (k, 0), (k + 3, 0)]
    top = eval_F(n, k, 10**4)
    if hasattr(top, "value"):
        f = top.value
        out += [(max(0, f - 4), 8), (f, 3), (f + 5, 2), (f - 1, 1), (f, 0)]
    return out


@pytest.mark.parametrize("n", range(4))
def test_window_matches_one_g_call_per_rank(n):
    for k in range(2, 10):
        for x, count in windows(n, k):
            got = g_window(n, k, x, count)
            want = [g(n, k, y) for y in range(x, x + count)]
            ref = [ref_g(n, k, y) for y in range(x, x + count)]
            assert len(got) == count, (n, k, x, count)
            assert [a.key for a in got] == [a.key for a in want] == [a.key for a in ref], (n, k, x, count)
            assert [print_ordinal(a) for a in got] == [print_ordinal(a) for a in ref], (n, k, x, count)


def test_window_reaches_zero_past_the_hierarchy_value():
    # F_1(3) = 6 and F_2(2) = 8: the ranks from there on are ZERO itself
    assert g_window(1, 3, 4, 5) == [ref_g(1, 3, 4), ref_g(1, 3, 5), ZERO, ZERO, ZERO]
    assert all(r is ZERO for r in g_window(2, 2, 8, 4))
    assert g_window(0, 4, 3, 4) == [from_int(2), from_int(1), ZERO, ZERO]


def test_window_ranks_below_the_base_share_their_exponent():
    below = g_window(3, 7, 0, 7)  # x < k: w^3 * (k - x)
    assert len({id(r.terms[0][0]) for r in below}) == 1
    assert [r.terms[0][1] for r in below] == [7, 6, 5, 4, 3, 2, 1]
    assert [r.key for r in g_window(2, 5, 3, 8)] == [ref_g(2, 5, x).key for x in range(3, 11)]


BAD = [True, False, -1, 1.0, 2.5, "3", None]


@pytest.mark.parametrize("bad", BAD)
def test_window_rejects_what_g_rejects(bad):
    cases = [
        ((bad, 3, 1, 2), (bad, 3, 1)),  # n
        ((2, bad, 1, 2), (2, bad, 1)),  # k
        ((2, 3, bad, 2), (2, 3, bad)),  # x
    ]
    for window_args, g_args in cases:
        with pytest.raises(ValueError) as want:
            ref_g(*g_args)
        for fn, args in ((g_window, window_args), (g, g_args)):
            with pytest.raises(ValueError) as err:
                fn(*args)
            assert str(err.value) == str(want.value), (fn.__name__, args)
    with pytest.raises(ValueError, match="slot count and value must be non-negative integers"):
        g_window(2, 3, 1, bad)
