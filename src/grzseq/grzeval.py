"""Cutoff-aware evaluation of the fast-growing hierarchy F_n.

The hierarchy is F_0(x) = x + 1 and F_{n+1}(x) = the x-th iterate of F_n
applied to x.  Already F_3(3) has hundreds of millions of digits, so no
evaluator here ever computes a value blindly: every operation takes a cap
and answers either the exact value (when it is <= cap) or the fact that
the value provably exceeds the cap.

The short-circuits below lean on the basic monotonicity laws of the
hierarchy (F_n(x) > x for x > 0, iterates are non-decreasing, F_n(x) is
strictly increasing in n for x >= 2), so "exceeds" answers are always
sound, and the cost of a call is bounded by the number of intermediate
values that fit under the cap, never by the size of the true value.
"""

from __future__ import annotations

from collections.abc import Iterable

from .order import Record, check_nat


class Exact(Record):
    """A value that fit under the cap in force."""

    __slots__ = _fields = ("value",)


class ExceedsCap(Record):
    """Marker for a value provably greater than ``cap``."""

    __slots__ = _fields = ("cap",)


BoundedNat = Exact | ExceedsCap

# the cap of every library default and of the CLI, unless GRZ_CAP or --cap says otherwise
DEFAULT_CAP = 10**7
# the step limit of seq.run's default and of the CLI, unless --max-steps says otherwise
DEFAULT_MAX_STEPS = 10**4


class CapExceededError(ArithmeticError):
    """Raised where an operation needs an exact value but only a cap overflow exists."""

    def __init__(self, cap: int):
        super().__init__(f"required value exceeds cap {cap}")
        self.cap = cap


def climb(n: int, x: int, cap: int, limit: int) -> tuple[int, int]:
    """(i, F_n^(i)(x)) for the largest i <= limit with F_n^(i)(x) <= cap.

    Requires 0 <= x <= cap and checks nothing, like ``fold``.  This is the
    kernel's only evaluator of F_n: ``eval_F_iter`` and so ``eval_F``,
    ``in_relation_R``, ``fold``, ``exceeds`` and the codec's greedy tower
    search all climb through it, and a step of F_3 is a climb of F_2.
    """
    if n == 0:
        y = x + limit
        return (limit, y) if y <= cap else (cap - x, cap)
    if x == 0:
        return limit, 0  # 0 is a fixed point of F_n for n >= 1
    if n == 1:
        # F_1 doubles, so the i-th iterate is x * 2^i: it fits for every i
        # that leaves it shorter than cap, and may for one more
        i = cap.bit_length() - x.bit_length()
        if limit < i:
            return limit, x << limit
        y = x << i
        return (i, y) if y <= cap else (i - 1, y >> 1)
    i = 0
    if n == 2:
        # F_2(x) = x * 2^x >= 2^x > cap once x >= bitlen(cap)
        bits = cap.bit_length()
        while i < limit and x < bits and (y := x << x) <= cap:
            i, x = i + 1, y
        return i, x
    if n >= 4:
        # F_n(1) = 2, and for x >= 2, F_n(x) >= F_4(2) = F_3(2048) >=
        # F_2(F_2(2048)), which has more than 2^2059 bits, so it exceeds every
        # cap that fits in memory.  No large n recurses.
        return (1, 2) if x == 1 and limit and cap >= 2 else (0, x)
    # n == 3 here.  F_n(x) = F_{n-1}^(x)(x), so one step is a climb of x
    # iterates a level down
    while i < limit:
        j, y = climb(n - 1, x, cap, x)
        if j < x:
            break
        i, x = i + 1, y
    return i, x


def fold(pairs: Iterable[tuple[int | None, int | None]], base: int, cap: int) -> int | None:
    """F_{e_l}^(c_l)( ... F_{e_1}^(c_1)(base) ... ) for pairs (e_1,c_1),...,(e_l,c_l),
    or None when the value exceeds cap.

    A None exponent or count stands for a component already above cap and
    makes the whole fold None.  Pairs are consumed lazily: nothing after the
    first over-cap component is read.
    """
    y = base
    for e, c in pairs:
        if e is None or c is None or y > cap:
            return None
        i, y = climb(e, y, cap, c)
        if i < c:
            return None
    return y


def eval_F(n: int, x: int, cap: int) -> BoundedNat:
    """Evaluate F_n(x) under a cap: the one-iterate case of ``eval_F_iter``.

    Returns Exact(F_n(x)) when F_n(x) <= cap, ExceedsCap(cap) otherwise.
    """
    return eval_F_iter(n, 1, x, cap)


def eval_F_iter(n: int, i: int, x: int, cap: int) -> BoundedNat:
    """Evaluate the i-th iterate F_n^(i)(x) under a cap."""
    check_nat("n", n)
    check_nat("i", i)
    check_nat("x", x)
    check_nat("cap", cap)
    if x <= cap:
        j, v = climb(n, x, cap, i)
        if j == i:
            return Exact(v)
    return ExceedsCap(cap)


def exceeds(n: int, i: int, x: int, bound: int) -> bool:
    """True iff F_n^(i)(x) > bound.  Cheap: never materializes the value."""
    check_nat("n", n)
    check_nat("i", i)
    check_nat("x", x)
    check_nat("bound", bound)
    return x > bound or climb(n, x, bound, i)[0] < i


def in_relation_R(n: int, x: int, y: int) -> bool:
    """True iff F_n(x) = y (the graph of the hierarchy as a ternary relation)."""
    check_nat("n", n)
    check_nat("x", x)
    check_nat("y", y)
    return x <= y and climb(n, x, y, 1) == (1, y)
