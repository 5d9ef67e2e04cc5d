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

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Exact:
    """A value that fit under the cap in force."""

    value: int


@dataclass(frozen=True)
class ExceedsCap:
    """Marker for a value provably greater than ``cap``."""

    cap: int


BoundedNat = Exact | ExceedsCap


class CapExceededError(ArithmeticError):
    """Raised where an operation needs an exact value but only a cap overflow exists."""

    def __init__(self, cap: int):
        super().__init__(f"required value exceeds cap {cap}")
        self.cap = cap


def _check_nat(name: str, v: int) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {v!r}")


def _f2(x: int, cap: int) -> int | None:
    # F_2(x) = x * 2^x for every x (F_2(0) = 0 falls out of the shift).
    if x >= cap.bit_length() and x > 0:
        return None
    v = x << x
    return v if v <= cap else None


def _eval(n: int, x: int, cap: int) -> int | None:
    """F_n(x), or None when the value exceeds cap."""
    if n == 0:
        v = x + 1
        return v if v <= cap else None
    if x == 0:
        return 0
    if x == 1:
        return 2 if cap >= 2 else None
    # x >= 2 and n >= 1 from here on.
    if n == 1:
        v = 2 * x
        return v if v <= cap else None
    if n == 2:
        return _f2(x, cap)
    # F_n(x) >= F_2(x) for n >= 2, x >= 2 (strictly increasing in n).
    if _f2(x, cap) is None:
        return None
    if n >= 4:
        # F_n(x) >= F_4(2) = F_3(2048) >= F_2(F_2(2048)), which has more than
        # 2^2059 bits, so it exceeds every cap that fits in memory.
        return None
    return _iter(n - 1, x, x, cap)


def _iter(n: int, i: int, x: int, cap: int) -> int | None:
    """F_n^(i)(x), or None when the value exceeds cap."""
    if x > cap:
        return None
    if n == 0:
        v = x + i
        return v if v <= cap else None
    if n == 1:
        # F_1 doubles, so the i-th iterate is x * 2^i.
        if x == 0:
            return 0
        if i >= cap.bit_length():
            return None
        v = x << i
        return v if v <= cap else None
    if x == 0:
        return 0  # 0 is a fixed point of F_n for n >= 1
    y = x
    if n == 2:
        # F_2(y) = y * 2^y >= 2^y > cap once y >= bitlen(cap); a y past cap
        # is >= bitlen(cap) too, so it stops at the next round or below
        bits = cap.bit_length()
        for _ in range(i):
            if y >= bits:
                return None
            y <<= y
        return y if y <= cap else None
    while i > 0:
        y = _eval(n, y, cap)
        if y is None:
            return None
        i -= 1
    return y


def fold(pairs: Iterable[tuple[int | None, int | None]], base: int, cap: int) -> int | None:
    """F_{e_l}^(c_l)( ... F_{e_1}^(c_1)(base) ... ) for pairs (e_1,c_1),...,(e_l,c_l),
    or None when the value exceeds cap.

    A None exponent or count stands for a component already above cap and
    makes the whole fold None.  Pairs are consumed lazily: nothing after the
    first over-cap component is read.
    """
    y: int | None = base
    for e, c in pairs:
        if e is None or c is None:
            return None
        y = _iter(e, c, y, cap)
        if y is None:
            return None
    return y


def eval_F(n: int, x: int, cap: int) -> BoundedNat:
    """Evaluate F_n(x) under a cap.

    Returns Exact(F_n(x)) when F_n(x) <= cap, ExceedsCap(cap) otherwise.
    """
    _check_nat("n", n)
    _check_nat("x", x)
    _check_nat("cap", cap)
    v = _eval(n, x, cap)
    return Exact(v) if v is not None else ExceedsCap(cap)


def eval_F_iter(n: int, i: int, x: int, cap: int) -> BoundedNat:
    """Evaluate the i-th iterate F_n^(i)(x) under a cap."""
    _check_nat("n", n)
    _check_nat("i", i)
    _check_nat("x", x)
    _check_nat("cap", cap)
    v = _iter(n, i, x, cap)
    return Exact(v) if v is not None else ExceedsCap(cap)


def exceeds(n: int, i: int, x: int, bound: int) -> bool:
    """True iff F_n^(i)(x) > bound.  Cheap: never materializes the value."""
    _check_nat("n", n)
    _check_nat("i", i)
    _check_nat("x", x)
    _check_nat("bound", bound)
    return _iter(n, i, x, bound) is None


def in_relation_R(n: int, x: int, y: int) -> bool:
    """True iff F_n(x) = y (the graph of the hierarchy as a ternary relation)."""
    _check_nat("n", n)
    _check_nat("x", x)
    _check_nat("y", y)
    return _eval(n, x, y) == y
