"""Reference computations the benchmark checks the library against.

Nothing here imports ``grzseq``: every answer is derived from the
definitions, written out naively, so a fault in the library cannot hide in
the check.

* ``F`` / ``F_iter`` - a cutoff evaluator of the hierarchy F_0(x) = x + 1,
  F_{n+1}(x) = F_n^(x)(x).  Levels 0 and 1 use their closed forms
  (x + i and x * 2^i), every other level iterates the definition.  Each
  returns ``None`` when the value is above ``cap``.
* ``decompose`` - the greedy tower decomposition built on it.
* ``shift`` - plain and hereditary base shift.
* ``hereditary`` - the fully hereditary decomposition.
* ``o_key`` - the repaired-coding o_k, as a nested-tuple ordinal key.

An ordinal key is a tuple ``((key(e), c), ...)`` of Cantor-normal-form terms
with strictly decreasing exponents; the empty tuple is 0.  CNF order is
exactly Python's lexicographic tuple order on these keys: terms compare by
exponent first, then coefficient, and a proper prefix is smaller.
"""

from __future__ import annotations

ZERO: tuple = ()


def finite(n: int) -> tuple:
    return (((), n),) if n else ()


ONE = finite(1)
OMEGA = ((ONE, 1),)


# ---------------------------------------------------------------------------
# The hierarchy under a cap


def F(n: int, x: int, cap: int) -> int | None:
    """F_n(x), or None when it is above cap."""
    if n == 0:
        v = x + 1
    elif n == 1:
        v = 2 * x
    else:
        if n >= 5 and x >= 2 and F(4, x, cap) is None:
            # F_n(x) is strictly increasing in n for x >= 2, so it passes the
            # cap once F_4(x) does.  F_4(2) = F_3(2048) has more than 2^2059
            # bits, so for every cap held in memory the deep recursion over n
            # is never entered.
            return None
        return F_iter(n - 1, x, x, cap)
    return v if v <= cap else None


def F_iter(n: int, i: int, x: int, cap: int) -> int | None:
    """The i-th iterate F_n^(i)(x), or None when it is above cap."""
    if x > cap:
        return None
    if n == 0:
        v = x + i
        return v if v <= cap else None
    if n == 1:
        if x == 0:
            return 0
        if i >= cap.bit_length():
            return None  # x * 2^i >= 2^i > cap
        v = x << i
        return v if v <= cap else None
    if x == 0:
        return 0  # F_n(0) = 0 for n >= 1
    for _ in range(i):
        x = F(n, x, cap)
        if x is None:
            return None
    return x


# ---------------------------------------------------------------------------
# Greedy decomposition and base shift


def _max_iterate(e: int, base: int, x: int) -> int:
    """Largest i with F_e^(i)(base) <= x, given F_e(base) <= x."""
    if e == 0:
        return x - base
    if e == 1:
        return (x // base).bit_length() - 1  # base * 2^i <= x
    i, y = 0, base
    while True:
        y = F(e, y, x)
        if y is None:
            return i
        i += 1


def decompose(x: int, k: int) -> int | tuple[tuple[int, int], ...]:
    """The greedy representation of x at base k: an atom below the base,
    else the pairs (e, c) with x = F_{e_l}^(c_l)(...F_{e_1}^(c_1)(k)...)."""
    if x < k:
        return x
    if x == k:
        return ((0, 0),)
    pairs = []
    base = k
    while x > base:
        e = 0
        while F(e + 1, base, x) is not None:
            e += 1
        i = _max_iterate(e, base, x)
        pairs.append((e, i))
        base = F_iter(e, i, base, x)
    return tuple(pairs)


def shift(x: int, k: int, m: int, cap: int, hereditary: bool = False) -> int | None:
    """x with base k re-read at base m; exponents (and with ``hereditary``
    counts) shift recursively.  None when the value is above cap: a component
    above the cap forces the whole tower above it."""
    if x < k:
        return x
    y = m
    for e, c in decompose(x, k):
        e2 = shift(e, k, m, cap, hereditary)
        c2 = shift(c, k, m, cap, hereditary) if hereditary else c
        if e2 is None or c2 is None:
            return None
        y = F_iter(e2, c2, y, cap)
        if y is None:
            return None
    return y


def hereditary(x: int, k: int):
    """Hereditary decomposition: an int atom or a tuple of (exp, count) trees."""
    if x < k:
        return x
    return tuple((hereditary(e, k), hereditary(c, k)) for e, c in decompose(x, k))


def sequence(z: int, hered: bool, cap: int) -> tuple[list[int], str, int]:
    """Values of the base-shift countdown from z, with its outcome and step."""
    values = [z]
    v, k = z, 0
    while v:
        base = 2 + k
        if v < base:
            v -= 1
        else:
            s = shift(v, base, base + 1, cap, hered)
            if s is None:
                return values, "overflowed_cap", k + 1
            v = s - 1
        k += 1
        values.append(v)
    return values, "terminated", k


# ---------------------------------------------------------------------------
# Ordinal keys


def add(a: tuple, b: tuple) -> tuple:
    """Ordinal sum: the terms of a below b's leading exponent are absorbed."""
    if not b:
        return a
    lead, lc = b[0]
    kept = []
    for e, c in a:
        if e > lead:
            kept.append((e, c))
        else:
            if e == lead:
                return tuple(kept) + ((lead, c + lc),) + b[1:]
            break
    return tuple(kept) + b


def o_key(x: int, k: int) -> tuple:
    """o_k(x) under the repaired coding: exponent v codes as v below the base
    and as w + o_k(v) from the base on; requires x >= k."""
    total = ZERO
    for e, c in decompose(x, k):
        if c:
            code = finite(e) if e < k else add(OMEGA, o_key(e, k))
            total = add(total, ((code, c),))
    return total


def C(a: tuple) -> int:
    """The hereditary maximal coefficient; C(0) = 0."""
    return max((max(c, C(e)) for e, c in a), default=0)


def g(n: int, k: int, x: int) -> tuple:
    """The windowed descending assignment g_n(k, x): the flipped zero-padded
    count profile of x for k <= x < F_n(k), 0 from F_n(k) on."""
    if n == 0:
        return finite(max(0, k + 1 - x))
    if x < k:
        return ((finite(n), k - x),)
    if F(n, k, x) is not None:
        return ZERO
    j = [0] * n
    for e, c in decompose(x, k):
        j[n - e - 1] = c
    m = [k]
    for q in range(1, n):
        m.append(F_iter(n - q, j[q - 1], m[-1], x))
    return tuple((finite(n - q), m[q - 1] - j[q - 1]) for q in range(1, n + 1))


# ---------------------------------------------------------------------------
# Text forms, as the library's grammar defines them


def text(a: tuple) -> str:
    if not a:
        return "0"
    return "+".join(str(c) if not e else f"w^({text(e)})*{c}" for e, c in a)


def rep_text(x: int, k: int) -> str:
    r = decompose(x, k)
    if isinstance(r, int):
        return str(r)
    return "[" + ",".join(f"({e},{c})" for e, c in r) + f"]_{k}"


def hereditary_text(t, k: int) -> str:
    if isinstance(t, int):
        return str(t)
    inner = ",".join(f"({hereditary_text(e, k)},{hereditary_text(c, k)})" for e, c in t)
    return f"[{inner}]_{k}"


def parse(s: str) -> tuple:
    """Parse the canonical printed form (and its sugar: w, w*c, w^w, w^NAT)."""
    pos = 0

    def nat() -> int:
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise ValueError(f"expected a number at {start} in {s!r}")
        return int(s[start:pos])

    def term() -> tuple:
        nonlocal pos
        if s.startswith("w", pos):
            pos += 1
            exp = ONE
            if s.startswith("^(", pos):
                pos += 2
                exp = total()
                if not s.startswith(")", pos):
                    raise ValueError(f"missing ')' at {pos} in {s!r}")
                pos += 1
            elif s.startswith("^w", pos):
                pos += 2
                exp = OMEGA
            elif s.startswith("^", pos):
                pos += 1
                exp = finite(nat())
            coeff = 1
            if s.startswith("*", pos):
                pos += 1
                coeff = nat()
            return ((exp, coeff),) if coeff else ZERO
        return finite(nat())

    def total() -> tuple:
        nonlocal pos
        acc = term()
        while s.startswith("+", pos):
            pos += 1
            acc = add(acc, term())
        return acc

    s = s.replace(" ", "")
    out = total()
    if pos != len(s):
        raise ValueError(f"trailing input at {pos} in {s!r}")
    return out


# ---------------------------------------------------------------------------
# Self-check against facts derived by hand


def self_check() -> None:
    """Raise AssertionError if a hand-derived fact does not hold."""
    facts = [
        (F(2, 2, 10**9), 8),
        (F(3, 2, 10**9), 2048),
        (F(3, 2, 2047), None),
        (F(2000, 2, 2**5000), None),
        (decompose(9, 2), ((2, 1), (0, 1))),
        (decompose(2, 2), ((0, 0),)),
        (rep_text(9, 2), "[(2,1),(0,1)]_2"),
        (text(o_key(9, 2)), "w^(w^(1)*1)*1+1"),
        (text(o_key(4, 2)), "w^(1)*1"),
        (o_key(2, 2), ZERO),
        (sequence(4, False, 10**7), ([4, 5, 5, 5, 5, 4, 3, 2, 1, 0], "terminated", 9)),
        (sequence(8, False, 10**300)[1:], ("overflowed_cap", 1)),
        (shift(2, 2, 3, 10**7), 3),
        (parse("w^(w^(1)*1)*1+1"), o_key(9, 2)),
        (parse("w*2+w^w"), ((OMEGA, 1),)),
        (C(parse("w^(w^(3)*2)*1+5")), 5),
        (text(g(1, 2, 0)), "w^(1)*2"),
    ]
    for got, want in facts:
        if got != want:
            raise AssertionError(f"reference self-check: got {got!r}, want {want!r}")
    if not o_key(4, 2) < o_key(9, 2):
        raise AssertionError("reference self-check: o_2(4) < o_2(9) must hold")


if __name__ == "__main__":
    self_check()
    print("reference self-check: ok")
