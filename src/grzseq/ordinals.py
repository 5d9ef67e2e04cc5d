"""Cantor normal form ordinal terms below epsilon_0.

An ordinal is a finite sum  w^{a_1} n_1 + ... + w^{a_m} n_m  with strictly
decreasing ordinal exponents and positive integer coefficients; the empty
sum is 0.  Construction normalizes nothing and validates everything, so an
``Ordinal`` in hand is always in normal form.

Supported arithmetic is what descending-chain bookkeeping needs: comparison,
addition, left multiplication by w^w, towers w_0 = 1, w_{n+1} = w^{w_n},
left subtraction of a single w, and the hereditary maximal-coefficient
measure C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .order import Ordering, ParseError, Scanner

# Key markers: CLOSE < OPEN < every coefficient.
OPEN, CLOSE = 0, -1


@dataclass(frozen=True, order=True, slots=True)
class Ordinal:
    """Order, equality, hashing and C all come from ``key``, the flat token
    tuple (OPEN, *e_1.key, c_1, ..., *e_m.key, c_m, CLOSE).  Where two keys
    first differ is inside two exponents, at two coefficients of equal
    exponents, or at the CLOSE of a shorter term list against the OPEN of a
    further term, so lexicographic key order is CNF order.  Each node holds
    its own key, built once from its children's: O(subtree size) per node."""

    terms: tuple[tuple["Ordinal", int], ...] = field(default=(), compare=False)
    key: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        key = [OPEN]
        prev = None
        for e, c in self.terms:
            if not isinstance(e, Ordinal):
                raise ValueError(f"exponent {e!r} is not an Ordinal")
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"coefficient {c!r} must be a positive integer")
            if prev is not None and prev.key <= e.key:
                raise ValueError("exponents must be strictly decreasing")
            key += e.key
            key.append(c)
            prev = e
        key.append(CLOSE)
        object.__setattr__(self, "key", tuple(key))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    def as_int(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is infinite")
        return self.terms[0][1] if self.terms else 0

    def __str__(self) -> str:
        return print_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal<{print_ordinal(self)}>"


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"expected a non-negative integer, got {n!r}")
    return Ordinal(((ZERO, n),)) if n else ZERO


def omega_pow(e: Ordinal, coeff: int = 1) -> Ordinal:
    """w^e * coeff as a single-term ordinal."""
    return Ordinal(((e, coeff),))


# bound once, as in frep.compare: each read of a member off the Enum class
# costs about 0.2 us on Python 3.11
_LT, _EQ, _GT = Ordering.LT, Ordering.EQ, Ordering.GT


def compare(a: Ordinal, b: Ordinal) -> Ordering:
    ka, kb = a.key, b.key
    if ka == kb:
        return _EQ
    return _LT if ka < kb else _GT


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition: terms of a below b's leading exponent are absorbed."""
    if b.is_zero:
        return a
    (lead, c), rest = b.terms[0], b.terms[1:]
    i = 0
    while i < len(a.terms) and a.terms[i][0] > lead:
        i += 1
    if i < len(a.terms) and a.terms[i][0] == lead:
        c += a.terms[i][1]
    return Ordinal(a.terms[:i] + ((lead, c),) + rest)


def coeff_measure(a: Ordinal) -> int:
    """C(a): the largest coefficient occurring hereditarily; C(0) = 0."""
    return max(a.key)  # markers are <= 0


def mul_omega_omega(a: Ordinal) -> Ordinal:
    """w^w * a: every exponent gains a leading w (order-preserving)."""
    return Ordinal(tuple((add(OMEGA, e), c) for e, c in a.terms))


def omega_tower(n: int) -> Ordinal:
    """w_0 = 1 and w_{n+1} = w^{w_n}."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"tower height must be a non-negative integer, got {n!r}")
    t = ONE
    for _ in range(n):
        t = omega_pow(t)
    return t


def left_subtract_omega(e: Ordinal) -> Ordinal:
    """The unique b with w + b = e; requires e >= w."""
    if e.is_finite:
        raise ValueError(f"{e} is below w, nothing to subtract")
    (lead, c), rest = e.terms[0], e.terms[1:]
    if lead > ONE:
        return e  # the leading term already absorbs a left w
    # lead == ONE: peel one copy of w
    if c > 1:
        return Ordinal(((ONE, c - 1),) + rest)
    return Ordinal(rest)


# ---------------------------------------------------------------------------
# Text form.  Canonical printer output:
#   0                        for zero
#   terms joined by "+", finite term as a bare number,
#   infinite term as  w^(E)*c  with E printed recursively.
# The parser also accepts the sugar  w,  w*c,  w^w,  w^NAT,  and evaluates
# the "+" chain with ordinal addition, so any sum is accepted and normalized.


def print_ordinal(a: Ordinal) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for e, c in a.terms:
        if e.is_zero:
            parts.append(str(c))
        else:
            parts.append(f"w^({print_ordinal(e)})*{c}")
    return "+".join(parts)


def _parse_term(s: Scanner) -> Ordinal:
    if s.take("w"):
        exp = ONE
        if s.take("^"):
            if s.take("("):
                exp = _parse_sum(s)
                s.expect(")")
            elif s.take("w"):
                exp = OMEGA  # w^w sugar
            else:
                exp = from_int(s.nat())
        coeff = s.nat() if s.take("*") else 1
        if coeff == 0:
            return ZERO
        return omega_pow(exp, coeff)
    return from_int(s.nat())


def _parse_sum(s: Scanner) -> Ordinal:
    total = _parse_term(s)
    while s.take("+"):
        total = add(total, _parse_term(s))
    return total


def parse_ordinal(text: str) -> Ordinal:
    """Parse the text form; malformed or too deeply nested text raises ParseError."""
    return Scanner(text).parse(_parse_sum)


def ordinal_to_json(a: Ordinal) -> list:
    return [[ordinal_to_json(e), str(c)] for e, c in a.terms]


def _ordinal_from_tree(obj) -> Ordinal:
    # exactly the writer's shape: a list of [term-list, "decimal"] pairs
    if not isinstance(obj, list) or not all(
        isinstance(t, list) and len(t) == 2 and isinstance(t[1], str) for t in obj
    ):
        raise ParseError(f"expected a list of [exponent, \"decimal\"] terms, got {obj!r}", 0)
    return Ordinal(tuple((_ordinal_from_tree(e), Scanner(c).parse(Scanner.nat)) for e, c in obj))


def ordinal_from_json(obj) -> Ordinal:
    """Read what ``ordinal_to_json`` writes.  Any other shape, and JSON nested
    past the interpreter's recursion limit, raises ParseError (offset 0: JSON
    carries no text offsets)."""
    import json

    try:
        return _ordinal_from_tree(json.loads(obj) if isinstance(obj, str) else obj)
    except RecursionError:
        raise ParseError("nesting too deep", 0) from None
