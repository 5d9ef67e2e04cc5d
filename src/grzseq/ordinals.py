"""Cantor normal form ordinal terms below epsilon_0.

An ordinal is a finite sum  w^{a_1} n_1 + ... + w^{a_m} n_m  with strictly
decreasing ordinal exponents and positive integer coefficients; the empty
sum is 0.  Construction normalizes nothing and validates everything, so an
``Ordinal`` in hand is always in normal form; the builders that make sure of
the normal form themselves skip that second check.

Supported arithmetic is what descending-chain bookkeeping needs: comparison,
addition, left multiplication by w^w, towers w_0 = 1, w_{n+1} = w^{w_n},
left subtraction of a single w, and the hereditary maximal-coefficient
measure C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .order import Ordering, ParseError, nat, number, offset, tokens

# Key markers: CLOSE < OPEN < every coefficient.
OPEN, CLOSE = 0, -1


@dataclass(frozen=True, slots=True, eq=False)
class Ordinal:
    """Order, equality, hashing and C all come from ``key``, the flat token
    tuple (OPEN, *e_1.key, c_1, ..., *e_m.key, c_m, CLOSE).  Where two keys
    first differ is inside two exponents, at two coefficients of equal
    exponents, or at the CLOSE of a shorter term list against the OPEN of a
    further term, so lexicographic key order is CNF order.  Each node holds
    its own key, built once from its children's: O(subtree size) per node,
    except deep tower levels, whose keys wait for a reader (``_Tower``)."""

    terms: tuple[tuple["Ordinal", int], ...] = ()
    key: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        key = [OPEN]
        prev = None
        for e, c in self.terms:
            if not isinstance(e, Ordinal):
                raise ValueError(f"exponent {e!r} is not an Ordinal")
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise ValueError(f"coefficient {c!r} must be a positive integer")
            ek = e.key
            if prev is not None and prev <= ek:
                raise ValueError("exponents must be strictly decreasing")
            key += ek
            key.append(c)
            prev = ek
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

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key if isinstance(other, Ordinal) else NotImplemented

    def __lt__(self, other):
        return self.key < other.key if isinstance(other, Ordinal) else NotImplemented

    def __le__(self, other):
        return self.key <= other.key if isinstance(other, Ordinal) else NotImplemented

    def __gt__(self, other):
        return self.key > other.key if isinstance(other, Ordinal) else NotImplemented

    def __ge__(self, other):
        return self.key >= other.key if isinstance(other, Ordinal) else NotImplemented

    def __str__(self) -> str:
        return print_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal<{print_ordinal(self)}>"


class _Tower(Ordinal):
    """A single term w^e*c whose exponent has a long key, as the levels of a
    deep tower are.  Its own key is built when first read, from the first
    eager key below it, so a tower of depth d holds O(d) key tokens until
    its levels are read, not O(d^2): parsing or printing a 5,000-level
    tower reads only the top key."""

    __slots__ = ()

    def __post_init__(self):  # omega_pow, its one builder, checked the term
        pass

    def __getattr__(self, name):  # reached only while the key slot is empty
        if name != "key":
            raise AttributeError(name)
        coeffs, a = [], self
        while type(a) is _Tower:
            ((a, c),) = a.terms
            coeffs.append(c)
        key = [OPEN] * len(coeffs)
        key += a.key
        for c in reversed(coeffs):
            key += (c, CLOSE)
        key = tuple(key)
        object.__setattr__(self, "key", key)
        return key


# omega_pow over an exponent with a longer key defers the key: about 20
# levels of w^(w^(...)) are built eagerly
_EAGER_EXPONENT_KEY = 64

ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def _ordinal(terms: tuple, key: tuple) -> Ordinal:
    # an Ordinal without the constructor's checks, for the builders that have
    # made sure that terms are in normal form and that key is theirs
    a = object.__new__(Ordinal)
    object.__setattr__(a, "terms", terms)
    object.__setattr__(a, "key", key)
    return a


def from_int(n: int) -> Ordinal:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"expected a non-negative integer, got {n!r}")
    return _ordinal(((ZERO, n),), (OPEN, OPEN, CLOSE, n, CLOSE)) if n else ZERO


def omega_pow(e: Ordinal, coeff: int = 1) -> Ordinal:
    """w^e * coeff as a single-term ordinal."""
    if not isinstance(e, Ordinal):
        raise ValueError(f"exponent {e!r} is not an Ordinal")
    if not isinstance(coeff, int) or isinstance(coeff, bool) or coeff < 1:
        raise ValueError(f"coefficient {coeff!r} must be a positive integer")
    if type(e) is _Tower or len(e.key) > _EAGER_EXPONENT_KEY:
        return _Tower(((e, coeff),))
    return _ordinal(((e, coeff),), (OPEN, *e.key, coeff, CLOSE))


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
    if not b.terms:
        return a
    lead = b.terms[0][0]
    if a.terms and a.terms[-1][0].key > lead.key:  # nothing absorbed
        return _ordinal(a.terms + b.terms, a.key[:-1] + b.key[1:])
    i = 0
    while i < len(a.terms) and a.terms[i][0] > lead:
        i += 1
    if i < len(a.terms) and a.terms[i][0] == lead:
        return Ordinal(a.terms[:i] + ((lead, a.terms[i][1] + b.terms[0][1]),) + b.terms[1:])
    return Ordinal(a.terms[:i] + b.terms) if i else b  # i = 0: all of a absorbed


def coeff_measure(a: Ordinal) -> int:
    """C(a): the largest coefficient occurring hereditarily; C(0) = 0."""
    return max(a.key)  # markers are <= 0


def mul_omega_omega(a: Ordinal) -> Ordinal:
    """w^w * a: every exponent gains a leading w (order-preserving)."""
    # e -> w + e is strictly increasing, so the exponents still fall
    terms = tuple((add(OMEGA, e), c) for e, c in a.terms)
    key = [OPEN]
    for e, c in terms:
        key += e.key
        key.append(c)
    key.append(CLOSE)
    return _ordinal(terms, tuple(key))


def omega_tower(n: int) -> Ordinal:
    """w_0 = 1 and w_{n+1} = w^{w_n}."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
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
#   infinite term as  w^(E)*c  with E printed the same way.
# The parser also accepts the sugar  w,  w*c,  w^w,  w^NAT,  and evaluates
# the "+" chain with ordinal addition, so any sum is accepted and normalized.
# Neither recurses, so text of any depth prints and parses.
#
# A chain file holds one ordinal per line; blank lines and '#' comments are
# ignored.  Reading or writing one keeps a table for the call, so a sub-term
# the lines share is built, or printed, once; one ordinal is the one-line case.


def _key_text(key: tuple) -> str:
    # one walk over a nonzero key inside its outer OPEN ... CLOSE: OPEN opens
    # "w^(", CLOSE c closes ")*c", and "+" goes wherever an OPEN follows a
    # coefficient; OPEN CLOSE c, a finite term, comes out as "w^()*c" and
    # is cut to "c" at the end
    out = []
    prev = OPEN
    for t in key[1:-1]:
        if t > 0:
            out.append(str(t))
        elif t == OPEN:
            out.append("+w^(" if prev > 0 else "w^(")
        else:
            out.append(")*")
        prev = t
    return "".join(out).replace("w^()*", "")


def _print(a: Ordinal, texts: dict) -> str:
    # the text of each distinct term, and of each distinct infinite exponent,
    # made once per table; the table keeps each object beside its text, so
    # no other object takes its id
    if not a.terms:
        return "0"
    out = []
    for t in a.terms:
        seen = texts.get(id(t))
        if seen is None:
            e, c = t
            if not e.terms:
                text = str(c)
            elif len(e.key) == 5:  # OPEN OPEN CLOSE n CLOSE: a finite exponent n
                text = f"w^({e.key[3]})*{c}"
            else:
                es = texts.get(id(e))
                if es is None:
                    es = texts[id(e)] = (e, _key_text(e.key))
                text = f"w^({es[1]})*{c}"
            seen = texts[id(t)] = (t, text)
        out.append(seen[1])
    return "+".join(out)


def print_ordinal(a: Ordinal) -> str:
    return _print(a, {})


def chain_to_text(entries: Iterable[Ordinal]) -> str:
    texts = {}
    return "\n".join(_print(a, texts) for a in entries) + "\n"


def _normal(terms: list, shared: dict) -> Ordinal:
    # the sum of (exponent, coefficient) terms read left to right, normalized
    # right to left: a term below the running lead is absorbed, an equal one
    # merges
    if len(terms) > 1:
        out = []
        for e, c in reversed(terms):
            if out:
                lead, lc = out[-1]
                if e.key < lead.key:
                    continue
                if e.key == lead.key:
                    out[-1] = (lead, lc + c)
                    continue
            out.append((e, c))
        out.reverse()
        terms = out
    # one object per sum in the table, known by its exponents' ids and its
    # coefficients: the exponents of equal text already are one object, and
    # the object built keeps its exponents, so no id in the table is reused.
    # A lone term with coefficient 1, each level of a tower, is known by its
    # exponent's id alone (an int never equals a tuple), which spares the
    # table a tuple per level.
    if len(terms) == 1:
        e, c = terms[0]
        known = id(e) if c == 1 else (id(e), c)
    else:
        known = tuple([(id(e), c) for e, c in terms])
    a = shared.get(known)
    if a is None:
        a = shared[known] = omega_pow(*terms[0]) if len(terms) == 1 else Ordinal(tuple(terms))
    return a


def _parse(text: str, shared: dict) -> Ordinal:
    # "w^(" and ")*NAT" come from the lexer as one token each, whitespace
    # inside included, so a group costs two tokens
    toks = tokens(text)
    groups = []  # the terms of each enclosing sum, one list per open "w^("
    terms = []  # (exponent, coefficient) of the sum being read
    i = 0
    while True:
        exp = None  # a w-term's exponent, its coefficient still to read
        tok = toks[i]
        if tok[:1] != "w":
            n = number(text, toks, i)
            if n:
                terms.append((ZERO, n))
            i += 1
        elif tok != "w":  # "w^("
            groups.append(terms)
            terms = []
            i += 1
            continue
        elif toks[i + 1] != "^":
            exp = ONE
            i += 1
        else:
            tok = toks[i + 2]
            if tok[:1] == "w" and tok != "w":  # "w^w^(": the w is the exponent
                raise ParseError("expected ')'" if groups else "trailing input",
                                 offset(text, i + 2) + tok.index("^"))
            exp = OMEGA if tok == "w" else from_int(number(text, toks, i + 2))
            i += 3
        while True:
            if exp is not None:  # an optional "*NAT"; a zero drops the term
                c = 1
                if toks[i] == "*":
                    c = number(text, toks, i + 1)
                    i += 2
                if c:
                    terms.append((exp, c))
            # a term is read: "+" starts the next one, ")" closes a group
            tok = toks[i]
            if tok == "+":
                i += 1
                break
            if not groups:
                if tok:
                    raise ParseError("trailing input", offset(text, i))
                return _normal(terms, shared)
            if tok[:1] != ")":
                raise ParseError("expected ')'", offset(text, i))
            exp = _normal(terms, shared)
            terms = groups.pop()
            i += 1
            if tok != ")":  # ")*NAT": the group's coefficient comes with it
                c = int(tok[tok.index("*") + 1:].lstrip())
                if c:
                    terms.append((exp, c))
                exp = None


def parse_ordinal(text: str) -> Ordinal:
    """Parse the text form; malformed text raises ParseError."""
    return _parse(text, {})


def parse_chain_text(text: str) -> list[Ordinal]:
    """The ordinals of a chain file; a malformed line raises ValueError
    naming the line, with the ParseError's offset inside that line."""
    shared = {}
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            out.append(_parse(stripped, shared))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from err
    return out


def ordinal_to_json(a: Ordinal) -> list:
    # one walk over the key, as _key_text: OPEN opens a term list, CLOSE
    # hands it to the list below as the next exponent, and a coefficient
    # pairs that exponent with its decimal string
    lists = [[]]
    for t in a.key:
        if t == OPEN:
            lists.append([])
        elif t == CLOSE:
            done = lists.pop()
            lists[-1].append(done)
        else:
            lists[-1][-1] = [lists[-1][-1], str(t)]
    return lists[0][0]


def _ordinal_from_tree(obj) -> Ordinal:
    # exactly the writer's shape: a list of [term-list, "decimal"] pairs
    if not isinstance(obj, list) or not all(
        isinstance(t, list) and len(t) == 2 and isinstance(t[1], str) for t in obj
    ):
        raise ParseError(f"expected a list of [exponent, \"decimal\"] terms, got {obj!r}", 0)
    return Ordinal(tuple((_ordinal_from_tree(e), nat(c)) for e, c in obj))


def ordinal_from_json(obj) -> Ordinal:
    """Read what ``ordinal_to_json`` writes.  Any other shape, and JSON nested
    past the interpreter's recursion limit, raises ParseError (offset 0: JSON
    carries no text offsets)."""
    import json

    try:
        return _ordinal_from_tree(json.loads(obj) if isinstance(obj, str) else obj)
    except RecursionError:
        raise ParseError("nesting too deep", 0) from None
