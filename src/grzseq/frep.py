"""Canonical representation of naturals by towers of fast-growing functions.

A number x >= k (k >= 2 the base) decomposes uniquely as

    x = F_{e_l}^(c_l)( ... F_{e_1}^(c_1)(k) ... )

with strictly decreasing exponents e_1 > ... > e_l >= 0, written
``[(e_1,c_1),...,(e_l,c_l)]_k``.  Numbers below the base are atoms, and the
base itself is the degenerate ``[(0,0)]_k``.  The module provides the codec
(encode/decode), the order-isomorphic comparison, base-shift (exponents
re-encoded at the new base, hereditarily), the fully hereditary variant in
which counts shift as well, validation, and the text/JSON interchange forms.

Everything is cutoff-aware: a decode or shift whose value would exceed the
cap reports ExceedsCap instead of computing it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grzeval import BoundedNat, Exact, ExceedsCap, fold
from .order import Ordering, ParseError, nat, number, offset, tokens

Pairs = tuple[tuple[int, int], ...]


class RepError(ValueError):
    """A structurally broken representation."""


@dataclass(frozen=True)
class FRep:
    """Representation with plain integer exponents and counts.

    ``body`` is an int (atom, value below the base) or a tuple of
    (exponent, count) pairs.
    """

    base: int
    body: int | Pairs

    def __post_init__(self):
        if not isinstance(self.base, int) or self.base < 2:
            raise RepError(f"base must be an integer >= 2, got {self.base!r}")

    @property
    def is_atom(self) -> bool:
        return isinstance(self.body, int)

    @property
    def pairs(self) -> Pairs:
        if self.is_atom:
            raise RepError("atom has no pairs")
        return self.body  # type: ignore[return-value]

    def __str__(self) -> str:
        return print_rep(self)


@dataclass(frozen=True)
class TRep(FRep):
    """Hereditary representation: exponents and counts are themselves TReps."""

    body: int | tuple[tuple["TRep", "TRep"], ...]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


# ---------------------------------------------------------------------------
# Encoding


def _step(x: int, base: int) -> tuple[int, int, int]:
    # for 2 <= base < x: the least e with x < F_{e+1}(base), the largest i
    # with F_e^(i)(base) <= x, and F_e^(i)(base)
    if x < 2 * base:
        return 0, x - base, x
    # base >= bitlen(x) gives F_2(base) >= 2^base > x without building base << base
    if base >= x.bit_length() or x < base << base:
        i = (x // base).bit_length() - 1
        return 1, i, base << i
    e = 2
    while fold(((e + 1, 1),), base, x) is not None:
        e += 1
    # F_e(y) >= 2^y for e >= 2, so there are at most about log* x steps
    i, y = 0, base
    while (nxt := fold(((e, 1),), y, x)) is not None:
        i, y = i + 1, nxt
    return e, i, y


def _pairs(x: int, k: int) -> Pairs:
    # the pairs of x >= k at base k, arguments unchecked
    if x == k:
        return ((0, 0),)
    pairs = []
    base = k
    while x > base:
        e, i, base = _step(x, base)
        pairs.append((e, i))
    return tuple(pairs)


def _check_encode(x: int, k: int) -> None:
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"base must be an integer >= 2, got {k!r}")
    if not isinstance(x, int) or x < 0:
        raise ValueError(f"value must be a non-negative integer, got {x!r}")


def encode(x: int, k: int) -> FRep:
    """The unique representation of x with base k (greedy tower search)."""
    _check_encode(x, k)
    return FRep(k, x if x < k else _pairs(x, k))


# ---------------------------------------------------------------------------
# Decoding


def _check_shape(r: FRep) -> None:
    if r.is_atom:
        v = r.body
        if not isinstance(v, int) or not 0 <= v < r.base:
            raise RepError(f"atom value {v!r} not in [0, base {r.base})")
        return
    pairs = r.body
    if not isinstance(pairs, tuple) or len(pairs) == 0:
        raise RepError("pair list must be non-empty")
    prev = None
    for e, c in pairs:
        if not isinstance(e, int) or not isinstance(c, int) or e < 0 or c < 0:
            raise RepError(f"pair ({e!r},{c!r}) must hold non-negative integers")
        if prev is not None and e >= prev:
            raise RepError(f"exponents not strictly decreasing at {e}")
        prev = e


def _check_cap(cap: int) -> None:
    # the check grzeval's public functions make on theirs
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
        raise ValueError(f"cap must be a non-negative integer, got {cap!r}")


def decode(r: FRep, cap: int) -> BoundedNat:
    """Fold the tower back into a number, cutoff-aware.

    Requires the shape invariants (atom below base, strictly decreasing
    exponents); the deeper canonicity constraints are ``validate``'s job.
    A cap that is not a non-negative integer raises ValueError.
    """
    _check_cap(cap)
    _check_shape(r)
    if r.is_atom:
        v = r.body
        return Exact(v) if v <= cap else ExceedsCap(cap)
    y = fold(r.pairs, r.base, cap)
    return Exact(y) if y is not None else ExceedsCap(cap)


# ---------------------------------------------------------------------------
# Comparison: lexicographic on pairs, strict prefix smaller.  This matches
# numeric order of the represented values (same base required).


# bound once: on Python 3.11 each read of a member off the Enum class takes
# about 0.2 us, as long as the rest of compare's body
_LT, _EQ, _GT = Ordering.LT, Ordering.EQ, Ordering.GT


def compare(a: FRep, b: FRep) -> Ordering:
    if a.base != b.base:
        raise ValueError(f"cannot compare representations with bases {a.base} and {b.base}")
    pa, pb = a.body, b.body
    if pa == pb:
        return _EQ
    if type(pa) is not type(pb):
        # atoms are below the base, pair forms are >= base
        return _LT if type(pa) is int else _GT
    return _LT if pa < pb else _GT


# ---------------------------------------------------------------------------
# Base shift.  Exponent values are re-encoded at the old base and shifted
# recursively; counts stay put (the hereditary variant below shifts both).
# Internal workers use int-or-None with None meaning "exceeds cap"; any
# oversized component forces the total over the cap because the folded value
# dominates every exponent and count that occurs with a positive count.
# `shifted` lives for one public call and maps each value >= k shifted so far
# to its answer, which is the same wherever the value occurs.


def _shift_component(v: int, k: int, m: int, cap: int, hereditary: bool, shifted: dict) -> int | None:
    if v < k:
        return v
    if v not in shifted:
        shifted[v] = fold(_shifted_pairs(v, k, m, cap, hereditary, shifted), m, cap)
    return shifted[v]


def _shifted_pairs(v: int, k: int, m: int, cap: int, hereditary: bool, shifted: dict):
    # lazily, for fold: a count is shifted only once its exponent fits the cap
    for e, c in _pairs(v, k):
        e2 = _shift_component(e, k, m, cap, hereditary, shifted)
        if hereditary and e2 is not None:
            c = _shift_component(c, k, m, cap, hereditary, shifted)
        yield e2, c


def _shift(x: int, k: int, m: int, cap: int, hereditary: bool) -> BoundedNat:
    if not (isinstance(k, int) and isinstance(m, int) and 2 <= k <= m):
        raise ValueError(f"need 2 <= from-base <= to-base, got {k!r}, {m!r}")
    if not isinstance(x, int) or x < 0:
        raise ValueError(f"value must be a non-negative integer, got {x!r}")
    _check_cap(cap)
    v = _shift_component(x, k, m, cap, hereditary, {})
    return Exact(v) if v is not None else ExceedsCap(cap)


def shift_value(x: int, k: int, m: int, cap: int) -> BoundedNat:
    """Value of x with base k re-read at base m (exponents shifted, counts kept).

    Values below the base shift to themselves.  A cap that is not a
    non-negative integer raises ValueError.
    """
    return _shift(x, k, m, cap, hereditary=False)


def shift_total_value(x: int, k: int, m: int, cap: int) -> BoundedNat:
    """Hereditary base shift: counts are shifted along with the exponents."""
    return _shift(x, k, m, cap, hereditary=True)


# ---------------------------------------------------------------------------
# Validation.  The full invariants, including count bounds against the
# intermediate-base chain k_1 = base, k_{p+1} = F_{e_p}^(c_p)(k_p), which is
# astronomically large in general and therefore only ever probed under a cap.


def validate(r: FRep) -> ValidationReport:
    violations: list[str] = []
    if r.is_atom:
        v = r.body
        if not 0 <= v < r.base:
            violations.append(f"atom value {v} not in [0, base {r.base})")
        return ValidationReport(not violations, tuple(violations))

    pairs = r.body
    if len(pairs) == 0:
        return ValidationReport(False, ("pair list is empty",))
    is_degenerate = pairs == ((0, 0),)
    prev = None
    for p, (e, c) in enumerate(pairs, start=1):
        if e < 0 or c < 0:
            violations.append(f"pair {p} holds a negative component")
        if prev is not None and e >= prev:
            violations.append(f"exponents not strictly decreasing at pair {p}")
        prev = e
        if c == 0 and not is_degenerate:
            violations.append(f"count 0 at pair {p} (only the bare-base [(0,0)] may carry it)")

    # count bounds: c_p < k_p, probed with the running maximum count as cap
    maxc = max(c for _, c in pairs)
    chain: int | None = r.base
    for p, (e, c) in enumerate(pairs, start=1):
        if chain is not None:
            if c >= chain:
                violations.append(f"count {c} at pair {p} not below intermediate base {chain}")
            chain = fold(((e, c),), chain, maxc)
            # once the chain passes every count, all later bounds hold
    return ValidationReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Hereditary (total) representation


def to_total(x: int, k: int) -> TRep:
    """Represent x with both exponents and counts recursively represented."""
    _check_encode(x, k)
    # each distinct sub-value is encoded once, then its tree is built once, in
    # increasing order (the components of a pair form lie below its value),
    # so equal sub-trees are shared (TRep is frozen).  Trees are about half
    # as deep as x has bits, so neither pass recurses.
    pairs, todo = {}, [x]
    while todo:
        v = todo.pop()
        if v not in pairs:
            pairs[v] = p = _pairs(v, k) if v >= k else ()
            for e, c in p:
                todo += e, c
    built = {}
    for v in sorted(pairs):
        built[v] = TRep(k, tuple((built[e], built[c]) for e, c in pairs[v]) if v >= k else v)
    return built[x]


def _decode_total(t: TRep, cap: int) -> int | None:
    if t.is_atom:
        v = t.body
        if not 0 <= v < t.base:
            raise RepError(f"atom value {v!r} not in [0, base {t.base})")
        return v if v <= cap else None
    if t.body == ():
        raise RepError("pair list must be non-empty")
    return fold(_decoded_pairs(t, cap), t.base, cap)


def _decoded_pairs(t: TRep, cap: int):
    # lazily, for fold: a count is decoded only once its exponent fits the cap.
    # An over-cap exponent after an exact one exceeds cap >= that one, so it
    # breaks the strict descent too.  An exponent e past cap sinks the fold
    # when its count is positive (F_e^(c)(y) > e > cap, as y >= base >= 2),
    # and passes y on when its count is the atom 0.  An exact exponent after
    # it lies below it; one past the cap too cannot be ordered against it
    # under the cap, so there only a repeat of the same tree is caught.
    prev = over = None
    for e, c in t.pairs:
        ev = _decode_total(e, cap)
        if prev is not None and (ev is None or ev >= prev):
            raise RepError(f"exponents not strictly decreasing after {prev}")
        if ev is None and e == over:
            raise RepError("exponents not strictly decreasing: one past the cap repeats")
        prev, over = ev, None
        if ev is not None:
            yield ev, _decode_total(c, cap)
        elif c.body == 0:
            over = e
            yield 0, 0  # F_e^(0) is the identity, as F_0^(0)
        else:
            yield None, None


def decode_total(t: TRep, cap: int) -> BoundedNat:
    """Fold a hereditary tree back into a number, cutoff-aware.  A cap that is
    not a non-negative integer raises ValueError."""
    _check_cap(cap)
    v = _decode_total(t, cap)
    return Exact(v) if v is not None else ExceedsCap(cap)


# ---------------------------------------------------------------------------
# Text form.  Grammar:
#   rep  ::= NAT | "[" pair ("," pair)* "]_" NAT
#   pair ::= "(" item "," item ")"
#   item ::= NAT | rep          (nested bracket items make the rep hereditary)


def print_rep(r: FRep | TRep) -> str:
    if r.is_atom:
        return str(r.body)
    items = []
    for e, c in r.pairs:
        es = print_rep(e) if isinstance(e, TRep) else str(e)
        cs = print_rep(c) if isinstance(c, TRep) else str(c)
        items.append(f"({es},{cs})")
    return "[" + ",".join(items) + "]_" + str(r.base)


# Brackets, or JSON pair objects, nested deeper than this are rejected,
# whatever the caller's stack: the readers, print_rep, rep_to_json and
# decode_total recurse once per level.  A to_total tree is about half as
# deep as its value has bits, so the text of one past about 120 digits is
# too deep to read back.
REP_NESTING_LIMIT = 200


def _expect(text: str, toks: list[str], i: int, lit: str) -> int:
    if toks[i] != lit:
        raise ParseError(f"expected {lit!r}", offset(text, i))
    return i + 1


def _parse_raw(text: str):
    # the raw tree of the text: (value, token index) for a number, (pairs, base)
    # for a bracket, pairs being a list.  One walk over the tokens with a
    # stack of open brackets, each [pairs so far, its pending exponent item].
    toks = tokens(text)
    i = 0
    brackets = []
    while True:
        if toks[i] == "[":
            if len(brackets) == REP_NESTING_LIMIT:
                raise ParseError("nesting too deep", offset(text, i))
            i = _expect(text, toks, i + 1, "(")
            brackets.append([[], None])
            continue
        item = number(text, toks, i), i
        i += 1
        while True:  # hand the finished item to its bracket
            if not brackets:
                if toks[i]:
                    raise ParseError("trailing input", offset(text, i))
                return item
            top = brackets[-1]
            if top[1] is None:
                top[1] = item
                i = _expect(text, toks, i, ",")
                break  # read the count
            top[0].append((top[1], item))
            top[1] = None
            if toks[i][:1] == ")" and toks[i] != ")":  # the ordinal lexer's ")*NAT"
                raise ParseError("expected ']_'", offset(text, i) + toks[i].index("*"))
            i = _expect(text, toks, i, ")")
            if toks[i] == ",":
                i = _expect(text, toks, i + 1, "(")
                break  # read the next exponent
            i = _expect(text, toks, i, "]_")
            item = top[0], number(text, toks, i)
            i += 1
            brackets.pop()


def _rep_from_raw(raw, text: str, base: int | None = None, cls: type[FRep] = FRep) -> FRep:
    # the one back end of both readers: a number is an atom (its base from the
    # caller, else the smallest legal one), a pair list with its base a pair
    # form.  The top pair form is flat when every item is a plain number;
    # anything nested is hereditary all the way down.  A number's position
    # is its token index in text; JSON has no text and positions 0, and
    # offset("", 0) is 0.
    if isinstance(raw[0], int):
        value, at = raw
        b = base if base is not None else max(2, value + 1)
        if value >= b:
            raise ParseError(f"atom {value} not below base {b}", offset(text, at))
        return cls(b, value)
    pairs, b = raw
    if cls is FRep and all(isinstance(v[0], int) for pair in pairs for v in pair):
        return FRep(b, tuple((e, c) for (e, _), (c, _) in pairs))
    return TRep(b, tuple((_rep_from_raw(e, text, b, TRep), _rep_from_raw(c, text, b, TRep)) for e, c in pairs))


def parse_rep(text: str, base: int | None = None) -> FRep | TRep:
    """Parse the bracket grammar.

    A bare number parses as an atom; its base comes from the ``base``
    argument when given, else the smallest legal one.  Bracketed forms carry
    their base in the ``]_k`` suffix.  The result is an FRep when every item
    is a plain number and a TRep when any item nests.
    """
    return _rep_from_raw(_parse_raw(text), text, base)


# ---------------------------------------------------------------------------
# JSON form.  Big integers travel as decimal strings; hereditary components
# nest objects in place of strings.


def _component_to_json(v):
    # plain numbers (and hereditary atoms) travel as decimal strings,
    # nested pair-forms as objects
    if isinstance(v, int):
        return str(v)
    if v.is_atom:
        return str(v.body)
    return rep_to_json(v)


def rep_to_json(r: FRep | TRep) -> dict:
    if r.is_atom:
        return {"base": str(r.base), "atom": str(r.body)}
    return {
        "base": str(r.base),
        "pairs": [[_component_to_json(e), _component_to_json(c)] for e, c in r.pairs],
    }


def _raw_from_json(obj, depth: int = 0):
    # the raw tree _parse_raw builds: (value, 0) for a decimal string (JSON
    # carries no text offsets), (pairs, base) for a pair object, at most
    # REP_NESTING_LIMIT of them deep, as brackets in the text
    match obj:
        case str():
            return nat(obj), 0
        case {"base": str(b), "pairs": [_, *_] as pairs} if len(obj) == 2 and all(
            isinstance(p, list) and len(p) == 2 for p in pairs
        ):
            if depth == REP_NESTING_LIMIT:
                raise ParseError("nesting too deep", 0)
            return [(_raw_from_json(e, depth + 1), _raw_from_json(c, depth + 1)) for e, c in pairs], nat(b)
    raise RepError(f"expected a decimal string or a pair object, got {obj!r}")


def rep_from_json(text_or_obj) -> FRep | TRep:
    """Read what ``rep_to_json`` writes, with the text reader's checks.

    Pair objects nested past ``REP_NESTING_LIMIT``, and JSON text nested past
    the interpreter's recursion limit, raise ParseError.
    """
    import json

    try:
        obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
        match obj:
            case {"base": str(b), "atom": str(a)} if len(obj) == 2:
                return _rep_from_raw(_raw_from_json(a), "", nat(b))
            case {"pairs": _}:
                return _rep_from_raw(_raw_from_json(obj), "")
        raise RepError(f"expected an atom or a pair object, got {obj!r}")
    except RecursionError:
        raise ParseError("nesting too deep", 0) from None
