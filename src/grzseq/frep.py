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

from .grzeval import BoundedNat, Exact, ExceedsCap, climb, fold
from .order import Ordering, ParseError, Record, check_nat, nat, number, offset, tokens

Pairs = tuple[tuple[int, int], ...]


class RepError(ValueError):
    """A structurally broken representation."""


class FRep(Record):
    """Representation with plain integer exponents and counts.

    ``body`` is an int (atom, value below the base) or a tuple of
    (exponent, count) pairs.
    """

    # _shaped, outside the fields, marks a rep that encode built: its body
    # keeps decode's shape rule by construction.  __init__ leaves it unset,
    # so hand-built, copied and unpickled reps count as unmarked
    __slots__ = ("base", "body", "_shaped")
    _fields = ("base", "body")

    def __init__(self, base: int, body: int | Pairs):
        if not isinstance(base, int) or base < 2:
            raise RepError(f"base must be an integer >= 2, got {base!r}")
        _set_base(self, base)
        _set_body(self, body)

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


class TRep(FRep):
    """Hereditary representation: exponents and counts are themselves TReps,
    so ``body`` is an atom or a tuple of (TRep, TRep) pairs.  Equality,
    hashing, pickle and deepcopy take trees of any depth whose bodies hash."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not TRep:
            return NotImplemented
        # the roots decide without numbering: unequal bases, two atoms, or
        # pair lists of unequal length.  The same object, and an atom against
        # a pair list, are numbered: a tree with an unhashable body raises
        # TypeError there, as its hash does
        a, b = self.body, other.body
        if self.base != other.base:
            return False
        if type(a) is int and type(b) is int:
            return a == b
        if type(a) is tuple and type(b) is tuple and len(a) != len(b):
            return False
        return _numbered(self, numbers := {}) == _numbered(other, numbers, grow=False)

    def __hash__(self):
        _numbered(self, numbers := {})
        return hash(tuple(numbers))

    def __reduce__(self):
        # the fields would pickle and deepcopy once per level; instead the
        # keys of the distinct nodes, the root's last.  Rebuilt through __init__
        _numbered(self, numbers := {})
        return _tree, (list(numbers),)


def _tree(flat: list) -> TRep:
    # the tree of TRep.__reduce__'s node keys, a node per key: equal sub-trees shared
    nodes = []
    for base, body, kids in flat:
        nodes.append(TRep(base, body if kids is None else tuple([(nodes[e], nodes[c]) for e, c in kids])))
    return nodes[-1]


def _numbered(t: TRep, numbers: dict, grow: bool = True) -> int:
    # t's number in numbers, which maps the key of each distinct node to its
    # number, given in post-order.  The key of an atom, or of any body that
    # is no pair form, is (base, body, None); of a pair form (base, None, its
    # pairs as pairs of child numbers).  So equal sub-trees share a number,
    # in one tree or two, and equal trees add the same keys in the same
    # order.  Each node of t is visited once, without recursion.  Without
    # grow, a key not in numbers ends the walk with -1: t equals no tree there
    at, todo = {}, [(t, False)]
    while todo:
        s, kids_done = todo.pop()
        if id(s) in at:
            continue
        body = s.body
        if kids_done:
            key = (s.base, None, tuple([(at[id(e)], at[id(c)]) for e, c in body]))
        elif type(body) is not tuple or _pair_form_fault(body, s.base):
            key = (s.base, body, None)
        else:
            todo.append((s, True))
            todo += [(x, False) for pair in body for x in pair if id(x) not in at]
            continue
        if not grow and key not in numbers:
            return -1
        at[id(s)] = numbers.setdefault(key, len(numbers))
    return at[id(t)]


def _pair_form_fault(body, base: int) -> str:
    # what keeps body from being a hereditary pair form at base, a non-empty
    # tuple of (TRep, TRep) pairs whose nodes all carry that base; "" if nothing
    if type(body) is not tuple or not body:
        return "pair list must be " + ("non-empty" if body == () else "a tuple of (TRep, TRep) pairs")
    for p in body:  # a loop, not all() over a generator: decode_total runs this at every node
        if type(p) is not tuple or len(p) != 2 or p[0].__class__ is not TRep or p[1].__class__ is not TRep:
            return "pair list must be a tuple of (TRep, TRep) pairs"
        if not p[0].base == p[1].base == base:
            return f"a node of base {base} holds sub-trees of bases {p[0].base} and {p[1].base}"
    return ""


class ValidationReport(Record):
    __slots__ = _fields = ("ok", "violations")


# ---------------------------------------------------------------------------
# Encoding


def _pairs(x: int, k: int) -> Pairs:
    # the pairs of x >= k at base k, arguments unchecked, in one loop.  Each
    # pass, for 2 <= base < x, takes the least e with x < F_{e+1}(base) and
    # the largest i with F_e^(i)(base) <= x, then goes on from F_e^(i)(base)
    if x == k:
        return ((0, 0),)
    pairs = []
    base = k
    while x > base:
        if x < 2 * base:
            pairs.append((0, x - base))
            break
        # base >= bitlen(x) gives F_2(base) >= 2^base > x without building base << base
        if base >= x.bit_length() or x < base << base:
            i = (x // base).bit_length() - 1
            pairs.append((1, i))
            base <<= i
            continue
        # one climb per level: base iterates of F_e make F_{e+1}(base), so a
        # climb that reaches them goes on at F_{e+1} from the value it holds.
        # F_e(y) >= 2^y for e >= 2, so there are at most about log* x steps
        e, i, y = 2, 0, base
        while True:
            j, y = climb(e, y, x, base - i)
            if i + j < base:
                break
            e, i = e + 1, 1
        pairs.append((e, i + j))
        base = y
    return tuple(pairs)


_new, _set_base, _set_body, _set_shaped = object.__new__, FRep.base.__set__, FRep.body.__set__, FRep._shaped.__set__


def _built(cls: type[FRep], base: int, body) -> FRep:
    # the library's one builder of reps: a base already checked, so no
    # __init__.  It leaves the mark unset; only encode sets it
    r = _new(cls)
    _set_base(r, base)
    _set_body(r, body)
    return r


def encode(x: int, k: int) -> FRep:
    """The unique representation of x with base k (greedy tower search)."""
    check_nat("base", k, 2)
    check_nat("value", x)
    r = _built(FRep, k, x if x < k else _pairs(x, k))
    _set_shaped(r, True)
    return r


def encode_pairs(x: int, k: int) -> Pairs:
    """``encode(x, k).pairs`` without building the FRep; an atom (x < k)
    raises RepError as its ``pairs`` does."""
    check_nat("base", k, 2)
    check_nat("value", x)
    if x < k:
        raise RepError("atom has no pairs")
    return _pairs(x, k)


# ---------------------------------------------------------------------------
# Decoding


def _check_rep(name: str, r) -> None:
    if not isinstance(r, FRep):
        raise ValueError(f"argument {name} must be an FRep or TRep, got {_shown(r)}")


def _shown(v) -> str:
    # repr(v) for a message, but a rep, as v or as an item of the tuple or
    # list v, is named by class and base: a tree's repr recurses per level
    if isinstance(v, FRep):
        return f"{type(v).__name__}(base={v.base!r}, ...)"
    if type(v) not in (tuple, list) or not any(isinstance(x, FRep) for x in v):
        return repr(v)
    text = ", ".join([_shown(x) if isinstance(x, FRep) else repr(x) for x in v])
    return f"[{text}]" if type(v) is list else f"({text}{',' * (len(v) == 1)})"


def _checked_atom(r: FRep) -> int:
    # the body of atom r, an int in [0, base) and not a bool: the atom
    # clause of decode's shape rule, which the printers share
    body = r.body
    if isinstance(body, bool) or not 0 <= body < r.base:
        raise RepError(f"atom value {body!r} not in [0, base {r.base})")
    return body


def _check_shape(r: FRep) -> None:
    # the one shape rule of decode, validate and decode_total's atoms: an
    # atom in [0, base), or a non-empty tuple of pairs of non-negative ints
    # with strictly decreasing exponents.  Anything else is a RepError, and
    # an argument that is no rep at all a ValueError
    _check_rep("r", r)
    body = r.body
    if isinstance(body, int):  # r.is_atom, without the property call
        _checked_atom(r)
        return
    prev = None
    for pair in _pair_list(body):
        if type(pair) is not tuple or len(pair) != 2:
            raise RepError(f"{_shown(pair)} is not an (exponent, count) pair")
        e, c = pair
        if type(e) is not int or type(c) is not int or e < 0 or c < 0:  # exactly int: no bool
            raise RepError(f"pair ({_shown(e)},{_shown(c)}) must hold non-negative integers")
        if prev is not None and e >= prev:
            raise RepError(f"exponents not strictly decreasing at {e}")
        prev = e


def _pair_list(body) -> tuple:
    # body as a pair list, a non-empty tuple; else a RepError that names it
    if isinstance(body, tuple) and body:
        return body
    raise RepError("pair list must be " + ("non-empty" if body == () else "a tuple of (exponent, count) pairs"))


def decode(r: FRep, cap: int) -> BoundedNat:
    """Fold the tower back into a number, cutoff-aware.

    Requires the shape invariants (atom below base, strictly decreasing
    exponents); the deeper canonicity constraints are ``validate``'s job.
    They are checked on every call, except on a rep that ``encode`` built.
    A cap that is not a non-negative integer, or an r that is no rep, raises
    ValueError.
    """
    check_nat("cap", cap)
    if not getattr(r, "_shaped", False):
        _check_shape(r)
    v = r.body
    if isinstance(v, int):  # r.is_atom
        return Exact(v) if v <= cap else ExceedsCap(cap)
    y = fold(v, r.base, cap)
    return Exact(y) if y is not None else ExceedsCap(cap)


# ---------------------------------------------------------------------------
# Comparison: lexicographic on pairs, strict prefix smaller.  This matches
# numeric order of the represented values (same base required).


# bound once: on Python 3.11 each read of a member off the Enum class takes
# about 0.2 us, as long as the rest of compare's body
_LT, _EQ, _GT = Ordering.LT, Ordering.EQ, Ordering.GT


def compare(a: FRep, b: FRep) -> Ordering:
    try:
        ka, kb = a.base, b.base
    except AttributeError:  # checked only here, so a rep pays nothing for it
        _check_rep("a", a)
        _check_rep("b", b)
        raise
    if ka != kb:
        raise ValueError(f"cannot compare representations with bases {ka} and {kb}")
    pa, pb = a.body, b.body
    if pa == pb:
        return _EQ
    if type(pa) is type(pb):
        try:
            return _LT if pa < pb else _GT
        except TypeError:
            pass
    # bodies of unequal types, or pairs the tuple compare cannot order: only
    # here is decode's shape rule checked.  Past it, atoms are below the
    # base and pair forms >= base
    for r in (a, b):
        if not getattr(r, "_shaped", False):
            _check_shape(r)
    return _LT if type(pa) is int else _GT


# ---------------------------------------------------------------------------
# Base shift.  Exponent values are re-encoded at the old base and shifted
# recursively; counts stay put (the hereditary variant below shifts both).
# Internal workers use int-or-None with None meaning "exceeds cap"; any
# oversized component forces the total over the cap because the folded value
# dominates every exponent and count that occurs with a positive count.
# `shifted` lives for one public call and maps each value >= k shifted so far
# to its answer, which is the same wherever the value occurs.


def _shift_component(v: int, k: int, m: int, cap: int, hereditary: bool, shifted: dict) -> int | None:
    # v >= k: a value below the base shifts to itself, and no caller passes one
    if v not in shifted:
        shifted[v] = fold(_shifted_pairs(v, k, m, cap, hereditary, shifted), m, cap)
    return shifted[v]


def _shifted_pairs(v: int, k: int, m: int, cap: int, hereditary: bool, shifted: dict):
    # lazily, for fold: a count is shifted only once its exponent fits the cap.
    # Components below the base are their own shifts, so they pass as they are
    for e, c in _pairs(v, k):
        if e >= k:
            e = _shift_component(e, k, m, cap, hereditary, shifted)
        if hereditary and c >= k and e is not None:
            c = _shift_component(c, k, m, cap, hereditary, shifted)
        yield e, c


def _shift(x: int, k: int, m: int, cap: int, hereditary: bool) -> BoundedNat:
    check_nat("from-base", k, 2)
    check_nat("to-base", m, k)
    check_nat("value", x)
    check_nat("cap", cap)
    v = x if x < k else _shift_component(x, k, m, cap, hereditary, {})
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
    """Check r against decode's shape rule, then against canonicity.

    A shape violation is the report's one violation; nothing raises.
    """
    try:
        _check_shape(r)
    except ValueError as err:  # a RepError, or no rep at all
        return ValidationReport(False, (str(err),))
    pairs = () if r.is_atom else r.body
    violations: list[str] = []
    # count bounds: c_p < k_p, probed with the running maximum count as cap
    maxc = max((c for _, c in pairs), default=0)
    chain: int | None = r.base
    for p, (e, c) in enumerate(pairs, start=1):
        if c == 0 and pairs != ((0, 0),):
            violations.append(f"count 0 at pair {p} (only the bare-base [(0,0)] may carry it)")
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
    check_nat("base", k, 2)
    check_nat("value", x)
    if x < k:
        return _built(TRep, k, x)
    # each distinct sub-value >= k is encoded once, then its tree is built
    # once, in increasing order (the components of a pair form lie below its
    # value), and each atom on its first use, so equal sub-trees are shared
    # (TRep is frozen).  Trees are about half as deep as x has bits, so
    # neither pass recurses.
    pairs, todo = {}, [x]
    while todo:
        v = todo.pop()
        if v not in pairs:
            pairs[v] = p = _pairs(v, k)
            for e, c in p:
                if e >= k and e not in pairs:
                    todo.append(e)
                if c >= k and c not in pairs:
                    todo.append(c)
    built = {}
    for v in sorted(pairs):
        body = []
        for e, c in pairs[v]:
            # every value >= k below v is built, so a component that is not is an atom
            if e not in built:
                built[e] = _built(TRep, k, e)
            if c not in built:
                built[c] = _built(TRep, k, c)
            body.append((built[e], built[c]))
        built[v] = _built(TRep, k, tuple(body))
    return built[x]


def _decode_total(t: TRep, cap: int) -> int | None:
    body = t.body
    if isinstance(body, int):  # t.is_atom, without the property call
        if type(body) is not int or not 0 <= body < t.base:
            _checked_atom(t)  # raises
        return body if body <= cap else None
    if fault := _pair_form_fault(body, t.base):  # checked as the walk reaches each node
        raise RepError(fault)
    return fold(_decoded_pairs(body, cap), t.base, cap)


def _decoded_pairs(pairs: tuple, cap: int):
    # lazily, for fold: a count is decoded only once its exponent fits the cap.
    # An over-cap exponent after an exact one exceeds cap >= that one, so it
    # breaks the strict descent too.  An exponent e past cap sinks the fold
    # when its count is positive (F_e^(c)(y) > e > cap, as y >= base >= 2),
    # and passes y on when its count is the atom 0.  An exact exponent after
    # it lies below it; one past the cap too cannot be ordered against it
    # under the cap, so there only a repeat of the same tree is caught.
    prev = over = None
    for e, c in pairs:
        ev = _decode_total(e, cap)
        if prev is not None and (ev is None or ev >= prev):
            raise RepError(f"exponents not strictly decreasing after {prev}")
        try:  # == hashes every body, and past the cap nodes go unchecked
            if ev is None and e == over:
                raise RepError("exponents not strictly decreasing: one past the cap repeats")
        except TypeError:
            raise RepError("a node's body is unhashable, so neither an atom nor a pair list") from None
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
    not a non-negative integer, or a t that is no rep, raises ValueError."""
    check_nat("cap", cap)
    _check_rep("t", t)
    v = _decode_total(t, cap)
    return Exact(v) if v is not None else ExceedsCap(cap)


# ---------------------------------------------------------------------------
# Text form.  Grammar:
#   rep  ::= NAT | "[" pair ("," pair)* "]_" NAT
#   pair ::= "(" item "," item ")"
#   item ::= NAT | rep          (nested bracket items make the rep hereditary)


def _written(r: FRep, nested: bool, text: bool) -> str | dict:
    # pair form r as bracket text or a JSON pair object that its reader reads
    # back: flat if it holds only numbers, else hereditary, each number in it
    # an atom of its bracket's base.  Non-falling exponents and mixed bases
    # are written: decode and validate judge those
    pairs, atoms, top = [], nested, 0
    for p in _pair_list(r.body):  # loops, not comprehensions: one frame per level
        if not (isinstance(p, tuple) and len(p) == 2 and _is_item(p[0]) and _is_item(p[1])):
            raise RepError(f"{_shown(p)} is not an (exponent, count) pair")
        pairs.append(pair := [])
        for v in p:
            if type(v) is not int:
                if not v.is_atom:
                    atoms = True
                    pair.append(_written(v, True, text))
                    continue
                v = _checked_atom(v)
            top = v if v > top else top
            pair.append(str(v))
    if atoms and top >= r.base:
        raise RepError(f"atom value {top} not in [0, base {r.base})")
    if text:
        return "[" + ",".join([f"({e},{c})" for e, c in pairs]) + "]_" + str(r.base)
    return {"base": str(r.base), "pairs": pairs}


def _is_item(v) -> bool:
    return type(v) is int and v >= 0 or isinstance(v, FRep)


def print_rep(r: FRep | TRep) -> str:
    return str(_checked_atom(r)) if r.is_atom else _written(r, False, True)


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
    if base is not None:
        check_nat("base", base, 2)
    return _rep_from_raw(_parse_raw(text), text, base)


# ---------------------------------------------------------------------------
# JSON form.  Big integers travel as decimal strings; hereditary components
# nest objects in place of strings.


def rep_to_json(r: FRep | TRep) -> dict:
    # numbers travel as decimal strings, nested pair forms as objects
    if r.is_atom:
        return {"base": str(r.base), "atom": str(_checked_atom(r))}
    return _written(r, False, False)


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
