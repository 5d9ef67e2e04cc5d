"""Cantor normal form ordinal terms below epsilon_0.

An ordinal is a finite sum  w^{a_1} n_1 + ... + w^{a_m} n_m  with strictly
decreasing ordinal exponents and positive integer coefficients; the empty
sum is 0.  Construction normalizes nothing and validates everything, so an
``Ordinal`` in hand is always in normal form; the builders that make sure of
the normal form themselves skip that second check.

Supported arithmetic is what descending-chain bookkeeping needs: comparison,
addition, the predecessor of a successor, left multiplication by w^w,
towers w_0 = 1, w_{n+1} = w^{w_n}, left subtraction of a single w, and the
hereditary maximal-coefficient measure C.
"""

from __future__ import annotations

from collections.abc import Iterable

from .order import Ordering, ParseError, Record, check_nat, nat, number, offset, tokens

# Key markers: CLOSE < OPEN < every coefficient.
OPEN, CLOSE = 0, -1


class Ordinal(Record):
    """Order, equality, hashing and C all come from ``key``, the flat token
    tuple (OPEN, *e_1.key, c_1, ..., *e_m.key, c_m, CLOSE).  Where two keys
    first differ is inside two exponents, at two coefficients of equal
    exponents, or at the CLOSE of a shorter term list against the OPEN of a
    further term, so lexicographic key order is CNF order.  Each node holds
    its own key, built once from its children's: O(subtree size) per node,
    except deep tower levels (``_Tower``) and a slowdown's block entries
    (``_Join``), whose keys wait for a reader."""

    __slots__ = ("terms", "key")
    _fields = ("terms",)

    def __init__(self, terms: tuple[tuple[Ordinal, int], ...] = ()):
        _set_terms(self, terms)
        key = [OPEN]
        prev = None
        for e, c in terms:
            if not isinstance(e, Ordinal):
                raise ValueError(f"exponent {e!r} is not an Ordinal")
            if type(c) is not int or c < 1:  # an exact positive int skips the call, as in omega_pow
                check_nat("coefficient", c, 1)
            ek = e.key
            if prev is not None and prev <= ek:
                raise ValueError("exponents must be strictly decreasing")
            key += ek
            key.append(c)
            prev = ek
        key.append(CLOSE)
        _set_key(self, tuple(key))

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

    def __init__(self, terms: tuple[tuple[Ordinal, int], ...]):
        _set_terms(self, terms)  # omega_pow, its one builder, checked the term

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
        _set_key(self, key)
        return key


def _deferred(slot, build):
    # a slot of Ordinal's that _Join fills on its first read, from build(self),
    # and then keeps.  A property, not _Tower's __getattr__: a class with a
    # __getattr__ pays on every attribute read, about 4x a slot read, and a
    # join's a and b are read for each entry of a slow chain
    get, put = slot.__get__, slot.__set__

    def read(self):
        try:
            return get(self)
        except AttributeError:  # the first read
            value = build(self)
            put(self, value)
            return value

    return property(read)


class _Join(Ordinal):
    """a + b with every exponent of b below the last of a, so nothing is
    absorbed: an entry w^w*a_k + rank of a slowdown block, built by
    ``add_each``.  It holds a and b; its terms and key, theirs joined, wait
    for a reader as a _Tower's key does.  ``verify_slow`` and
    ``chain_to_text`` read a and b instead.  A copy or a pickle is a plain
    Ordinal."""

    __slots__ = ("a", "b")
    terms = _deferred(Ordinal.terms, lambda self: self.a.terms + self.b.terms)
    key = _deferred(Ordinal.key, lambda self: self.a.key[:-1] + self.b.key[1:])

    def __lt__(self, other):
        # a join against a join builds neither key where the heads decide: one
        # head object, or heads that differ in a term both of them have
        if type(other) is _Join:
            a, b = self.a, other.a
            if a is b:
                return self.b.key < other.b.key
            at, bt = a.terms, b.terms
            n = min(len(at), len(bt))
            if at[:n] != bt[:n]:
                return a.key < b.key
        return Ordinal.__lt__(self, other)

    def __reduce__(self):
        return Ordinal, (self.terms,)


# the slots' own setters, bound once: each is about a third cheaper than
# object.__setattr__ by name
_new, _set_terms, _set_key = object.__new__, Ordinal.terms.__set__, Ordinal.key.__set__
_set_a, _set_b = _Join.a.__set__, _Join.b.__set__

# omega_pow over an exponent with a longer key defers the key: about 20
# levels of w^(w^(...)) are built eagerly
_EAGER_EXPONENT_KEY = 64

ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def _ordinal(terms: tuple, key: tuple) -> Ordinal:
    # an Ordinal without the constructor's checks, for the builders that have
    # made sure that terms are in normal form and that key is theirs
    a = _new(Ordinal)
    _set_terms(a, terms)
    _set_key(a, key)
    return a


def _sum(terms: tuple) -> Ordinal:
    # an Ordinal of terms already in normal form, its key joined from theirs
    key = [OPEN]
    for e, c in terms:
        key += e.key
        key.append(c)
    key.append(CLOSE)
    return _ordinal(terms, tuple(key))


# the finite ordinals 0..15, built once, so that from_int allocates nothing
# for them (o_map's exponents below the base, for one)
_SMALL = (ZERO, ONE, *(_sum(((ZERO, n),)) for n in range(2, 16)))


def from_int(n: int) -> Ordinal:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"expected a non-negative integer, got {n!r}")
    return _SMALL[n] if n < 16 else _sum(((ZERO, n),))


def omega_pow(e: Ordinal, coeff: int = 1) -> Ordinal:
    """w^e * coeff as a single-term ordinal."""
    if not isinstance(e, Ordinal):
        raise ValueError(f"exponent {e!r} is not an Ordinal")
    if type(coeff) is not int or coeff < 1:  # an exact positive int skips the call
        check_nat("coefficient", coeff, 1)
    if type(e) is _Tower or len(e.key) > _EAGER_EXPONENT_KEY:
        return _Tower(((e, coeff),))
    return _ordinal(((e, coeff),), (OPEN, *e.key, coeff, CLOSE))


def _refuse(**args) -> None:
    # reached only once an attribute read has failed, so an Ordinal pays
    # nothing for the check; the message is correspond's
    for name, v in args.items():
        if not isinstance(v, Ordinal):
            raise ValueError(f"argument {name} must be an Ordinal, got {v!r}")


def compare(a: Ordinal, b: Ordinal) -> Ordering:
    try:
        ka, kb = a.key, b.key
    except AttributeError:
        _refuse(a=a, b=b)
        raise
    if ka == kb:
        return Ordering.EQ
    return Ordering.LT if ka < kb else Ordering.GT


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition: terms of a below b's leading exponent are absorbed."""
    try:
        terms, bt = a.terms, b.terms
    except AttributeError:
        _refuse(a=a, b=b)
        raise
    if not bt:
        return a
    lead = bt[0][0]
    lk = lead.key
    i = 0  # exponents compared by key, as the operators would, without their calls
    while i < len(terms) and terms[i][0].key > lk:
        i += 1
    if i < len(terms) and terms[i][0].key == lk:
        return _sum(terms[:i] + ((lead, terms[i][1] + bt[0][1]),) + bt[1:])
    return _sum(terms[:i] + bt) if i else b  # i = 0: all of a absorbed


def predecessor(a: Ordinal) -> Ordinal:
    """a - 1 for a successor a, whose last term is finite: that term's
    coefficient one less, or the term dropped at coefficient 1.  Zero and
    limit ordinals raise ValueError."""
    try:
        terms = a.terms
    except AttributeError:
        _refuse(a=a)
        raise
    if not terms or terms[-1][0].terms:
        raise ValueError(f"{'zero' if not terms else 'a limit ordinal'} has no predecessor")
    c = terms[-1][1]  # the key ends (..., OPEN, CLOSE, c, CLOSE)
    if c > 1:
        return _ordinal(terms[:-1] + ((ZERO, c - 1),), a.key[:-2] + (c - 1, CLOSE))
    return _ordinal(terms[:-1], a.key[:-4] + (CLOSE,))


def add_each(a: Ordinal, bs: Iterable[Ordinal]) -> list[Ordinal]:
    """[add(a, b) for b in bs], with a's terms read once: a block of the
    slowdown, one lifted entry plus each of its ranks.  Where nothing is
    absorbed the entry is a join that holds a and b, one object each."""
    terms = a.terms
    last = terms[-1][0].key if terms else ()  # () is below every key: nothing to join
    out = []
    for b in bs:
        bt = b.terms
        if bt and last > bt[0][0].key:
            r = _new(_Join)
            _set_a(r, a)
            _set_b(r, b)
        else:
            r = add(a, b)
        out.append(r)
    return out


def coeff_measure(a: Ordinal) -> int:
    """C(a): the largest coefficient occurring hereditarily; C(0) = 0."""
    try:
        key = a.key
    except AttributeError:
        _refuse(a=a)
        raise
    return max(key)  # markers are <= 0


def mul_omega_omega(a: Ordinal) -> Ordinal:
    """w^w * a (order-preserving): every exponent e lifted to w + e.
    The one-element case of ``lift_each``."""
    return lift_each((a,))[0]


def lift_each(alphas: Iterable[Ordinal]) -> list[Ordinal]:
    """[mul_omega_omega(a) for a in alphas]: every exponent e gains a leading
    w, and each exponent object is lifted to w + e once, in a table by id that
    keeps it beside its lift.  The lifted entries of a slowdown."""
    lifts, out = {}, []
    for a in alphas:
        terms = []
        for e, c in a.terms:  # e -> w + e is strictly increasing, so the exponents still fall
            lift = lifts.get(id(e))
            if lift is None:
                lift = lifts[id(e)] = (e, add(OMEGA, e))
            terms.append((lift[1], c))
        out.append(_sum(tuple(terms)))
    return out


def omega_tower(n: int) -> Ordinal:
    """w_0 = 1 and w_{n+1} = w^{w_n}."""
    check_nat("tower height", n)
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
# ignored.  Reading or writing one keeps a table for the call: the reader's
# builds each sub-term the lines share once, and the writer's formats the
# head "w^(E)*" of each distinct exponent, the text of each distinct term
# tuple and that of each head and rank of a join once.  One ordinal is the
# one-line case.


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


def _print(a: Ordinal, heads: dict) -> str:
    # a term prints as its exponent's head ("" for exponent 0) and then its
    # coefficient.  The table keys by id each term tuple to its text, as a
    # slowdown's blocks share their lifted and rank terms, and each exponent
    # to its head, as the reader's terms are fresh tuples over shared
    # exponents.  It keeps each object beside its text, so no other takes its id
    if not a.terms:
        return "0"
    out = []
    for t in a.terms:
        text = heads.get(id(t))
        if text is None:
            e, c = t
            head = heads.get(id(e))
            if head is None:
                head = heads[id(e)] = (e, f"w^({_key_text(e.key)})*" if e.terms else "")
            text = heads[id(t)] = (t, f"{head[1]}{c}")
        out.append(text[1])
    return "+".join(out)


def print_ordinal(a: Ordinal) -> str:
    return _print(a, {})


def chain_to_text(entries: Iterable[Ordinal]) -> str:
    # a join prints as its head's text, "+" and its rank's, each one's text
    # formatted once per call and kept by id beside it in a table of its own:
    # an ordinal's text is not its head as an exponent
    heads, texts, out = {}, {}, []
    for a in entries:
        if type(a) is _Join:
            head, rank = texts.get(id(a.a)), texts.get(id(a.b))
            if head is None:
                head = texts[id(a.a)] = (a.a, _print(a.a, heads))
            if rank is None:
                rank = texts[id(a.b)] = (a.b, _print(a.b, heads))
            out.append(f"{head[1]}+{rank[1]}")
        else:
            out.append(_print(a, heads))
    return "\n".join(out) + "\n"


def _normal(terms: list, shared: dict) -> Ordinal:
    # the sum of (exponent, coefficient) terms read left to right, one object
    # per value for the call: equal exponents already are one object, and
    # each object built stays in the table, so no id in it is reused.  A lone
    # term is known by its exponent's id and any coefficient past 1, so a
    # tower level builds no key; a finite one below 16 is from_int's, as the
    # sugar w and w^NAT read.  A longer sum is known by its key, the tuple it
    # keeps, joined in the pass that checks that its exponents fall; terms
    # that do not fall are normalized first.  No id equals OPEN, a key's first.
    if len(terms) == 1:
        e, c = terms[0]
        if e is ZERO and c < 16:
            return _SMALL[c]
        known = id(e) if c == 1 else (id(e), c)
        a = shared.get(known)
        if a is None:
            a = shared[known] = omega_pow(e, c) if e.terms else _sum(((ZERO, c),))
        return a
    if terms:
        key, prev = [OPEN], (1,)  # (1,) is above every key, as each starts with OPEN = 0
        for e, c in terms:
            ek = e.key
            if ek >= prev:
                break
            key += ek
            key.append(c)
            prev = ek
        else:
            key.append(CLOSE)
            key = tuple(key)
            a = shared.get(key)
            if a is None:
                a = shared[key] = _ordinal(tuple(terms), key)
            return a
        # exponents that do not fall, normalized right to left: a term below
        # the running lead is absorbed, an equal one merges
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
        return _normal(out, shared)
    return ZERO  # the empty sum


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
            # w^w and w^NAT read as the groups w^(w) and w^(NAT) do: one object each
            n = 1 if tok == "w" else number(text, toks, i + 2)
            exp = _normal([(ONE if tok == "w" else ZERO, n)] if n else [], shared)
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
                digits = tok[tok.index("*") + 1:].lstrip()
                try:
                    c = int(digits)
                except ValueError:  # past the interpreter's int/str digit limit
                    raise ParseError("number too long",
                                     offset(text, i - 1) + len(tok) - len(digits)) from None
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
