"""Bridges between numbers and ordinal terms.

For x >= k >= 2 with representation ``[(e_1,c_1),...,(e_l,c_l)]_k`` the
associated ordinal is

    o_k(x) = w^{code(e_1)} c_1 + ... + w^{code(e_l)} c_l

where ``code`` maps exponent values into ordinal exponents: code(v) = v
below the base and w + o_k(v) above it.  Prefixing w separates the finite
and recursive exponent regimes, which makes o_k strictly monotone and
invariant under base shift.  ``o_map_literal`` keeps the unprefixed reading
code(v) = o_k(v) only so its defect stays reproducible: it is not monotone
(o_2(4) = w while o_2(9) = 2).

On top of the map sit: the membership test for its image D_k (structural,
never materializing the astronomically large preimages), the inverse L_k,
the predecessor-inside-D_k operator Q_k, the zero-padded count profiles
with their flipped variant, and the descending ordinal assignment g_n used
by the slowdown construction.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import sub

from .frep import encode_pairs
from .grzeval import DEFAULT_CAP, BoundedNat, CapExceededError, Exact, ExceedsCap, climb, exceeds
from .order import Record, check_nat
from .ordinals import OMEGA, ONE, ZERO, Ordinal, add, coeff_measure, from_int, omega_pow, predecessor


class NotInDError(ValueError):
    """The ordinal is not the image of any number at this base."""

    def __init__(self, base: int, reason: str):
        super().__init__(f"not in D_{base}: {reason}")
        self.base = base
        self.reason = reason


class MembershipReport(Record):
    __slots__ = _fields = ("member", "base", "skeleton", "reason")


class PaddedProfile(Record):
    """Counts of x placed into n slots (slot q holds the count of exponent n-q),
    together with the chain of intermediate bases m_1 = base,
    m_{q+1} = F_{n-q}^(j_q)(m_q)."""

    __slots__ = _fields = ("n", "base", "j", "m")


# ---------------------------------------------------------------------------
# The forward map


def _check_map_args(x: int, k: int) -> None:
    check_nat("base", k, 2)
    if not isinstance(x, int) or x < k:  # a bool too: True < 2 <= k
        raise ValueError(f"the map needs x >= base, got x={x!r}, base={k}")


# the image o_map built last, as (image, base, x): in_D, L_inverse and Q_pred
# handed that very object at that base read x instead of walking it.  Sound as
# the match is by identity and ordinals are immutable; an equal copy, another
# base or an older image walks.  One tuple, rebound whole and read once, so
# threads can cost a miss but never a wrong answer
_last = (None, 0, 0)


def o_map(x: int, k: int) -> Ordinal:
    """The ordinal associated with x at base k; requires x >= k >= 2.
    Kept with x until the next call, so ``in_D``, ``L_inverse`` and
    ``Q_pred`` asked about it at base k take no walk."""
    global _last
    _check_map_args(x, k)
    a = _image(x, k, False)
    _last = (a, k, x)
    return a


# the exponent codes w, w+1, ..., w+15, built once: for k <= e < 2k the pairs
# of e are [(0, e-k)]_k, so code(e) = w + (e-k).  At base 2 every exponent of
# a value that fits in memory is 2 or 3, so its code is always read here.
_W_PLUS = tuple(add(OMEGA, from_int(n)) for n in range(16))


def _image(x: int, k: int, plus_omega: bool) -> Ordinal:
    # o_k(x), or the exponent code w + o_k(x) when plus_omega, for x >= k.
    # The pairs' exponents strictly fall and code is strictly monotone, so the
    # terms are in normal form as they come: one constructor call per level.
    # The bare-base [(0,0)] contributes nothing: o_k(k) = 0.
    if plus_omega and x - k < min(k, 16):  # the pairs are [(0, x-k)]: code(x) = w + (x-k)
        return _W_PLUS[x - k]
    pairs = encode_pairs(x, k)
    terms = []
    for e, c in pairs:
        if c:
            terms.append((from_int(e) if e < k else _image(e, k, True), c))
    if plus_omega:  # the leading exponent e_1 decides what w + ... does
        e1 = pairs[0][0]
        if e1 == 0:  # x = k included: w + 0 = w
            terms.insert(0, (ONE, 1))
        elif e1 == 1:  # w + w*c = w*(c+1)
            terms[0] = (ONE, terms[0][1] + 1)
        # e_1 >= 2: the leading term w^(code(e_1)) absorbs the w
    return Ordinal(tuple(terms))


def o_map_literal(x: int, k: int) -> Ordinal:
    """o_k with exponents coded as o_k(v) instead of w + o_k(v) above the base.

    Not monotone (o_2(4) = w > 2 = o_2(9)) and not injective
    (o_2(4) = o_2(2048) = w); kept only so that defect is reproducible.
    """
    _check_map_args(x, k)
    # the coding is not monotone, so the terms need add's absorb/merge step
    total = ZERO
    for e, c in encode_pairs(x, k):
        if c:
            total = add(total, omega_pow(from_int(e) if e < k else o_map_literal(e, k), c))
    return total


# ---------------------------------------------------------------------------
# Structural inversion.  A term list decodes to a representation skeleton
# [(v_1,c_1),...]: finite exponents must sit below the base, infinite ones
# split as w + b with b decoded the same way.  Count bounds c_p < k_p are
# then probed against the intermediate-base chain under a bound derived from
# the ordinal itself (the chain outgrows every coefficient as soon as any
# piece leaves the bound, so membership never materializes the full preimage).


def _skeleton(a: Ordinal, k: int, bound: int) -> tuple[list[tuple[int | None, int]], int | None]:
    """Decode a to [(value-or-None, count)], None meaning "above bound",
    together with a's own value (the last intermediate base, None above
    bound).  Raises NotInDError when a has no preimage at base k.

    One walk over the term tuples with a stack of the enclosing term lists,
    so an ordinal of any depth decodes.  A finite exponent is read off its
    one (0, v) term; an infinite exponent w + b is entered as b's terms: one
    w less on a leading w^1 term, or the exponent's own terms when its lead
    absorbs the w.  An exponent w + n, n finite, enters no level: its one
    entry (0, n) gives the value k + n.  No ordinal is built.  An exponent is
    finished, its count checks included, before the next term is read, so
    the reason reported is that of the first violation in post-order.
    """
    stack = []  # enclosing levels: (terms, next index, entries, count of the open term)
    terms, i, entries = a.terms, 0, []
    while True:
        if i < len(terms):
            e, c = terms[i]
            i += 1
            et = e.terms
            if not et or not et[0][0].terms:  # finite: 0, or the one term (0, v)
                v = et[0][1] if et else 0
                if v >= k:
                    raise NotInDError(k, f"finite exponent {v} not below base {k}")
                entries.append((v, c))
                continue
            lead, lc = et[0]
            lt = lead.terms  # not its key: a tower level builds that on first read
            if len(lt) == 1 and lt[0][1] == 1 and not lt[0][0].terms:  # w^1*lc + ...: peel one w
                if lc == 1 and (len(et) == 1 or len(et) == 2 and not et[1][0].terms):  # w + n
                    n = et[1][1] if len(et) == 2 else 0
                    if n >= k:
                        raise NotInDError(k, f"count {n} at position 1 not below intermediate base {k}")
                    entries.append((k + n if k + n <= bound else None, c))
                    continue
                et = ((lead, lc - 1),) + et[1:] if lc > 1 else et[1:]
            stack.append((terms, i, entries, c))
            terms, i, entries = et, 0, []
            continue
        # count bounds against the intermediate-base chain
        chain = k
        for p, (v, c) in enumerate(entries, start=1):
            if c >= chain:
                raise NotInDError(k, f"count {c} at position {p} not below intermediate base {chain}")
            j, chain = climb(v, chain, bound, c) if v is not None else (-1, None)
            if j < c:
                chain = None
                break  # above bound >= every coefficient of a
        if not stack:
            return entries, chain
        terms, i, entries, c = stack.pop()
        entries.append((chain, c))


def _check_ordinal(a: Ordinal) -> None:
    if not isinstance(a, Ordinal):
        raise ValueError(f"argument a must be an Ordinal, got {a!r}")


def _membership_bound(a: Ordinal, k: int) -> int:
    return max(4, k, coeff_measure(a)) + 1


# the skeleton values 0..15 as records, built once: records are immutable, so
# every report shares them
_EXACT = tuple(map(Exact, range(16)))


def in_D(a: Ordinal, k: int) -> MembershipReport:
    """Decide whether a is the image of some number at base k, structurally.

    On the image ``o_map`` built last, at its base, the skeleton is read off
    x's pairs, as the walk would read it.  An a that is not an Ordinal raises
    ValueError.
    """
    _check_ordinal(a)
    check_nat("base", k, 2)
    if a.is_zero:
        return MembershipReport(True, k, ((_EXACT[0], 0),), None)
    img, base, x = _last
    if img is a and base == k:  # a's terms are the pairs (e, c) of x > k, all with c > 0
        # each e is exact: at most k + 1, below the walk's bound, as e >= k + 2
        # needs x >= F_{k+2}(k) >= F_4(2), which no int in memory reaches
        skel = tuple([(_EXACT[e] if e < 16 else Exact(e), c) for e, c in encode_pairs(x, k)])
        return MembershipReport(True, k, skel, None)
    bound = _membership_bound(a, k)
    try:
        entries, _ = _skeleton(a, k, bound)
    except NotInDError as err:
        return MembershipReport(False, k, None, err.reason)
    over = ExceedsCap(bound)
    skel = tuple([(over if v is None else _EXACT[v] if v < 16 else Exact(v), c) for v, c in entries])
    return MembershipReport(True, k, skel, None)


def _preimage(a: Ordinal, k: int, cap: int) -> int | None:
    # L_inverse's checks of k and the cap, and its walk, for an a already
    # checked: a's preimage, None when it is above the cap.  No walk on the
    # image o_map built last, at its base
    check_nat("base", k, 2)
    check_nat("cap", cap)
    img, base, v = _last
    if img is not a or base != k:
        _, v = _skeleton(a, k, max(cap, _membership_bound(a, k)))
    return v if v is not None and v <= cap else None


def L_inverse(a: Ordinal, k: int, cap: int = DEFAULT_CAP) -> BoundedNat:
    """The unique x >= k with o_map(x, k) = a, cutoff-aware.

    Raises NotInDError when no preimage exists; returns ExceedsCap when the
    preimage exists structurally but its value is above the cap.  An a that
    is not an Ordinal, or a cap that is not a non-negative integer, raises
    ValueError.
    """
    _check_ordinal(a)
    v = _preimage(a, k, cap)
    return ExceedsCap(cap) if v is None else Exact(v)


def Q_pred(a: Ordinal, k: int, cap: int = DEFAULT_CAP) -> Ordinal:
    """The largest member of D_k strictly below a; requires a in D_k, a > 0.

    Raises CapExceededError when a's preimage is above the cap, and checks
    a, k and the cap as ``L_inverse`` does.
    """
    _check_ordinal(a)
    if a.is_zero:
        raise ValueError("the zero ordinal has no predecessor inside D_k")
    x = _preimage(a, k, cap)
    if x is None:
        raise CapExceededError(cap)
    if not a.terms[-1][0].terms:  # a successor: x ends in (0, c), c >= 1, and x - 1 in (0, c - 1)
        return predecessor(a)  # every other pair kept, so Q_k(a) = a - 1 with no encode
    return _image(x - 1, k, False)  # x > k, as a > 0 = o_k(k)


# ---------------------------------------------------------------------------
# Padded count profiles and their flip


def profile(x: int, n: int, k: int) -> PaddedProfile:
    """Spread the counts of x over n slots (zeros where an exponent is absent).

    Defined for base <= x < F_n(base) with n > 0; the bound is checked
    without evaluating F_n(base).
    """
    check_nat("slot count", n, 1)
    check_nat("base", k, 2)
    check_nat("x", x, k)
    if not exceeds(n, 1, k, x):
        raise ValueError(f"x={x} is not below F_{n}({k})")
    j, m = _counts(x, n, k)
    return PaddedProfile(n=n, base=k, j=tuple(j), m=tuple(m))


def _counts(x: int, n: int, k: int) -> tuple[list[int], list[int]]:
    # the counts j and bases m of profile(x, n, k), for checked arguments and
    # without the record: g_window flips them for each rank
    j = [0] * n
    for e, c in encode_pairs(x, k):
        assert e < n  # guaranteed by x < F_n(k)
        j[n - e - 1] = c
    m = [k]
    for q in range(1, n):  # m_{q+1} = F_{n-q}^(j_q)(m_q), all values <= x
        i, nxt = climb(n - q, m[-1], x, j[q - 1])
        assert i == j[q - 1]
        m.append(nxt)
    return j, m


def flip(p: PaddedProfile) -> tuple[int, ...]:
    """The flipped profile (m_1 - j_1, ..., m_n - j_n); entries are positive
    and reverse the order: larger x gives a lexicographically smaller flip."""
    try:
        m, j = p.m, p.j
    except AttributeError:  # checked only once the read has failed, so a profile pays nothing
        if not isinstance(p, PaddedProfile):
            raise ValueError(f"argument p must be a PaddedProfile, got {p!r}")
        raise
    out = tuple(mq - jq for mq, jq in zip(m, j))
    assert all(v >= 1 for v in out)
    return out


# ---------------------------------------------------------------------------
# The descending assignment g_n


def g(n: int, k: int, x: int) -> Ordinal:
    """Ordinal rank of x in the window [0, F_n(k)): strictly decreasing in x,
    zero from F_n(k) on, with all coefficients below max(n, k+1, x)+1.
    The one-element case of ``g_window``."""
    return g_window(n, k, x, 1)[0]


def g_window(n: int, k: int, x: int, count: int) -> list[Ordinal]:
    """[g(n, k, y) for y in range(x, x + count)], the arguments checked once.

    The ranks of y < k share one exponent object (n itself), and the ranks
    from F_n(k) on are ZERO; count 0 gives the empty window.  The one-window
    case of ``g_windows``."""
    return g_windows(n, ((k, x, count),))[0]


def g_windows(n: int, windows: Iterable[tuple[int, int, int]]) -> list[list[Ordinal]]:
    """[g_window(n, k, x, count) for k, x, count in windows], each window
    checked as ``g_window`` checks it: the blocks of a slowdown.  A rank
    below the base, w^n * (k - y), is one object per coefficient for the
    call, so windows at neighbouring bases share theirs; no window, no check."""
    below, out = {}, []  # below: c -> w^n * c, each built once for the call
    for k, x, count in windows:
        check_nat("base", k, 2)
        for v in (n, x, count):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError("slot count and value must be non-negative integers")
        stop = x + count
        if n == 0:
            out.append([from_int(max(0, (k + 1) - y)) for y in range(x, stop)])
            continue
        e, ranks = from_int(n), []
        for c in range(k - x, max(0, k - stop), -1):  # the coefficients c = k - y of the window's y < k
            r = below.get(c)
            if r is None:
                r = below[c] = omega_pow(e, c)
            ranks.append(r)
        exps = list(map(from_int, range(n - 1, -1, -1))) if k < stop else ()  # the profile part's: n-1, ..., 0
        for y in range(max(k, x), stop):
            if not exceeds(n, 1, k, y):  # y >= F_n(k), and so is every later y
                ranks += [ZERO] * (stop - y)
                break
            j, m = _counts(y, n, k)
            ranks.append(Ordinal(tuple(zip(exps, map(sub, m, j)))))  # the flip m_q - j_q
        out.append(ranks)
    return out
