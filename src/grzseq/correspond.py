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

from dataclasses import dataclass

from .frep import encode
from .grzeval import BoundedNat, CapExceededError, Exact, ExceedsCap, exceeds, fold
from .ordinals import ONE, ZERO, Ordinal, add, coeff_measure, from_int, omega_pow


class NotInDError(ValueError):
    """The ordinal is not the image of any number at this base."""

    def __init__(self, base: int, reason: str):
        super().__init__(f"not in D_{base}: {reason}")
        self.base = base
        self.reason = reason


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    base: int
    skeleton: tuple[tuple[BoundedNat, int], ...] | None
    reason: str | None


@dataclass(frozen=True)
class PaddedProfile:
    """Counts of x placed into n slots (slot q holds the count of exponent n-q),
    together with the chain of intermediate bases m_1 = base,
    m_{q+1} = F_{n-q}^(j_q)(m_q)."""

    n: int
    base: int
    j: tuple[int, ...]
    m: tuple[int, ...]


# ---------------------------------------------------------------------------
# The forward map


def _check_map_args(x: int, k: int) -> None:
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"base must be an integer >= 2, got {k!r}")
    if not isinstance(x, int) or x < k:
        raise ValueError(f"the map needs x >= base, got x={x!r}, base={k}")


def o_map(x: int, k: int) -> Ordinal:
    """The ordinal associated with x at base k; requires x >= k >= 2."""
    _check_map_args(x, k)
    return _image(x, k, False)


def _image(x: int, k: int, plus_omega: bool) -> Ordinal:
    # o_k(x), or the exponent code w + o_k(x) when plus_omega, for x >= k.
    # encode's exponents strictly fall and code is strictly monotone, so the
    # terms are in normal form as they come: one constructor call per level.
    # The bare-base [(0,0)] contributes nothing: o_k(k) = 0.
    pairs = encode(x, k).pairs
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
    for e, c in encode(x, k).pairs:
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
    absorbs the w.  No ordinal is built.  An exponent is finished, its count
    checks included, before the next term is read, so the reason reported is
    that of the first violation in post-order.
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
            lt = lead.terms
            if len(lt) == 1 and lt[0][1] == 1 and not lt[0][0].terms:  # lead is 1
                et = ((lead, lc - 1),) + et[1:] if lc > 1 else et[1:]
            stack.append((terms, i, entries, c))
            terms, i, entries = et, 0, []
            continue
        # count bounds against the intermediate-base chain
        chain = k
        for p, (v, c) in enumerate(entries, start=1):
            if c >= chain:
                raise NotInDError(k, f"count {c} at position {p} not below intermediate base {chain}")
            chain = fold(((v, c),), chain, bound)
            if chain is None:
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


def in_D(a: Ordinal, k: int) -> MembershipReport:
    """Decide whether a is the image of some number at base k, structurally.

    An a that is not an Ordinal raises ValueError.
    """
    _check_ordinal(a)
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"base must be an integer >= 2, got {k!r}")
    if a.is_zero:
        return MembershipReport(True, k, ((Exact(0), 0),), None)
    bound = _membership_bound(a, k)
    try:
        entries, _ = _skeleton(a, k, bound)
    except NotInDError as err:
        return MembershipReport(False, k, None, err.reason)
    skel = tuple(
        (Exact(v) if v is not None else ExceedsCap(bound), c) for v, c in entries
    )
    return MembershipReport(True, k, skel, None)


def L_inverse(a: Ordinal, k: int, cap: int = 10**7) -> BoundedNat:
    """The unique x >= k with o_map(x, k) = a, cutoff-aware.

    Raises NotInDError when no preimage exists; returns ExceedsCap when the
    preimage exists structurally but its value is above the cap.  An a that
    is not an Ordinal, or a cap that is not a non-negative integer, raises
    ValueError.
    """
    _check_ordinal(a)
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"base must be an integer >= 2, got {k!r}")
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
        raise ValueError(f"cap must be a non-negative integer, got {cap!r}")
    _, v = _skeleton(a, k, max(cap, _membership_bound(a, k)))
    return Exact(v) if v is not None and v <= cap else ExceedsCap(cap)


def Q_pred(a: Ordinal, k: int, cap: int = 10**7) -> Ordinal:
    """The largest member of D_k strictly below a; requires a in D_k, a > 0.

    Raises CapExceededError when a's preimage is above the cap, and checks
    a, k and the cap as ``L_inverse`` does.
    """
    _check_ordinal(a)
    if a.is_zero:
        raise ValueError("the zero ordinal has no predecessor inside D_k")
    x = L_inverse(a, k, cap)
    if isinstance(x, ExceedsCap):
        raise CapExceededError(cap)
    return _image(x.value - 1, k, False)  # x > k, as a > 0 = o_k(k)


# ---------------------------------------------------------------------------
# Padded count profiles and their flip


def profile(x: int, n: int, k: int) -> PaddedProfile:
    """Spread the counts of x over n slots (zeros where an exponent is absent).

    Defined for base <= x < F_n(base) with n > 0; the bound is checked
    without evaluating F_n(base).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"slot count must be a positive integer, got {n!r}")
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"base must be an integer >= 2, got {k!r}")
    if not isinstance(x, int) or x < k:
        raise ValueError(f"need x >= base, got x={x!r}, base={k}")
    if not exceeds(n, 1, k, x):
        raise ValueError(f"x={x} is not below F_{n}({k})")
    return _profile(x, n, k)


def _profile(x: int, n: int, k: int) -> PaddedProfile:
    # profile's body, for arguments already checked
    j = [0] * n
    for e, c in encode(x, k).pairs:
        assert e < n  # guaranteed by x < F_n(k)
        j[n - e - 1] = c
    m = [k]
    for q in range(1, n):  # m_{q+1} = F_{n-q}^(j_q)(m_q), all values <= x
        nxt = fold(((n - q, j[q - 1]),), m[-1], x)
        assert nxt is not None
        m.append(nxt)
    return PaddedProfile(n=n, base=k, j=tuple(j), m=tuple(m))


def flip(p: PaddedProfile) -> tuple[int, ...]:
    """The flipped profile (m_1 - j_1, ..., m_n - j_n); entries are positive
    and reverse the order: larger x gives a lexicographically smaller flip."""
    out = tuple(mq - jq for mq, jq in zip(p.m, p.j))
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
    from F_n(k) on are ZERO; count 0 gives the empty window.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"base must be an integer >= 2, got {k!r}")
    for v in (n, x, count):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError("slot count and value must be non-negative integers")
    stop = x + count
    if n == 0:
        return [from_int(max(0, (k + 1) - y)) for y in range(x, stop)]
    e = from_int(n)
    out = [omega_pow(e, k - y) for y in range(x, min(k, stop))]
    for y in range(max(k, x), stop):
        if not exceeds(n, 1, k, y):  # y >= F_n(k), and so is every later y
            out += [ZERO] * (stop - y)
            break
        fl = flip(_profile(y, n, k))
        out.append(Ordinal(tuple((from_int(n - q), fl[q - 1]) for q in range(1, n + 1))))
    return out
