"""Compression of descending ordinal chains into slowly-growing ones.

Given a strictly descending chain a_0 > a_1 > ... (finite prefix, nonzero
except possibly the last entry) and an index n such that every measure
C(a_{k+1}) is bounded by F_n(max(2,k)), the construction emits a strictly
descending chain g_0 > g_1 > ... whose coefficients obey C(g_i) <= i + 1:

* a tower prefix g_i = w_{N-i} for i < ell = max(c, C(a_0), n - 1), with N
  minimal such that w_{N-ell} > w^w * a_0;
* past the prefix, i decomposes uniquely (greedily, largest k) as
  i = C(a_0) + ... + C(a_k) + x with x < C(a_{k+1}), and
  g_i = w^w * a_k + rank(n, k, x) where rank is the windowed descending
  assignment from the correspondence module.  A rank's C can reach n, so
  the prefix runs at least to i = n - 2, and C(g_i) <= i + 1 holds past it.

Cross-block descent rides on w^w-multiplication preserving order; descent
within a block on the rank's strict descent in x.  The emitted prefix covers
every i decomposable inside the given finite chain.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .grzeval import exceeds
from .order import Record, check_nat
from .ordinals import (  # the chain-file reader and writer sit beside the ordinal text form
    ONE,
    Ordinal,
    add_each,
    chain_to_text,
    coeff_measure,
    lift_each,
    omega_pow,
    parse_chain_text,
)


# compress's bounds on what it returns.  A term takes about 200 bytes to
# build and as many again to print: `chain slowdown` peaks near 380 MB at
# 2^20 terms.  Line i of the tower prefix nests N - i levels, so the prefix's
# text and keys grow as its length squared: 3,000 lines peak near 250 MB
_MAX_TERMS = 1 << 20
_MAX_PREFIX = 3000


class SlowChain(Record):
    __slots__ = _fields = ("entries", "tower_prefix_len", "tower_height_base", "note")  # the two ints: ell and N
    _defaults = (None,)


class SlowReport(Record):
    __slots__ = _fields = ("ok", "violations")


def slow_g(n: int, k: int, x: int) -> Ordinal:
    """The single-function slowdown rank: the windowed assignment at base
    max(2, k), for a caller-chosen hierarchy index n >= 1 bounding the
    function being slowed."""
    from .correspond import g  # here, not at the top: reading and checking a chain needs no codec

    check_nat("hierarchy index", n, 1)
    check_nat("k", k)
    check_nat("x", x)
    return g(n, max(2, k), x)


def _validate_chain(alphas: Sequence[Ordinal]) -> None:
    if len(alphas) == 0:
        raise ValueError("chain must hold at least one entry")
    for i, a in enumerate(alphas):
        if not isinstance(a, Ordinal):
            raise ValueError(f"entry {i} must be an Ordinal, got {a!r}")
    # strict descent already forces any zero to the last slot
    for i, (a, b) in enumerate(zip(alphas, alphas[1:])):
        if not b < a:
            raise ValueError(f"chain not strictly descending at entries {i}, {i + 1}")


def compress(alphas: Sequence[Ordinal], n: int, c: int) -> SlowChain:
    """Emit the slow chain for a finite descending prefix.

    Rejects chains that are not strictly descending (or zero before the
    end), and indices n whose hierarchy level fails to bound the coefficient
    measures C(a_{k+1}) <= F_n(max(2,k)).  The tower prefix is max(c, C(a_0),
    n - 1) entries long, so no rank, whose C can reach n, sits before i = n - 1.

    Before it builds anything, refuses an output past either of two bounds
    with a ValueError that names the bound.  The tower prefix, whose text
    and keys grow as the square of its length, holds at most 3,000 entries.
    The chain holds max(ell, C(a_0) + ... + C(a_last)) entries: the prefix's
    are one term each, and each later one is counted as n + 1 terms plus the
    most terms of any a_k.  They may hold at most 2^20 terms in all.
    """
    from .correspond import g_windows

    _validate_chain(alphas)
    check_nat("hierarchy index", n, 1)
    check_nat("constant", c)
    measures = [coeff_measure(a) for a in alphas]
    for k in range(len(alphas) - 1):
        ck = measures[k + 1]
        # need F_n(max(2,k)) >= C(a_{k+1}), i.e. the value exceeds C-1
        if ck > 0 and not exceeds(n, 1, max(2, k), ck - 1):
            raise ValueError(
                f"index n={n} too small: C(entry {k + 1}) = {ck} "
                f"is not bounded by F_{n}({max(2, k)})"
            )

    ell = max(c, measures[0], n - 1)
    if ell > _MAX_PREFIX:
        raise ValueError(f"a tower prefix of {ell} entries is past the bound of {_MAX_PREFIX}")
    total = sum(measures)
    size = ell + max(0, total - ell) * (n + 1 + max(len(a.terms) for a in alphas))
    if size > _MAX_TERMS:
        raise ValueError(f"a slow chain of up to {size} terms is past the bound of {_MAX_TERMS}")
    lifted = lift_each(alphas)  # w^w * a_k, each distinct exponent lifted once
    target = lifted[0]
    tower, t = ONE, 0
    while tower <= target:
        tower, t = omega_pow(tower), t + 1
    height = ell + t  # N minimal with w_{N-ell} > w^w * a_0
    entries: list[Ordinal] = []
    for _ in range(ell):  # w_{N-ell+1}, ..., w_N, one w^ step each
        tower = omega_pow(tower)
        entries.append(tower)
    entries.reverse()
    note = None
    if ell >= total:
        note = (
            f"tower prefix (length {ell}) already covers every index "
            f"decomposable in this prefix (total measure {total})"
        )
    windows, start = [], 0
    for k in range(len(alphas) - 1):  # block k: i = start + x with x < C(a_{k+1})
        start += measures[k]  # C(a_0) + ... + C(a_k)
        lo = max(0, ell - start)
        windows.append((max(2, k), lo, max(0, measures[k + 1] - lo)))
    # w^w * a_k + rank: every exponent of w^w * a_k is at least w and every
    # exponent of the rank is finite, so add_each joins the two, one object each
    for a, ranks in zip(lifted, g_windows(n, windows)):
        entries += add_each(a, ranks)
    return SlowChain(tuple(entries), ell, height, note)


def verify_slow(s: SlowChain | Iterable[Ordinal]) -> SlowReport:
    """Check strict descent and the coefficient bound C(entry_i) <= i + 1."""
    # an entry of a compress block is read as its lifted head and its rank
    # (ordinals.add_each): two neighbours that hold one head object descend
    # as their ranks' keys do, since every exponent of a rank lies below every
    # exponent of its head, and C is the larger of the two's.  Any other pair
    # is ordered by its keys (a join orders itself by its heads' where they
    # decide), and any other entry's C is the largest of its coefficients and
    # its exponents' C.  Each ordinal's C is taken once per call, kept by id
    # beside the ordinal itself
    entries = list(s.entries if isinstance(s, SlowChain) else s)
    violations, bounds, measures = [], [], {}
    prev = prev_head = low = None
    try:
        for i, a in enumerate(entries):
            head = getattr(a, "a", None)  # a join's head; None: no join, or no Ordinal
            if head is None:
                if i and not a.key < prev.key:  # only an entry that is no Ordinal has no key
                    violations.append(f"entries {i - 1} and {i} do not descend")
                m = 0
                for e, c in a.terms:
                    if c > m:
                        m = c
                    known = measures.get(id(e))
                    if known is None:
                        known = measures[id(e)] = (e, coeff_measure(e))
                    if known[1] > m:
                        m = known[1]
            else:
                rank = a.b
                was, low = low, rank.key
                if head is not prev_head:
                    if i and not a < prev:
                        violations.append(f"entries {i - 1} and {i} do not descend")
                    known = measures.get(id(head))
                    if known is None:
                        known = measures[id(head)] = (head, coeff_measure(head))
                    top = known[1]
                elif not low < was:
                    violations.append(f"entries {i - 1} and {i} do not descend")
                known = measures.get(id(rank))
                if known is None:
                    known = measures[id(rank)] = (rank, coeff_measure(rank))
                m = known[1] if known[1] > top else top
            if m > i + 1:
                bounds.append(f"entry {i} has coefficient measure {m} > {i + 1}")
            prev, prev_head = a, head
    except AttributeError:  # named by index, at no cost to valid calls
        _validate_chain(entries)
        raise
    violations += bounds
    return SlowReport(not violations, tuple(violations))
