"""Compression of descending ordinal chains into slowly-growing ones.

Given a strictly descending chain a_0 > a_1 > ... (finite prefix, nonzero
except possibly the last entry) and an index n such that every measure
C(a_{k+1}) is bounded by F_n(max(2,k)), the construction emits a strictly
descending chain g_0 > g_1 > ... whose coefficients obey C(g_i) <= i + 1:

* a tower prefix g_i = w_{N-i} for i < ell = max(c, C(a_0)), with N minimal
  such that w_{N-ell} > w^w * a_0;
* past the prefix, i decomposes uniquely (greedily, largest k) as
  i = C(a_0) + ... + C(a_k) + x with x < C(a_{k+1}), and
  g_i = w^w * a_k + rank(n, k, x) where rank is the windowed descending
  assignment from the correspondence module.

Cross-block descent rides on w^w-multiplication preserving order; descent
within a block on the rank's strict descent in x.  The emitted prefix covers
every i decomposable inside the given finite chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .correspond import g as rank_g, g_window
from .grzeval import exceeds
from .ordinals import (  # the chain-file reader and writer sit beside the ordinal text form
    ONE,
    Ordinal,
    add,
    chain_to_text,
    coeff_measure,
    mul_omega_omega,
    omega_pow,
    parse_chain_text,
)


@dataclass(frozen=True)
class SlowChain:
    entries: tuple[Ordinal, ...]
    tower_prefix_len: int  # ell
    tower_height_base: int  # N
    note: str | None = None


@dataclass(frozen=True)
class SlowReport:
    ok: bool
    violations: tuple[str, ...]


def slow_g(n: int, k: int, x: int) -> Ordinal:
    """The single-function slowdown rank: the windowed assignment at base
    max(2, k), for a caller-chosen hierarchy index n >= 1 bounding the
    function being slowed."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"hierarchy index must be a positive integer, got {n!r}")
    if (not isinstance(k, int) or isinstance(k, bool) or k < 0
            or not isinstance(x, int) or isinstance(x, bool) or x < 0):
        raise ValueError("arguments must be non-negative integers")
    return rank_g(n, max(2, k), x)


def _validate_chain(alphas: Sequence[Ordinal]) -> None:
    if len(alphas) == 0:
        raise ValueError("chain must hold at least one entry")
    # strict descent already forces any zero to the last slot
    for i, (a, b) in enumerate(zip(alphas, alphas[1:])):
        if not b < a:
            raise ValueError(f"chain not strictly descending at entries {i}, {i + 1}")


def compress(alphas: Sequence[Ordinal], n: int, c: int) -> SlowChain:
    """Emit the slow chain for a finite descending prefix.

    Rejects chains that are not strictly descending (or zero before the
    end), and indices n whose hierarchy level fails to bound the coefficient
    measures C(a_{k+1}) <= F_n(max(2,k)).
    """
    _validate_chain(alphas)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"hierarchy index must be a positive integer, got {n!r}")
    if not isinstance(c, int) or isinstance(c, bool) or c < 0:
        raise ValueError(f"constant must be a non-negative integer, got {c!r}")
    measures = [coeff_measure(a) for a in alphas]
    for k in range(len(alphas) - 1):
        ck = measures[k + 1]
        # need F_n(max(2,k)) >= C(a_{k+1}), i.e. the value exceeds C-1
        if ck > 0 and not exceeds(n, 1, max(2, k), ck - 1):
            raise ValueError(
                f"index n={n} too small: C(entry {k + 1}) = {ck} "
                f"is not bounded by F_{n}({max(2, k)})"
            )

    ell = max(c, measures[0])
    target = mul_omega_omega(alphas[0])
    tower, t = ONE, 0
    while tower <= target:
        tower, t = omega_pow(tower), t + 1
    height = ell + t  # N minimal with w_{N-ell} > w^w * a_0
    entries: list[Ordinal] = []
    for _ in range(ell):  # w_{N-ell+1}, ..., w_N, one w^ step each
        tower = omega_pow(tower)
        entries.append(tower)
    entries.reverse()
    total = sum(measures)
    note = None
    if ell >= total:
        note = (
            f"tower prefix (length {ell}) already covers every index "
            f"decomposable in this prefix (total measure {total})"
        )
    start = 0
    for k in range(len(alphas) - 1):  # block k: i = start + x with x < C(a_{k+1})
        start += measures[k]  # C(a_0) + ... + C(a_k)
        # w^w * a_k + rank: every exponent of w^w * a_k is at least w and
        # every exponent of the rank is finite, so add joins the two keys
        lifted = mul_omega_omega(alphas[k])
        lo = max(0, ell - start)
        entries.extend(add(lifted, r) for r in g_window(n, max(2, k), lo, max(0, measures[k + 1] - lo)))
    return SlowChain(tuple(entries), ell, height, note)


def verify_slow(s: SlowChain | Iterable[Ordinal]) -> SlowReport:
    """Check strict descent and the coefficient bound C(entry_i) <= i + 1."""
    entries = tuple(s.entries) if isinstance(s, SlowChain) else tuple(s)
    violations: list[str] = []
    for i, (a, b) in enumerate(zip(entries, entries[1:])):
        if not b < a:
            violations.append(f"entries {i} and {i + 1} do not descend")
    for i, a in enumerate(entries):
        m = coeff_measure(a)
        if m > i + 1:
            violations.append(f"entry {i} has coefficient measure {m} > {i + 1}")
    return SlowReport(not violations, tuple(violations))
