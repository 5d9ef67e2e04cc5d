"""Chain compression: pinned outputs, the verifier as end-to-end oracle, rejections."""

import random

import pytest

from grzseq.ordinals import (
    ONE,
    ZERO,
    Ordinal,
    add,
    coeff_measure,
    compare,
    from_int,
    mul_omega_omega,
    omega_pow,
    omega_tower,
    parse_ordinal,
)
from grzseq.order import Ordering
from grzseq.slowdown import (
    SlowChain,
    SlowReport,
    chain_to_text,
    compress,
    parse_chain_text,
    slow_g,
    verify_slow,
)


def O(text):
    return parse_ordinal(text)


def test_slow_g_examples():
    assert slow_g(1, 0, 0) == O("w*2")  # below-base case at the clamped base 2
    assert slow_g(1, 2, 3) == from_int(1)
    assert slow_g(2, 2, 8) == ZERO  # 8 = F_2(2), outside the window


def test_slow_g_rejects_zero_index():
    with pytest.raises(ValueError):
        slow_g(0, 2, 1)


@pytest.mark.parametrize("args", [(True, 3, 1), (2, True, 1), (2, 3, True)])
def test_slow_g_rejects_bools(args):
    # slow_g(True, 3, 1) was w^(True)*2, text no parser reads back
    with pytest.raises(ValueError):
        slow_g(*args)


# The corpus: strictly descending chains, coefficients <= 10, lengths 3..11.
CORPUS = [
    ([O("w*2"), O("w"), O("1"), O("0")], 2, 2),
    ([O("w"), O("1"), O("0")], 1, 1),
    (
        [
            O("w^(2)*3+w*2+5"),
            O("w^(2)*3+w*2+3"),
            O("w^(2)*3+1"),
            O("w*7"),
            O("w*6"),
            O("9"),
            O("3"),
            O("0"),
        ],
        2,
        2,
    ),
    (
        [
            O("w^(w^w)"),
            O("w^(w*2+1)*2"),
            O("w^(w*2)*9"),
            O("w^(w)*3+w^(2)"),
            O("w^w"),
            O("w^(3)*2+1"),
            O("w^(3)*2"),
            O("w*10"),
            O("7"),
            O("2"),
            O("0"),
        ],
        3,
        3,
    ),
    ([from_int(v) for v in range(10, -1, -1)], 3, 3),
    (
        [
            O("w^(w^2)*2"),
            O("w^(w)*5"),
            O("w^5"),
            O("w^(4)*4"),
            O("w^(2)*2+w"),
            O("w"),
            O("6"),
            O("0"),
        ],
        3,
        3,
    ),
]


def test_compress_pinned_small_chain():
    out = compress([O("w*2"), O("w"), O("1"), O("0")], n=2, c=2)
    assert out.tower_prefix_len == 2
    assert out.tower_height_base == 5
    assert out.entries == (
        omega_tower(5),
        omega_tower(4),
        O("w^(w+1)*2+w^(2)*2"),
        O("w^(w+1)*1+w^(2)*2"),
    )


def test_compress_pinned_three_chain():
    out = compress([O("w"), O("1"), O("0")], n=1, c=1)
    assert out.tower_prefix_len == 1
    assert out.tower_height_base == 4
    assert out.entries == (omega_tower(4), O("w^(w+1)*1+w*2"))


def test_compress_refuses_an_empty_chain():
    with pytest.raises(ValueError, match="^chain must hold at least one entry$"):
        compress([], 2, 0)


def test_compress_singleton_zero():
    out = compress([ZERO], n=1, c=2)
    assert out.entries == (omega_tower(2), omega_tower(1))
    assert out.note is not None  # tower prefix only, nothing to decompose


def test_compress_long_tower_prefix():
    out = compress([O("w*2"), O("w"), O("1"), O("0")], n=2, c=1200)
    assert (out.tower_prefix_len, out.tower_height_base) == (1200, 1203)
    report = verify_slow(out)
    assert report.ok, report.violations


@pytest.mark.parametrize("alphas,n,c", CORPUS)
def test_compress_passes_verifier(alphas, n, c):
    out = compress(alphas, n, c)
    report = verify_slow(out)
    assert report.ok, report.violations
    # the prefix covers every decomposable index: ell towers, then one entry
    # per unit of coefficient measure past the first ell
    total = sum(coeff_measure(a) for a in alphas)
    assert len(out.entries) == max(out.tower_prefix_len, total)


@pytest.mark.parametrize("alphas,n,c", CORPUS)
def test_compress_deterministic(alphas, n, c):
    first = compress(alphas, n, c)
    second = compress(alphas, n, c)
    assert chain_to_text(first.entries) == chain_to_text(second.entries)
    assert (first.tower_prefix_len, first.tower_height_base) == (
        second.tower_prefix_len,
        second.tower_height_base,
    )


@pytest.mark.parametrize("alphas,n,c", CORPUS)
def test_compressed_entries_shape(alphas, n, c):
    # past the tower prefix: a head with infinite exponents plus a tail
    # strictly below w^(n+1)
    out = compress(alphas, n, c)
    bound = parse_ordinal(f"w^({n + 1})")
    for entry in out.entries[out.tower_prefix_len :]:
        assert entry.terms, "decomposed entries are never zero"
        head = [t for t in entry.terms if not t[0].is_finite]
        tail = [t for t in entry.terms if t[0].is_finite]
        assert head, f"entry {entry} lost its infinite head"
        from grzseq.ordinals import Ordinal

        assert compare(Ordinal(tuple(tail)), bound) == Ordering.LT


def _per_entry_compress(alphas, n, c):
    # the compressor as it was before it walked the chain block by block:
    # each entry rescans the running sums for its block and lifts a_k anew
    measures = [coeff_measure(a) for a in alphas]
    ell = max(c, measures[0], n - 1)
    target = mul_omega_omega(alphas[0])
    tower, t = ONE, 0
    while tower <= target:
        tower, t = omega_pow(tower), t + 1
    height = ell + t
    entries = []
    for _ in range(ell):
        tower = omega_pow(tower)
        entries.append(tower)
    entries.reverse()
    cums = []
    acc = 0
    for m in measures:
        acc += m
        cums.append(acc)
    total = cums[-1]
    note = None
    if ell >= total:
        note = (
            f"tower prefix (length {ell}) already covers every index "
            f"decomposable in this prefix (total measure {total})"
        )
    for i in range(ell, total):
        k = 0
        while cums[k] <= i:
            k += 1
        k -= 1
        x = i - cums[k]
        entries.append(add(mul_omega_omega(alphas[k]), slow_g(n, k, x)))
    return entries, ell, height, note


@pytest.mark.parametrize(
    "alphas,n",
    [(alphas, n) for alphas, n, _ in CORPUS]
    + [
        ([ZERO], 1),
        ([O("w"), ZERO], 1),
        ([O("w*2"), O("w"), O("1")], 2),  # no trailing zero
        ([from_int(v) for v in range(14, 0, -1)], 3),
    ],
)
def test_compress_matches_per_entry_reference(alphas, n):
    total = sum(coeff_measure(a) for a in alphas)
    notes = 0
    for c in sorted({0, 1, 3, max(0, total - 1), total, total + 3}):
        out = compress(alphas, n, c)
        entries, ell, height, note = _per_entry_compress(alphas, n, c)
        assert chain_to_text(out.entries) == chain_to_text(entries), c
        assert (out.tower_prefix_len, out.tower_height_base, out.note) == (ell, height, note), c
        notes += note is not None
    assert notes >= 2  # c = total and c above it leave nothing to decompose


def _add_compress(alphas, n, c):
    # the compressor as it was before it built each entry in one constructor
    # call: w^w * a_k + rank through ordinal addition
    measures = [coeff_measure(a) for a in alphas]
    ell = max(c, measures[0], n - 1)
    target = mul_omega_omega(alphas[0])
    tower, t = ONE, 0
    while tower <= target:
        tower, t = omega_pow(tower), t + 1
    height = ell + t
    entries = []
    for _ in range(ell):
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
    for k in range(len(alphas) - 1):
        start += measures[k]
        lifted = mul_omega_omega(alphas[k])
        entries.extend(add(lifted, slow_g(n, k, x)) for x in range(max(0, ell - start), measures[k + 1]))
    return SlowChain(tuple(entries), ell, height, note)


def _random_ordinal(rng, depth):
    exps = set()
    for _ in range(rng.randint(1, 3)):
        exps.add(_random_ordinal(rng, depth - 1) if depth and rng.random() < 0.6 else from_int(rng.randint(0, 6)))
    return Ordinal(tuple((e, rng.randint(1, 8)) for e in sorted(exps, reverse=True)))


@pytest.mark.parametrize("seed", range(8))
def test_compress_matches_add_reference_on_random_chains(seed):
    rng = random.Random(seed)
    alphas = sorted({_random_ordinal(rng, 2) for _ in range(rng.randint(2, 30))}, reverse=True)
    if seed % 2:
        alphas.append(ZERO)
    for n, c in ((2, 0), (2, 5), (3, 1), (3, 40)):
        assert compress(alphas, n, c) == _add_compress(alphas, n, c)


def test_compress_rejects_non_descending():
    with pytest.raises(ValueError, match="descending"):
        compress([O("w"), O("w")], 2, 2)
    # a zero anywhere but last breaks descent by itself
    with pytest.raises(ValueError, match="descending"):
        compress([O("w"), ZERO, ZERO], 2, 2)


@pytest.mark.parametrize("n,c", [(True, 1), (2, True), (2, False)])
def test_compress_rejects_bools(n, c):
    with pytest.raises(ValueError):
        compress([O("w"), ZERO], n, c)


def test_compress_accepts_trailing_zero():
    out = compress([O("w"), ZERO], n=1, c=1)
    assert verify_slow(out).ok


def test_compress_bound_check_is_exact():
    # C(entry 1) = 9 needs F_n(2) >= 9: level 2 gives 8 (reject), level 3 passes
    chain = [O("w*10"), from_int(9), ZERO]
    with pytest.raises(ValueError, match="too small"):
        compress(chain, n=2, c=2)
    out = compress(chain, n=3, c=3)
    assert verify_slow(out).ok


def test_verify_slow_negative_controls():
    dup = verify_slow([O("w"), O("w")])
    assert not dup.ok and any("descend" in v for v in dup.violations)
    fat = verify_slow([O("w*2")])
    assert not fat.ok and any("measure 2 > 1" in v for v in fat.violations)


def test_verify_slow_accepts_plain_iterables():
    assert verify_slow([omega_tower(3), omega_tower(2), O("w*2"), O("3")]).ok


def _parent_verify_slow(s):
    # verify_slow before it read each key once: the operators and coeff_measure
    entries = tuple(s.entries) if isinstance(s, SlowChain) else tuple(s)
    violations = []
    for i, (a, b) in enumerate(zip(entries, entries[1:])):
        if not b < a:
            violations.append(f"entries {i} and {i + 1} do not descend")
    for i, a in enumerate(entries):
        m = coeff_measure(a)
        if m > i + 1:
            violations.append(f"entry {i} has coefficient measure {m} > {i + 1}")
    return SlowReport(not violations, tuple(violations))


def _broken(entries):
    """Hand-broken copies of a slow chain of at least two entries, each
    paired with a name."""
    e = list(entries)
    mid = len(e) // 2
    yield "as emitted", e
    yield "swapped", e[:mid - 1] + [e[mid], e[mid - 1]] + e[mid + 1:]
    yield "repeated", e[:mid] + [e[mid]] + e[mid:]
    yield "reversed", e[::-1]
    yield "zero inside", e[:mid] + [ZERO] + e[mid:]
    yield "fat head", [add(e[0], from_int(10**6))] + e[1:]
    yield "fat tail", e + [from_int(len(e) + 5), from_int(3)]
    yield "rescaled", [mul_omega_omega(a) for a in e[::3]]
    yield "towers", [omega_tower(h) for h in (3, 4, 2, 2, 1)]
    yield "empty", []


def _random_chain(seed):
    rng = random.Random(seed)
    return sorted({_random_ordinal(rng, 2) for _ in range(rng.randint(10, 30))}, reverse=True) + [ZERO]


@pytest.mark.parametrize("alphas,n,c", CORPUS + [(_random_chain(seed), 2, seed) for seed in range(3)])
def test_verify_slow_matches_the_parent_on_broken_chains(alphas, n, c):
    for name, entries in _broken(compress(alphas, n, c).entries):
        for arg in (entries, iter(entries), SlowChain(tuple(entries), 0, 0)):
            assert verify_slow(arg) == _parent_verify_slow(entries), name
    assert verify_slow(compress(alphas, n, c)).ok


# ---------------------------------------------------------------------------
# Chain files


def test_parse_chain_text():
    text = "# a comment\nw^(w)*1\n\nw*2+1   # trailing note\n3\n0\n"
    chain = parse_chain_text(text)
    assert chain == [O("w^w"), O("w*2+1"), O("3"), ZERO]


def test_parse_chain_text_reports_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_chain_text("w\nw^\n")


def test_chain_text_roundtrip():
    chain = [O("w^(w+1)*2+w^(2)*2"), O("w*4"), from_int(7)]
    assert parse_chain_text(chain_to_text(chain)) == chain
