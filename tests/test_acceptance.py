"""Acceptance suite.

Eleven exhaustive, randomness-free checks, one per shipped guarantee.  Every
test prints a single PASS line with the case count it settled (run pytest
with -s to see them).  All comparisons are exact; there are no numeric
tolerances anywhere.
"""

import itertools

import pytest

from grzseq.correspond import L_inverse, Q_pred, flip, g, o_map, o_map_literal, profile
from grzseq.frep import compare as rep_compare
from grzseq.frep import decode, encode, shift_value
from grzseq.grzeval import Exact, ExceedsCap, eval_F, eval_F_iter, exceeds
from grzseq.order import Ordering
from grzseq.ordinals import ZERO, coeff_measure, compare, from_int, omega_pow, parse_ordinal
from grzseq.seq import dominate_check, run, shadow_check
from grzseq.slowdown import chain_to_text, compress, verify_slow

CAP = 10**7


def _report(num, name, detail):
    print(f"ACCEPT-{num:02d} {name}: PASS ({detail})")


def test_acceptance_01_codec_roundtrip():
    checked = 0
    for k in range(2, 7):
        for x in range(0, 100001):
            assert decode(encode(x, k), CAP) == Exact(x), f"x={x} k={k}"
            checked += 1
    _report(1, "codec round-trip", f"{checked} decode(encode(x,k)) identities")


def test_acceptance_02_order_isomorphism():
    direct = settled = 0
    for k in (2, 3, 4):
        reps = {x: encode(x, k) for x in range(k, 10001)}
        # consecutive pairs across the whole range, with the real comparison
        for x in range(k, 10000):
            assert rep_compare(reps[x], reps[x + 1]) == Ordering.LT, f"x={x} k={k}"
            direct += 1
        # every pair of a complete sub-block, with the real comparison
        block = list(range(k, 2501))
        for i, x in enumerate(block):
            rx = reps[x]
            for y in block[i + 1 :]:
                assert rep_compare(rx, reps[y]) == Ordering.LT, f"x={x} y={y} k={k}"
                direct += 1
        # the full pair set: the comparison on pair-bodies coincides with
        # Python tuple order (verified exhaustively on a block just above by
        # construction of `block`, and again here), and tuple order is
        # transitive, so strictly increasing keys settle all remaining pairs
        for x, y in itertools.combinations(range(k, 601), 2):
            expect = Ordering.LT if reps[x].body < reps[y].body else Ordering.GT
            if reps[x].body == reps[y].body:
                expect = Ordering.EQ
            assert rep_compare(reps[x], reps[y]) == expect
        keys = [reps[x].body for x in range(k, 10001)]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        settled += len(keys) * (len(keys) - 1) // 2
    _report(2, "order isomorphism", f"{settled} pairs settled, {direct} by direct comparison")


def test_acceptance_03_ordinal_monotonicity():
    checked = 0
    for k in (2, 3):
        prev = o_map(k, k)
        for x in range(k + 1, 10001):
            cur = o_map(x, k)
            assert compare(prev, cur) == Ordering.LT, f"x={x} k={k}"
            prev = cur
            checked += 1
    # companion regression: the literal coding breaks at (4, 9) with base 2
    lit4, lit9 = o_map_literal(4, 2), o_map_literal(9, 2)
    assert lit4 == parse_ordinal("w") and lit9 == from_int(2)
    assert compare(lit4, lit9) == Ordering.GT
    _report(3, "ordinal monotonicity", f"{checked} ascents, literal counterexample reproduced")


def test_acceptance_04_shift_invariance():
    checked = skipped = 0
    for k in (2, 3):
        for x in range(k, 10001):
            shifted = shift_value(x, k, k + 1, CAP)
            if isinstance(shifted, ExceedsCap):
                skipped += 1
                continue
            assert o_map(shifted.value, k + 1) == o_map(x, k), f"x={x} k={k}"
            checked += 1
    _report(4, "base-shift invariance", f"{checked} identities, {skipped} above cap")


def test_acceptance_05_inversion_and_predecessor():
    inversions = 0
    for k in (2, 3):
        for x in range(k, 10001):
            assert L_inverse(o_map(x, k), k, CAP) == Exact(x), f"x={x} k={k}"
            inversions += 1
    q_checked = 0
    for k in (2, 3):
        images = [o_map(x, k) for x in range(k, 2001)]
        for idx in range(1, len(images)):
            a = images[idx]
            best = None  # brute force over the preimages below this one
            for b in images[:idx]:
                if compare(b, a) == Ordering.LT and (
                    best is None or compare(b, best) == Ordering.GT
                ):
                    best = b
            assert Q_pred(a, k, CAP) == best, f"idx={idx} k={k}"
            q_checked += 1
    _report(5, "inversion and predecessor", f"{inversions} inversions, {q_checked} Q values")


def test_acceptance_06_sequence_fixtures():
    t3 = run(3, cap=CAP, max_steps=200, with_shadow=True)
    assert t3.exact_values() == [3, 3, 3, 2, 1, 0]
    assert t3.outcome.kind == "terminated" and t3.outcome.at == 5
    t4 = run(4, cap=CAP, max_steps=200, with_shadow=True)
    assert t4.exact_values() == [4, 5, 5, 5, 5, 4, 3, 2, 1, 0]
    assert t4.outcome.kind == "terminated" and t4.outcome.at == 9
    shadows_ok = 0
    for z in range(0, 8):
        t = run(z, cap=CAP, max_steps=200, with_shadow=True)
        assert t.outcome.kind == "terminated", f"z={z}"
        report = shadow_check(t)
        assert report.ok, (z, report.violations)
        shadows_ok += 1
    _report(6, "sequence fixtures", f"trails pinned, {shadows_ok} shadow-checked traces")


def _g_window(n, k, limit):
    xs = []
    x = k
    while len(xs) < limit and exceeds(n, 1, k, x):
        xs.append(x)
        x += 1
    return xs, not exceeds(n, 1, k, x)  # complete iff x reached F_n(k)


def test_acceptance_07_assignment_descends_with_small_coefficients():
    checked = 0
    for n in (1, 2, 3):
        for k in (2, 3):
            xs, complete = _g_window(n, k, limit=10000)
            upper = xs[-1] + 1 if xs else k
            prev = g(n, k, 0)
            assert coeff_measure(prev) <= max(n, k + 1, 0)
            for x in range(1, upper + 1):
                cur = g(n, k, x)
                assert compare(cur, prev) == Ordering.LT, f"n={n} k={k} x={x}"
                assert coeff_measure(cur) <= max(n, k + 1, x), f"n={n} k={k} x={x}"
                prev = cur
                checked += 1
            if complete:
                assert g(n, k, upper) == ZERO
    _report(7, "descending assignment", f"{checked} descents with bounded coefficients")


def test_acceptance_08_profiles():
    checked = 0
    for n in (1, 2, 3):
        for k in (2, 3):
            xs, _ = _g_window(n, k, limit=10000)
            js = [profile(x, n, k).j for x in xs]
            fl = [flip(profile(x, n, k)) for x in xs]
            for a, b in zip(js, js[1:]):
                assert a < b  # same-length tuples, lexicographic
            for a, b in zip(fl, fl[1:]):
                assert a > b  # the flip reverses the order
            checked += max(0, len(xs) - 1)
    _report(8, "padded profiles", f"{checked} adjacent profile pairs ordered both ways")


SLOWDOWN_CORPUS = [
    ("w*2 / w / 1 / 0", 2, 2),
    ("w / 1 / 0", 1, 1),
    ("w^(2)*3+w*2+5 / w^(2)*3+w*2+3 / w^(2)*3+1 / w*7 / w*6 / 9 / 3 / 0", 2, 2),
    (
        "w^(w^w) / w^(w*2+1)*2 / w^(w*2)*9 / w^(w)*3+w^(2) / w^w / "
        "w^(3)*2+1 / w^(3)*2 / w*10 / 7 / 2 / 0",
        3,
        3,
    ),
    ("10 / 9 / 8 / 7 / 6 / 5 / 4 / 3 / 2 / 1 / 0", 3, 3),
    ("w^(w^2)*2 / w^(w)*5 / w^5 / w^(4)*4 / w^(2)*2+w / w / 6 / 0", 3, 3),
]


def test_acceptance_09_slowdown_end_to_end():
    assert len(SLOWDOWN_CORPUS) >= 5
    verified = 0
    for text, n, c in SLOWDOWN_CORPUS:
        alphas = [parse_ordinal(t.strip()) for t in text.split("/")]
        assert 3 <= len(alphas) <= 20
        assert all(coeff_measure(a) <= 10 for a in alphas)
        out = compress(alphas, n, c)
        report = verify_slow(out)
        assert report.ok, report.violations
        again = compress(alphas, n, c)
        assert chain_to_text(out.entries).encode() == chain_to_text(again.entries).encode()
        for i, entry in enumerate(out.entries):
            assert coeff_measure(entry) <= i + 1
        verified += len(out.entries)
    _report(9, "slowdown end-to-end", f"{verified} emitted entries verified, byte-deterministic")


def test_acceptance_10_domination():
    chains = [
        [from_int(1), ZERO],
        [parse_ordinal("w"), from_int(1), ZERO],
        [
            parse_ordinal("w+3"),
            parse_ordinal("w+2"),
            parse_ordinal("w+1"),
            parse_ordinal("w"),
            from_int(4),
            from_int(3),
            from_int(2),
            from_int(1),
            ZERO,
        ],
        [
            parse_ordinal("w+1"),
            parse_ordinal("w"),
            from_int(3),
            from_int(2),
            from_int(1),
            ZERO,
        ],
        # seeded at 8 the reference sequence overflows immediately; only the
        # head is comparable and the rest must be skipped, not guessed
        [parse_ordinal("w^w"), parse_ordinal("w*2"), parse_ordinal("w"), from_int(2), ZERO],
    ]
    assert len(chains) >= 3
    compared = 0
    for gammas in chains:
        report = dominate_check(gammas, cap=CAP)
        assert report.ok, report.violations
        compared += len(report.entries)
    with pytest.raises(ValueError, match="not in D_2"):
        dominate_check([omega_pow(from_int(2)), from_int(1), ZERO], cap=CAP)
    _report(10, "domination", f"{compared} indices compared, non-member control rejected")


def test_acceptance_11_hierarchy_laws_and_cutoff_soundness():
    checked = 0
    for n in range(4):
        for x in range(1, 201):
            v = eval_F(n, x, CAP)
            if isinstance(v, Exact):
                assert v.value > x
                checked += 1
    for n in range(4):
        for y in range(4):
            for x in range(0, 201, 3):
                v = eval_F_iter(n, y, x, CAP)
                if isinstance(v, Exact):
                    assert v.value >= x
                    b = eval_F_iter(n, y + 1, x, CAP)
                    if x > 0 and isinstance(b, Exact):
                        assert b.value > v.value
                    c = eval_F_iter(n, y, x + 1, CAP)
                    if x > 0 and isinstance(c, Exact):
                        assert c.value > v.value
                    checked += 1
    for n in range(3):
        for x in range(2, 201):
            a, b = eval_F(n, x, CAP), eval_F(n + 1, x, CAP)
            if isinstance(a, Exact) and isinstance(b, Exact):
                assert b.value > a.value
                checked += 1

    def naive_F(n, x):
        if n == 0:
            return x + 1
        y = x
        for _ in range(x):
            y = naive_F(n - 1, y)
        return y

    sound = 0
    for n in range(4):
        for x in range(5):
            if n >= 3 and x >= 3:
                continue
            truth = naive_F(n, x)
            for cap in (0, 1, 3, 10, 100, 5000, 10**6):
                got = eval_F(n, x, cap)
                assert got == (Exact(truth) if truth <= cap else ExceedsCap(cap))
                sound += 1
    _report(11, "hierarchy laws", f"{checked} law instances, {sound} cutoff agreements")
