"""Number/ordinal correspondence: the coding, its inverse, membership, profiles, g."""

import itertools

import pytest

from grzseq.correspond import (
    L_inverse,
    NotInDError,
    Q_pred,
    flip,
    g,
    in_D,
    o_map,
    o_map_literal,
    profile,
)
from grzseq.frep import encode, shift_value
from grzseq.grzeval import CapExceededError, Exact
from grzseq.order import Ordering
from grzseq.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    coeff_measure,
    compare,
    from_int,
    omega_pow,
    omega_tower,
    parse_ordinal,
)

CAP = 10**7


def test_o_map_of_base_is_zero():
    for k in (2, 3, 5):
        assert o_map(k, k) == ZERO
        assert o_map_literal(k, k) == ZERO


def test_o_map_examples_repaired():
    assert o_map(4, 2) == OMEGA
    assert o_map(9, 2) == add(omega_pow(OMEGA), from_int(1))


def test_o_map_examples_literal():
    assert o_map_literal(4, 2) == OMEGA
    assert o_map_literal(9, 2) == from_int(2)


def test_literal_monotonicity_failure_pinned():
    # 4 < 9 but o_2(4) = w > 2 = o_2(9) under the literal reading
    a, b = o_map_literal(4, 2), o_map_literal(9, 2)
    assert compare(a, b) == Ordering.GT


def test_o_map_matches_add_chain_reference():
    def reference(x: int, k: int) -> Ordinal:
        # the term-by-term fold o_map did before it built each image in one call
        total = ZERO
        for e, c in encode(x, k).pairs:
            if c:
                total = add(total, omega_pow(from_int(e) if e < k else add(OMEGA, reference(e, k)), c))
        return total

    for k in (2, 3, 4):
        xs = [*range(k, 10_001), *(10**99 + 10**98 * i + i for i in range(6))]
        for x in xs:
            got, want = o_map(x, k), reference(x, k)
            assert (got, got.key, str(got)) == (want, want.key, str(want)), f"x={x} k={k}"


def test_o_map_rejects_below_base():
    with pytest.raises(ValueError):
        o_map(1, 2)
    with pytest.raises(ValueError):
        o_map(5, 1)


@pytest.mark.parametrize("k", [2, 3])
def test_repaired_strictly_monotone(k):
    prev = None
    for x in range(k, 2001):
        cur = o_map(x, k)
        if prev is not None:
            assert compare(prev, cur) == Ordering.LT, f"x={x}"
        prev = cur


@pytest.mark.parametrize("k", [2, 3])
def test_inverse_of_o_map(k):
    for x in range(k, 2001):
        assert L_inverse(o_map(x, k), k, CAP) == Exact(x)


def test_L_examples():
    assert L_inverse(ZERO, 5, 100) == Exact(5)
    assert L_inverse(OMEGA, 2, 100) == Exact(4)
    with pytest.raises(NotInDError):
        L_inverse(omega_pow(from_int(2)), 2, 100)


def test_L_cap_overflow():
    # w^(w*2) decodes to F_4(2), far over any desk cap
    big = omega_pow(parse_ordinal("w*2"))
    out = L_inverse(big, 2, CAP)
    assert not isinstance(out, Exact)


# ---------------------------------------------------------------------------
# Membership


def test_in_D_examples():
    rep = in_D(omega_pow(OMEGA), 2)
    assert rep.member
    assert rep.skeleton == ((Exact(2), 1),)  # preimage F_2(2) = 8
    assert not in_D(omega_pow(from_int(2)), 2).member
    assert in_D(ZERO, 2).member


def test_in_D_rejects_oversized_counts():
    assert not in_D(omega_pow(ONE, 2), 2).member  # leading count 2 >= base
    assert not in_D(from_int(5), 3).member  # finite members stop at base-1
    assert in_D(from_int(2), 3).member


@pytest.mark.parametrize("k", [2, 3])
def test_in_D_accepts_every_image(k):
    for x in range(k, 3001):
        assert in_D(o_map(x, k), k).member, f"x={x}"


def test_in_D_structural_on_huge_preimages():
    # towers of any height are images without materializing the value
    for h in range(1, 8):
        assert in_D(omega_tower(h), 2).member


def test_images_embed_into_the_next_base():
    for k in (2, 3):
        for x in range(k, 400):
            assert in_D(o_map(x, k), k + 1).member


def _gen_bounded(k: int, depth: int, max_len: int = 2):
    """CNF terms with every coefficient (hereditarily) below k."""
    pool = [ZERO]
    for _ in range(depth):
        exps = list(pool)
        nxt = {ZERO}
        for e in exps:
            for c in range(1, k):
                nxt.add(omega_pow(e, c))
        for e1, e2 in itertools.combinations(exps, 2):
            lo, hi = (e1, e2) if compare(e1, e2) == Ordering.LT else (e2, e1)
            for c1 in range(1, k):
                for c2 in range(1, k):
                    nxt.add(Ordinal(((hi, c1), (lo, c2))))
        pool = sorted(nxt, key=str)[:200]
    return pool


@pytest.mark.parametrize("k", [2, 3, 4])
def test_coefficient_bounded_terms_are_members(k):
    for a in _gen_bounded(k, depth=3):
        assert coeff_measure(a) <= k - 1
        assert in_D(a, k).member, f"a={a} k={k}"


# ---------------------------------------------------------------------------
# The predecessor operator


def test_Q_examples():
    assert Q_pred(from_int(1), 2, 100) == ZERO
    assert Q_pred(OMEGA, 2, 100) == from_int(1)
    # L(w^w) = 8 and o_2(7) = w + 3 (7 = [(1,1),(0,3)]_2), verified below by
    # exhaustive enumeration
    assert Q_pred(omega_pow(OMEGA), 2, 100) == parse_ordinal("w+3")


def test_Q_rejects_zero_and_nonmembers():
    with pytest.raises(ValueError):
        Q_pred(ZERO, 2, 100)
    with pytest.raises(NotInDError):
        Q_pred(omega_pow(from_int(2)), 2, 100)


def test_Q_cap_overflow():
    with pytest.raises(CapExceededError):
        Q_pred(omega_pow(parse_ordinal("w*2")), 2, CAP)


@pytest.mark.parametrize("k", [2, 3])
def test_Q_matches_brute_force_max(k):
    images = [o_map(x, k) for x in range(k, 600)]
    for idx in range(1, len(images)):
        a = images[idx]
        best = None
        for b in images:  # brute force: the largest image strictly below a
            if compare(b, a) == Ordering.LT and (best is None or compare(b, best) == Ordering.GT):
                best = b
        assert Q_pred(a, k, CAP) == best


# ---------------------------------------------------------------------------
# Profiles


def test_profile_examples():
    p = profile(5, 2, 2)
    assert p.j == (1, 1) and p.m == (2, 4)
    p = profile(3, 1, 2)
    assert p.j == (1,) and p.m == (2,)
    assert flip(profile(5, 2, 2)) == (1, 3)


def test_profile_rejects_out_of_window():
    with pytest.raises(ValueError):
        profile(4, 1, 2)  # 4 = F_1(2) is outside
    with pytest.raises(ValueError):
        profile(1, 2, 2)  # below the base


def _window(n, k, limit=2200):
    from grzseq.grzeval import exceeds

    hi = k
    complete = False
    while hi < k + limit:
        if not exceeds(n, 1, k, hi):
            complete = True  # hi = F_n(k), the window ends here
            break
        hi += 1
    return range(k, hi), complete


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_profiles_monotone_and_flip_antimonotone(n, k):
    xs = list(_window(n, k)[0])
    js = [profile(x, n, k).j for x in xs]
    fl = [flip(profile(x, n, k)) for x in xs]
    for a, b in zip(js, js[1:]):
        assert a < b  # lexicographic, same length
    for a, b in zip(fl, fl[1:]):
        assert a > b


# ---------------------------------------------------------------------------
# The assignment g


def test_g_examples():
    assert g(1, 2, 2) == from_int(2)
    assert g(1, 2, 3) == from_int(1)
    assert g(1, 2, 4) == ZERO
    assert g(2, 2, 1) == omega_pow(from_int(2), 1)
    assert g(0, 3, 5) == ZERO  # monus hits zero
    assert g(0, 3, 1) == from_int(3)
    assert g(1, 2, 0) == omega_pow(ONE, 2)


@pytest.mark.parametrize("args", [(True, 2, 0), (2, True, 0), (2, 2, True), (False, 3, 1)])
def test_g_rejects_bools(args):
    with pytest.raises(ValueError):
        g(*args)


def test_g_strictly_descends():
    for n in (1, 2, 3):
        for k in (2, 3):
            xs, complete = _window(n, k, limit=1500)
            upper = xs[-1] + 1
            prev = g(n, k, 0)
            for x in range(1, upper + 1):
                cur = g(n, k, x)
                assert compare(cur, prev) == Ordering.LT, f"n={n} k={k} x={x}"
                prev = cur
            if complete:  # upper = F_n(k): the assignment bottoms out
                assert g(n, k, upper) == ZERO


def test_g_coefficient_bound():
    for n in (1, 2, 3):
        for k in (2, 3):
            for x in _window(n, k, limit=1500)[0]:
                assert coeff_measure(g(n, k, x)) <= max(n, k + 1, x)
            for x in range(k):
                assert coeff_measure(g(n, k, x)) <= max(n, k + 1, x)


def test_g_stays_below_tower():
    bound = omega_pow(from_int(4))  # w^(n+1) with n = 3
    for k in (2, 3):
        for x in range(0, 40):
            assert compare(g(3, k, x), bound) == Ordering.LT


# ---------------------------------------------------------------------------
# Shift invariance of the repaired coding


@pytest.mark.parametrize("k", [2, 3])
def test_shift_invariance(k):
    for x in range(k, 2001):
        shifted = shift_value(x, k, k + 1, CAP)
        if not isinstance(shifted, Exact):
            continue
        assert o_map(shifted.value, k + 1) == o_map(x, k), f"x={x}"


@pytest.mark.parametrize("fn", [in_D, L_inverse, Q_pred])
@pytest.mark.parametrize("a", ["w^w", 5, None, encode(9, 2)], ids=["str", "int", "None", "FRep"])
def test_non_ordinal_argument_is_a_value_error(fn, a):
    with pytest.raises(ValueError, match=r"^argument a must be an Ordinal, got ") as err:
        fn(a, 2)
    assert repr(a) in str(err.value)
