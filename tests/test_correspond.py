"""Number/ordinal correspondence: the coding, its inverse, membership, profiles, g."""

import copy
import itertools
import pickle
import sys
import threading

import pytest

from grzseq import correspond
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
from grzseq.grzeval import DEFAULT_CAP, CapExceededError, Exact
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


@pytest.mark.parametrize("k", range(2, 9))
def test_Q_of_a_limit_image_re_encodes_the_predecessor(k):
    # F_1^(c)(k) = k*2^c, F_2(k) and F_2^(2)(k): images ending in an infinite
    # term, so Q_pred takes x - 1 through the encoder, not a - 1
    f2 = k << k
    for x in [k << c for c in range(1, k)] + [f2, f2 << f2]:
        a = o_map(x, k)
        assert a.terms[-1][0] != ZERO
        assert Q_pred(a, k, x).key == o_map(x - 1, k).key
        with pytest.raises(CapExceededError):
            Q_pred(a, k, x - 1)


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
# The image o_map built last: in_D, L_inverse and Q_pred read its preimage


def _outcome(fn, *args):
    # a value, or the exception's type and message: raised answers compare too
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


def _answers(a, k, x):
    out = [in_D(a, k), in_D(a, k + 1)]
    for cap in (0, x - 1, x, DEFAULT_CAP):
        out += [_outcome(L_inverse, a, k, cap), _outcome(Q_pred, a, k, cap)]
    return out


def _pin_to_the_walk(k, xs):
    for x in xs:
        a = o_map(x, k)
        remembered = _answers(a, k, x)
        assert correspond._last[0] is a  # no call above rebinds the memo
        walked = _answers(Ordinal(a.terms), k, x)  # an equal copy misses
        assert remembered == walked, f"x={x} k={k}"  # reports field for field, skeleton included


@pytest.mark.parametrize("k", [2, 3])
def test_memo_answers_as_the_walk_on_every_image(k):
    _pin_to_the_walk(k, range(k + 1, 10_001))


@pytest.mark.parametrize("k", [4, 5, 6])
def test_memo_answers_as_the_walk_on_a_sparser_grid(k):
    _pin_to_the_walk(k, [*range(k + 1, 200), *range(200, 10_001, 37), k << k, (k << k) + 1])


@pytest.fixture
def walks(monkeypatch):
    # counts the walks the correspondence takes
    count = [0]
    skeleton = correspond._skeleton

    def counted(*args):
        count[0] += 1
        return skeleton(*args)

    monkeypatch.setattr(correspond, "_skeleton", counted)
    return count


@pytest.mark.parametrize("x", [5, 8, 9, 2048, 9999])  # limit and successor images
def test_memo_hit_takes_no_walk(walks, x):
    a = o_map(x, 2)
    assert (in_D(a, 2).member, L_inverse(a, 2), Q_pred(a, 2)) == (True, Exact(x), o_map(x - 1, 2))
    assert walks[0] == 0


def test_memo_misses_walk_and_answer_as_the_walk(walks):
    k, x = 3, 4321
    a = o_map(x, k)
    want = _answers(Ordinal(a.terms), k, x)
    assert walks[0] == 10  # in_D twice, L_inverse four times, Q_pred four times
    for b in (Ordinal(a.terms), copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a)),
              parse_ordinal(str(a))):
        assert b is not a and correspond._last[0] is a
        walks[0] = 0
        assert _answers(b, k, x) == want
        assert walks[0] == 10
    b = Ordinal(a.terms)
    walks[0] = 0  # the memo's image at another base
    assert (in_D(a, k + 1), L_inverse(a, k + 1)) == (in_D(b, k + 1), L_inverse(b, k + 1))
    assert walks[0] == 4
    o_map(x + 1, k)  # an older image after a newer one
    walks[0] = 0
    assert _answers(a, k, x) == want
    assert walks[0] == 10


def test_memo_hit_keeps_every_argument_check_in_order():
    k, x = 2, 4321
    a = o_map(x, k)
    calls = [(L_inverse, a, 1), (L_inverse, a, k, -1), (L_inverse, a, k, True), (Q_pred, a, k, x - 1),
             (L_inverse, "w", k), (in_D, a, 1), (in_D, a, True)]
    remembered = [_outcome(*call) for call in calls]
    assert correspond._last[0] is a
    b = Ordinal(a.terms)
    walked = [_outcome(fn, b if arg is a else arg, *rest) for fn, arg, *rest in calls]
    assert remembered == walked
    assert all(type(r) is tuple for r in remembered)  # every one of them raised
    assert remembered[3] == (CapExceededError, str(CapExceededError(x - 1)))


def test_memo_under_two_threads_answers_exactly():
    def invert(k, out):
        for x in range(k, k + 3000):
            out.append(L_inverse(o_map(x, k), k) == Exact(x))

    outs = ([], [])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter will
    try:
        threads = [threading.Thread(target=invert, args=(k, out)) for k, out in zip((2, 3), outs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [len(out) for out in outs] == [3000, 3000] and all(outs[0]) and all(outs[1])


@pytest.fixture
def encodes(monkeypatch):
    # the (x, k) of each encode the correspondence makes
    calls = []
    encode_pairs = correspond.encode_pairs
    monkeypatch.setattr(correspond, "encode_pairs", lambda x, k: calls.append((x, k)) or encode_pairs(x, k))
    return calls


@pytest.mark.parametrize("k", [2, 3])
def test_memo_hit_encodes_nothing_but_a_limit_predecessor(encodes, k):
    kinds = {"successor": 0, "limit": 0}
    for x in range(k + 1, 2_000):
        a = o_map(x, k)
        assert encodes == [(x, k)]  # o_map encodes x once; its exponent codes come from the table
        assert in_D(a, k).member and L_inverse(a, k) == Exact(x)
        assert encodes == [(x, k)]
        limit = bool(a.terms[-1][0].terms)
        assert Q_pred(a, k) == o_map(x - 1, k)
        assert encodes == [(x, k)] + [(x - 1, k)] * limit + [(x - 1, k)]  # the last from the o_map above
        kinds["limit" if limit else "successor"] += 1
        encodes.clear()
    assert min(kinds.values()) >= 5, kinds  # limits are rare: 9 at k = 2


def _non_members(k):
    # the workload's two probes of each image: its leading count raised by k,
    # and an added finite exponent >= k; then one ordinal per violation site
    # of the walk, each reason pinned
    for x in range(k + 1, 2_000):
        a = o_map(x, k)
        (e, c), rest = a.terms[0], a.terms[1:]
        yield Ordinal(((e, c + k),) + rest), None
        yield add(a, omega_pow(from_int(k + x % 3))), None
    yield omega_pow(from_int(k)), f"finite exponent {k} not below base {k}"
    yield parse_ordinal(f"w^(w^({k}))"), f"finite exponent {k} not below base {k}"  # one level down
    yield parse_ordinal(f"w^(w+{k})"), f"count {k} at position 1 not below intermediate base {k}"  # the w + n entry
    yield parse_ordinal(f"w^(w^(w+{k}))*2+w"), f"count {k} at position 1 not below intermediate base {k}"
    yield from_int(k), f"count {k} at position 1 not below intermediate base {k}"  # the count check
    yield parse_ordinal(f"w+{2 * k}"), f"count {2 * k} at position 2 not below intermediate base {2 * k}"
    yield (parse_ordinal(f"w^(w^(w*2+{4 * k}))"),
           f"count {4 * k} at position 2 not below intermediate base {2 * k}")  # a nested level's count check


class _Forbidden(ValueError):
    def __init__(self, *args):
        raise AssertionError("NotInDError constructed")


@pytest.mark.parametrize("k", [2, 3])
def test_a_non_member_gives_one_reason_everywhere_and_in_D_raises_nothing(monkeypatch, k):
    cases = list(_non_members(k))
    with monkeypatch.context() as m:
        m.setattr(correspond, "NotInDError", _Forbidden)
        reports = [in_D(p, k) for p, _ in cases]
    for (p, pinned), report in zip(cases, reports):
        assert not report.member and report.skeleton is None and report.base == k
        assert pinned in (None, report.reason), p
        for fn in (L_inverse, Q_pred):
            with pytest.raises(NotInDError) as err:
                fn(p, k)
            assert type(err.value) is NotInDError
            assert (err.value.base, err.value.reason) == (k, report.reason), (fn, p)
            assert str(err.value) == f"not in D_{k}: {report.reason}"


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
