"""Codec tests: round-trips, canonicity against the encode oracle, order, shifts."""

import copy
import itertools
import json
import pickle
import sys

import pytest

from grzseq import frep
from grzseq.frep import (
    REP_NESTING_LIMIT,
    FRep,
    ParseError,
    RepError,
    TRep,
    ValidationReport,
    compare,
    decode,
    decode_total,
    encode,
    parse_rep,
    print_rep,
    rep_from_json,
    rep_to_json,
    shift_total_value,
    shift_value,
    to_total,
    validate,
)
from grzseq.grzeval import Exact, ExceedsCap, eval_F, eval_F_iter, exceeds
from grzseq.order import Ordering

CAP = 10**7


def test_encode_examples():
    assert encode(5, 2) == FRep(2, ((1, 1), (0, 1)))  # 5 = F_0(F_1(2))
    assert encode(9, 2) == FRep(2, ((2, 1), (0, 1)))  # 9 = F_0(F_2(2)), F_2(2) = 8
    assert encode(2, 2) == FRep(2, ((0, 0),))  # the bare-base form
    assert encode(1, 5) == FRep(5, 1)


def test_encode_rejects_bad_base():
    with pytest.raises(ValueError):
        encode(9, 1)
    with pytest.raises(ValueError):
        encode(9, 0)


def test_a_base_below_two_is_a_rep_error_in_every_reader():
    for build in (lambda: FRep(1, 0), lambda: parse_rep("[(0,1)]_1"),
                  lambda: rep_from_json({"base": "1", "pairs": [["0", "1"]]})):
        with pytest.raises(RepError) as err:
            build()
        assert str(err.value) == "base must be an integer >= 2, got 1"


def test_an_atom_has_no_pairs_and_a_rep_prints_as_its_text():
    with pytest.raises(RepError, match="^atom has no pairs$"):
        FRep(2, 1).pairs
    assert str(encode(9, 2)) == "[(2,1),(0,1)]_2"


def test_decode_examples():
    assert decode(FRep(2, ((2, 1), (0, 1))), CAP) == Exact(9)
    assert decode(FRep(7, ((0, 0),)), CAP) == Exact(7)
    # [(3,1)]_3 = F_3(3) > 10^6
    assert decode(FRep(3, ((3, 1),)), 10**6) == ExceedsCap(10**6)


def test_decode_rejects_broken_shape():
    with pytest.raises(RepError):
        decode(FRep(2, ((1, 1), (2, 1))), CAP)  # exponents increasing
    with pytest.raises(RepError):
        decode(FRep(2, 5), CAP)  # atom not below base


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_roundtrip(k):
    for x in range(0, 3000):
        r = encode(x, k)
        assert decode(r, CAP) == Exact(x), f"x={x} k={k} r={r}"


def test_roundtrip_large_spot_values():
    for k in (2, 5):
        for x in (10**4 - 1, 10**4, 65535, 99991, 10**5):
            assert decode(encode(x, k), CAP) == Exact(x)


def _gallop_encode(x, k):
    # reference: the least exponent by linear search and the largest iterate
    # by galloping and bisection, every probe through the public exceeds
    if x < k:
        return FRep(k, x)
    if x == k:
        return FRep(k, ((0, 0),))
    pairs, base = [], k
    while x > base:
        e = 0
        while not exceeds(e + 1, 1, base, x):
            e += 1
        lo, hi = 1, 2
        while not exceeds(e, hi, base, x):
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if exceeds(e, mid, base, x):
                hi = mid
            else:
                lo = mid
        pairs.append((e, lo))
        base = eval_F_iter(e, lo, base, x).value
    return FRep(k, tuple(pairs))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_encode_matches_gallop_reference_exhaustively(k):
    for x in range(3000):
        assert encode(x, k) == _gallop_encode(x, k), f"x={x} k={k}"


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_encode_matches_gallop_reference_at_branch_boundaries(k):
    # e = 0 below 2k, e = 1 from there to below F_2(k) = k * 2^k
    for x in (2 * k - 1, 2 * k, k * 2**k - 1, k * 2**k):
        assert encode(x, k) == _gallop_encode(x, k), f"x={x} k={k}"


def test_encode_around_F3():
    # e = 2 below F_3(k), e = 3 from F_3(k) on
    for x in (2047, 2048, 2049):  # F_3(2) = 2048
        assert encode(x, 2) == _gallop_encode(x, 2)
    n = 402653184  # F_2(F_2(3)); F_3(3) = F_2(n) has 402653213 bits
    f3 = n << n
    assert eval_F(3, 3, f3) == Exact(f3)
    for x in (f3, f3 + 1):
        assert encode(x, 3) == _gallop_encode(x, 3)
    # the reference would take about 4 * 10^8 gallop steps for the last count
    assert encode(f3 - 1, 3) == FRep(3, ((2, 2), (1, n - 1), (0, f3 // 2 - 1)))


@pytest.mark.parametrize("d", [30, 60, 100, 200, 300])
def test_encode_matches_gallop_reference_on_bigints(d):
    for k in (2, 3, 4, 5, 6):
        for x in range(10 ** (d - 1), 10 ** (d - 1) + 6):
            assert encode(x, k) == _gallop_encode(x, k), f"x={x} k={k}"


def test_encode_huge_intermediate_base():
    # the second pair leaves the base at F_2(2048) = 2^2059, far above bitlen(x)
    x = 2**100_000 + 12345
    r = encode(x, 2)
    assert r == FRep(2, ((3, 1), (2, 1), (1, 97941), (0, 12345)))
    assert decode(r, x) == Exact(x)


def test_compare_examples():
    a = encode(4, 2)
    b = encode(9, 2)
    assert compare(a, b) == Ordering.LT
    assert compare(encode(2, 2), encode(2, 2)) == Ordering.EQ
    # strict prefix is smaller: 4 = [(1,1)] against 5 = [(1,1),(0,1)]
    assert compare(encode(4, 2), encode(5, 2)) == Ordering.LT
    with pytest.raises(ValueError):
        compare(encode(4, 2), encode(4, 3))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_order_isomorphism_small(k):
    reps = {x: encode(x, k) for x in range(k, 400)}
    for x, y in itertools.combinations(range(k, 400), 2):
        assert compare(reps[x], reps[y]) == Ordering.LT


def test_atom_below_any_pair_form():
    assert compare(FRep(5, 4), encode(5, 5)) == Ordering.LT
    assert compare(encode(7, 5), FRep(5, 0)) == Ordering.GT


@pytest.mark.parametrize("bad", [FRep(2, "x"), FRep(2, ((1, None),)), FRep(2, None), FRep(2, 7), FRep(2, True),
                                 TRep(2, ((TRep(2, 1), TRep(2, 1)),))], ids=repr)
def test_compare_refuses_what_decode_refuses(bad):
    # against 5 = [(1,1),(0,1)]_2 each body is of another type, or fails the
    # tuple compare: there a broken shape is decode's RepError, not an answer
    with pytest.raises(RepError) as err:
        decode(bad, CAP)
    good = encode(5, 2)
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(RepError) as got:
            compare(a, b)
        assert str(got.value) == str(err.value)


@pytest.mark.parametrize("k", [2, 3])
def test_compare_matches_is_atom_reference(k):
    def reference(a: FRep, b: FRep) -> Ordering:
        # the body compare had before it read the bodies once
        if a.base != b.base:
            raise ValueError(f"cannot compare representations with bases {a.base} and {b.base}")
        if a.is_atom and b.is_atom:
            return (Ordering.LT, Ordering.EQ, Ordering.GT)[(a.body > b.body) - (a.body < b.body) + 1]
        if a.is_atom:
            return Ordering.LT
        if b.is_atom:
            return Ordering.GT
        pa, pb = a.body, b.body
        if pa == pb:
            return Ordering.EQ
        return Ordering.LT if pa < pb else Ordering.GT

    reps = [encode(x, k) for x in range(600)]  # atoms 0..k-1 included
    pairs = list(itertools.product(reps, repeat=2))
    assert [compare(a, b) for a, b in pairs] == [reference(a, b) for a, b in pairs]
    for a, b in ((encode(0, k), encode(0, k + 1)), (encode(9, k), encode(9, k + 1)),
                 (encode(1, k), encode(99, k + 1))):
        with pytest.raises(ValueError):
            compare(a, b)


# ---------------------------------------------------------------------------
# Shifts


def test_shift_examples():
    assert shift_value(4, 2, 3, CAP) == Exact(6)  # [(1,1)]_2 -> [(1,1)]_3 = F_1(3)
    assert shift_value(2, 2, 3, CAP) == Exact(3)  # bare base follows the base
    assert shift_value(8, 2, 3, CAP) == ExceedsCap(CAP)  # exponent 2 -> 3, F_3(3)


def test_shift_below_base_is_identity():
    assert shift_value(1, 2, 9, CAP) == Exact(1)
    assert shift_total_value(0, 3, 5, CAP) == Exact(0)


def test_shift_rejects_bad_bases():
    with pytest.raises(ValueError):
        shift_value(5, 3, 2, CAP)  # target below source
    with pytest.raises(ValueError):
        shift_value(5, 1, 3, CAP)


BAD_CAPS = [-1, 2.5, True, False, "7", None]


@pytest.mark.parametrize("cap", BAD_CAPS, ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda cap: decode(encode(9, 2), cap),
        lambda cap: decode(encode(1, 2), cap),  # an atom too
        lambda cap: decode_total(to_total(9, 2), cap),
        lambda cap: shift_value(9, 2, 3, cap),
        lambda cap: shift_value(1, 2, 3, cap),  # below the base too
        lambda cap: shift_total_value(9, 2, 3, cap),
    ],
    ids=["decode", "decode_atom", "decode_total", "shift_value", "shift_value_atom", "shift_total_value"],
)
def test_codec_rejects_a_cap_that_is_not_a_natural(call, cap):
    # the check eval_F, eval_F_iter and exceeds make on theirs
    with pytest.raises(ValueError, match="cap must be a non-negative integer"):
        call(cap)
    with pytest.raises(ValueError, match="cap must be a non-negative integer"):
        eval_F(1, 2, cap)


@pytest.mark.parametrize("x", [True, False])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: encode(x, 2),
        lambda x: to_total(x, 2),
        lambda x: shift_value(x, 2, 3, CAP),
        lambda x: shift_total_value(x, 2, 3, CAP),
    ],
    ids=["encode", "to_total", "shift_value", "shift_total_value"],
)
def test_codec_rejects_a_bool_value(call, x):
    # True would print as "True", which no reader reads back
    with pytest.raises(ValueError) as err:
        call(x)
    assert str(err.value) == f"value must be a non-negative integer, got {x}"


@pytest.mark.parametrize("b", [True, False])
def test_decode_rejects_bools_in_the_body(b):
    with pytest.raises(RepError) as err:
        decode(FRep(2, b), 5)
    assert str(err.value) == f"atom value {b} not in [0, base 2)"
    for pair in ((b, 1), (1, b)):
        with pytest.raises(RepError) as err:
            decode(FRep(2, (pair,)), 5)
        assert str(err.value) == f"pair ({pair[0]},{pair[1]}) must hold non-negative integers"


def test_shift_same_base_is_identity():
    for x in range(0, 200):
        assert shift_value(x, 3, 3, CAP) == Exact(x)
        assert shift_total_value(x, 3, 3, CAP) == Exact(x)


def test_shift_canonicity():
    # the shifted representation is the pairwise exponent-shifted image
    for k, m in [(2, 3), (2, 4), (3, 4), (3, 5)]:
        for x in range(k, 500):
            shifted = shift_value(x, k, m, CAP)
            if not isinstance(shifted, Exact):
                continue
            r = encode(x, k)
            image = []
            for e, c in r.pairs:
                if e < k:
                    image.append((e, c))
                else:
                    se = shift_value(e, k, m, CAP)
                    assert isinstance(se, Exact)
                    image.append((se.value, c))
            assert encode(shifted.value, m) == FRep(m, tuple(image))


def test_shift_strictly_monotone():
    for k, m in [(2, 3), (3, 5)]:
        vals = []
        for x in range(k, 300):
            s = shift_value(x, k, m, CAP)
            if isinstance(s, Exact):
                vals.append((x, s.value))
        for (x1, v1), (x2, v2) in itertools.combinations(vals, 2):
            assert (x1 < x2) == (v1 < v2)


def test_hereditary_shift_examples():
    assert shift_total_value(4, 2, 3, CAP) == Exact(6)
    assert shift_total_value(2, 2, 3, CAP) == Exact(3)
    # counts >= base do change under the hereditary shift: 7 = [(1,1),(0,3)]_2,
    # the count 3 re-reads as [(0,1)]_3 = 4, so the value is F_1(3) + 4 = 10
    assert shift_total_value(7, 2, 3, CAP) == Exact(10)
    assert shift_value(7, 2, 3, CAP) == Exact(9)


def test_hereditary_shift_dominates_plain():
    for k, m in [(2, 3), (2, 5), (3, 4)]:
        for x in range(k, 400):
            plain = shift_value(x, k, m, CAP)
            total = shift_total_value(x, k, m, CAP)
            if isinstance(plain, Exact) and isinstance(total, Exact):
                assert total.value >= plain.value


# ---------------------------------------------------------------------------
# Validation against the encode oracle


def test_validate_examples():
    rep = FRep(2, ((0, 3),))
    report = validate(rep)
    assert not report.ok and any("count 3" in v for v in report.violations)
    report = validate(FRep(2, ((1, 1), (2, 1))))
    assert not report.ok and any("decreasing" in v for v in report.violations)
    assert validate(FRep(2, ((2, 1), (0, 1)))).ok


def _shape_ok(pairs):
    exps = [e for e, _ in pairs]
    return all(a > b for a, b in zip(exps, exps[1:]))


def test_validate_matches_encode_canonicity_exhaustively():
    # every shape-valid rep with small components passes validation exactly
    # when it re-encodes to itself
    for base in (2, 3):
        singles = [((e, c),) for e in range(4) for c in range(5)]
        doubles = [
            ((e1, c1), (e2, c2))
            for e1 in range(4)
            for c1 in range(4)
            for e2 in range(4)
            for c2 in range(4)
            if e1 > e2
        ]
        for pairs in singles + doubles:
            if not _shape_ok(pairs):
                continue
            r = FRep(base, pairs)
            v = decode(r, CAP)
            canonical = isinstance(v, Exact) and encode(v.value, base) == r
            if isinstance(v, ExceedsCap):
                continue  # cannot settle canonicity without the value
            assert validate(r).ok == canonical, f"r={r} value={v}"


def test_validate_atom():
    assert validate(FRep(5, 3)).ok
    assert not validate(FRep(5, 7)).ok


@pytest.mark.parametrize("body", [(("a", 1),), "xy", True, ((1, True),), ((2.0, 1),), ((1,),), (None,), [(1, 1)]], ids=repr)
def test_validate_reports_what_decode_rejects(body):
    # decode's shape rule comes first, and its RepError is the one violation
    r = FRep(2, body)
    with pytest.raises(RepError) as err:
        decode(r, CAP)
    assert validate(r) == ValidationReport(False, (str(err.value),))


@pytest.mark.parametrize("arg", ["x", 5, None, (2, ((1, 1),)), [2, 1]], ids=repr)
def test_an_argument_that_is_no_rep_is_refused(monkeypatch, arg):
    # a ValueError naming the argument, as correspond's functions give for a
    # non-ordinal; validate reports it as its one violation
    want = "argument {} must be an FRep or TRep, got " + repr(arg)
    r = encode(3, 2)
    for call, name in [(lambda: decode(arg, 5), "r"), (lambda: decode_total(arg, 5), "t"),
                       (lambda: compare(arg, r), "a"), (lambda: compare(r, arg), "b")]:
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is ValueError and str(err.value) == want.format(name)
    assert validate(arg) == ValidationReport(False, (want.format("r"),))
    # a rep that encode built is not checked at all, in decode or in compare
    calls = []
    monkeypatch.setattr(frep, "_check_rep", lambda *a: calls.append(a))
    assert decode(r, 5) == Exact(3) and compare(r, encode(4, 2)) == Ordering.LT and calls == []


# ---------------------------------------------------------------------------
# The shape mark: decode checks the shape of every rep but those encode built


def counting_shape_checks(monkeypatch):
    """The reps frep._check_shape is called on from now on, in order."""
    calls, check = [], frep._check_shape
    monkeypatch.setattr(frep, "_check_shape", lambda r: calls.append(r) or check(r))
    return calls


def test_decode_checks_a_hand_built_rep_on_every_call(monkeypatch):
    calls = counting_shape_checks(monkeypatch)
    for _ in range(2):
        with pytest.raises(RepError, match="^exponents not strictly decreasing at 1$"):
            decode(FRep(2, ((0, 1), (1, 1))), 9)
    r = encode(9, 2)
    h = FRep(2, r.body)  # equal to the encoded rep, and still checked
    assert h == r
    calls.clear()
    assert decode(r, 9) == decode(r, 9) == Exact(9) and calls == []
    assert decode(h, 9) == decode(h, 9) == Exact(9) and calls == [h, h]


@pytest.mark.parametrize("k", [2, 3, 7])
def test_encoded_hand_built_and_copied_reps_agree(monkeypatch, k):
    assert FRep.__match_args__ == ("base", "body")  # class patterns see no mark
    calls = counting_shape_checks(monkeypatch)
    for x in [*range(30), 10**6 + 7, 10**80 + 3]:
        r = encode(x, k)
        for s in (FRep(k, r.body), copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            calls.clear()
            assert s == r and hash(s) == hash(r) and repr(s) == repr(r)
            assert pickle.dumps(s) == pickle.dumps(r)  # the mark is not pickled
            for cap in (x, max(x - 1, 0)):
                assert decode(s, cap) == decode(r, cap)
            assert calls == [s, s]  # copies are unmarked, so checked on each call


def test_a_rep_with_its_mark_unset_decodes_as_an_unmarked_one():
    def bare(base, body):  # built without __init__, its mark slot never set
        r = object.__new__(FRep)
        object.__setattr__(r, "base", base)
        object.__setattr__(r, "body", body)
        return r

    assert decode(bare(2, ((2, 1), (0, 1))), 9) == Exact(9)
    with pytest.raises(RepError, match="^exponents not strictly decreasing at 1$"):
        decode(bare(2, ((0, 1), (1, 1))), 9)


def test_validate_the_readers_and_a_bad_atom_behave_as_before(monkeypatch):
    r = FRep(2, -1)  # constructs, and is refused where it is used
    assert r.body == -1
    with pytest.raises(RepError, match=r"^atom value -1 not in \[0, base 2\)$"):
        decode(r, 9)
    assert validate(r) == ValidationReport(False, ("atom value -1 not in [0, base 2)",))
    calls = counting_shape_checks(monkeypatch)
    r = encode(9, 2)
    assert validate(r).ok and calls == [r]  # validate checks a marked rep too
    # the readers do not enforce falling exponents, so what they build is checked
    for r in (parse_rep("[(0,1),(1,1)]_2"), rep_from_json('{"base": "2", "pairs": [["0", "1"], ["1", "1"]]}')):
        with pytest.raises(RepError, match="^exponents not strictly decreasing at 1$"):
            decode(r, 100)
        assert not validate(r).ok
    with pytest.raises(RepError, match="must hold non-negative integers$"):
        decode(to_total(9, 2), 100)  # a hereditary pair form breaks the flat rule


# ---------------------------------------------------------------------------
# Hereditary representation


def test_to_total_example():
    t = to_total(5, 2)
    assert t == TRep(2, ((TRep(2, 1), TRep(2, 1)), (TRep(2, 0), TRep(2, 1))))


def test_to_total_atom():
    assert to_total(1, 4) == TRep(4, 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_total_roundtrip(k):
    for x in range(0, 600):
        assert decode_total(to_total(x, k), CAP) == Exact(x)


def test_total_roundtrip_pinned():
    assert decode_total(to_total(100, 3), 10**6) == Exact(100)


def test_decode_total_stops_at_an_over_cap_exponent():
    # the count after an over-cap exponent is never decoded, so its broken
    # atom (5 is not below base 2) goes unread
    assert decode_total(TRep(2, ((to_total(10**6, 2), TRep(2, 5)),)), 100) == ExceedsCap(100)
    with pytest.raises(RepError):
        decode_total(TRep(2, ((TRep(2, 1), TRep(2, 5)),)), 100)


def test_decode_total_over_cap_exponent_with_count_zero():
    # F_e^(0)(y) = y however large e is: [(3,0)]_2 is 2, and 3 = [(0,1)]_2
    # nested as the exponent is past a cap of 2
    t = TRep(2, ((to_total(3, 2), TRep(2, 0)),))
    assert decode_total(t, 2) == Exact(2) and decode_total(t, 1) == ExceedsCap(1)
    t = TRep(2, ((to_total(10**6, 2), TRep(2, 0)), (TRep(2, 1), TRep(2, 1))))
    assert decode_total(t, 100) == Exact(4) and decode_total(t, 3) == ExceedsCap(3)
    with pytest.raises(RepError):  # past cap after an exact exponent still breaks the descent
        decode_total(TRep(2, ((TRep(2, 1), TRep(2, 1)), (to_total(10**6, 2), TRep(2, 0)))), 100)
    # two exponents past the cap in a row: [(10,0),(5,0)]_2 is 2 under a cap
    # of 3, and an exponent repeated past the cap is caught as decode does
    t = TRep(2, ((to_total(10, 2), TRep(2, 0)), (to_total(5, 2), TRep(2, 0))))
    assert decode_total(t, 3) == Exact(2)
    big = to_total(10**6, 2)
    for tail in ((), ((TRep(2, 1), TRep(2, 1)),)):
        with pytest.raises(RepError):
            decode_total(TRep(2, ((big, TRep(2, 0)), (big, TRep(2, 0)), *tail)), 100)
    with pytest.raises(RepError):
        decode(FRep(2, ((10**6, 0), (10**6, 0), (1, 1))), 100)


def test_decode_total_rejects_a_bool_atom():
    # the atom clause of decode's shape rule, at any depth of the tree
    for t in (TRep(2, True), TRep(2, ((TRep(2, True), TRep(2, 1)),)), TRep(2, ((TRep(2, 1), TRep(2, False)),))):
        with pytest.raises(RepError, match="not in \\[0, base 2\\)"):
            decode_total(t, 100)


def test_decode_total_rejects_an_empty_pair_list():
    with pytest.raises(RepError, match="^pair list must be non-empty$"):
        decode_total(TRep(2, ()), CAP)
    with pytest.raises(RepError):  # nested as an exponent
        decode_total(TRep(2, ((TRep(2, ()), TRep(2, 1)),)), CAP)


@pytest.mark.parametrize("body", [((1, 1),), "xy", ((TRep(2, 1),),), ((TRep(2, 1), 1),), [(TRep(2, 1), TRep(2, 1))]],
                         ids=["int-pair", "str", "1-tuple", "int-count", "list"])
def test_decode_total_rejects_a_pair_form_that_is_not_pairs_of_treps(body):
    # the node's shape is checked as the walk reaches it, at any depth
    for t in (TRep(2, body), TRep(2, ((TRep(2, body), TRep(2, 1)),)), TRep(2, ((TRep(2, 1), TRep(2, body)),))):
        with pytest.raises(RepError, match=r"^pair list must be a tuple of \(TRep, TRep\) pairs$"):
            decode_total(t, 100)
    # still lazy: the count of an over-cap exponent is not reached
    assert decode_total(TRep(2, ((to_total(10**6, 2), TRep(2, body)),)), 100) == ExceedsCap(100)


def test_decode_total_rejects_a_sub_tree_of_another_base():
    # [(2,1)]_2 with the exponent atom 2 at base 3 once decoded as 8
    one = TRep(2, 1)
    nested = TRep(2, ((TRep(2, ((TRep(3, 1), one),)), one),))
    for t in (TRep(2, ((TRep(3, 2), one),)), TRep(2, ((one, TRep(3, 1)),)), nested):
        with pytest.raises(RepError, match="^a node of base 2 holds sub-trees of bases [23] and [23]$"):
            decode_total(t, 100)


def test_decode_total_rejects_exponents_that_do_not_fall():
    with pytest.raises(RepError):  # the flat reader rejects the same shape
        decode(parse_rep("[(0,2),(1,1)]_2"), 10**6)
    with pytest.raises(RepError):
        decode_total(parse_rep("[(0,[(0,0)]_2),(1,1)]_2"), 10**6)
    with pytest.raises(RepError):  # equal exponents
        decode_total(TRep(2, ((TRep(2, 1), TRep(2, 1)), (TRep(2, 1), TRep(2, 1)))), CAP)
    with pytest.raises(RepError):  # an over-cap exponent after an exact one
        decode_total(TRep(2, ((TRep(2, 1), TRep(2, 1)), (to_total(10**6, 2), TRep(2, 1)))), 100)


def test_decode_total_refuses_an_unhashable_body_past_the_cap():
    # the repeat check compares two exponents past the cap, whose nodes the
    # cutoff left unchecked, and == hashes every body
    one, zero = TRep(2, 1), TRep(2, 0)
    over = TRep(2, ((TRep(2, ((one, one),)), one), (TRep(2, [1]), one)))  # 4 > 3 at its first pair
    with pytest.raises(RepError, match="unhashable"):
        decode_total(TRep(2, ((over, zero), (over, zero))), 3)


# ---------------------------------------------------------------------------
# Text and JSON forms


def test_print_examples():
    assert print_rep(encode(9, 2)) == "[(2,1),(0,1)]_2"
    assert print_rep(encode(1, 3)) == "1"


@pytest.mark.parametrize("r", [FRep(2, (5,)), FRep(2, None), FRep(2, ()), FRep(2, ((1, 1, 1),)), FRep(2, ((1, None),)),
                               TRep(2, ((None, None),)), TRep(2, ((TRep(2, None), TRep(2, 1)),))], ids=repr)
def test_printers_refuse_a_body_that_is_no_pair_list(r):
    for write in (print_rep, rep_to_json):
        with pytest.raises(RepError):
            write(r)


def test_what_parse_rep_reads_prints():
    # the printers check the shape only: falling exponents and one base
    # throughout are decode's and validate's to judge
    for text in ("[(0,2),(1,1)]_2", "[([(0,1)]_3,1)]_2", "[(5,0),(5,0)]_2"):
        r = parse_rep(text)
        assert print_rep(r) == text
        assert rep_from_json(rep_to_json(r)) == r


@pytest.mark.parametrize("r,atom", [
    (FRep(2, True), "True"),
    (FRep(2, 7), "7"),
    (TRep(2, 2), "2"),
    (TRep(2, ((TRep(2, 5), TRep(2, 1)),)), "5"),
    (TRep(2, ((TRep(2, 1), TRep(2, False)),)), "False"),
    (TRep(2, ((TRep(2, ((TRep(2, 1), TRep(2, -1)),)), TRep(2, 0)),)), "-1"),
    (FRep(2, ((FRep(2, 3), 1),)), "3"),
], ids=repr)
def test_printers_refuse_a_bad_atom_at_any_node(r, atom):
    # 7 would read back as an atom of base 8, and True not at all
    for write in (print_rep, rep_to_json):
        with pytest.raises(RepError) as err:
            write(r)
        assert str(err.value) == f"atom value {atom} not in [0, base 2)"


@pytest.mark.parametrize("r,message", [
    (FRep(2, ((-1, 1),)), "(-1, 1) is not an (exponent, count) pair"),
    (FRep(3, ((2, 0), (1, -5))), "(1, -5) is not an (exponent, count) pair"),
    (TRep(2, ((TRep(2, ((TRep(2, 1), -1),)), TRep(2, 1)),)), "(TRep(base=2, ...), -1) is not an (exponent, count) pair"),
    (TRep(2, ((7, TRep(2, ((TRep(2, 1), TRep(2, 1)),))),)), "atom value 7 not in [0, base 2)"),
    (TRep(2, ((TRep(3, 2), TRep(2, ((TRep(2, 1), TRep(2, 1)),))),)), "atom value 2 not in [0, base 2)"),
    (FRep(2, ((FRep(2, ((5, 1),)), 1),)), "atom value 5 not in [0, base 2)"),
    (TRep(3, ((TRep(3, ((TRep(2, ((1, 3),)), TRep(3, 1)),)), TRep(3, 1)),)), "atom value 3 not in [0, base 2)"),
], ids=repr)
def test_printers_refuse_an_item_that_would_not_read_back(r, message):
    # the readers take no negative number, and read every number of a pair
    # list that nests, or sits in one that does, as an atom of its base
    for write in (print_rep, rep_to_json):
        with pytest.raises(RepError) as err:
            write(r)
        assert str(err.value) == message


@pytest.mark.parametrize("r,text", [
    (FRep(2, ((7, 9),)), "[(7,9)]_2"),  # numbers only: read back flat, of any size
    (FRep(2, ((TRep(3, 2), 0),)), "[(2,0)]_2"),  # an atom item prints as a number
    (TRep(2, ((TRep(2, ((1, 0),)), TRep(2, 1)),)), "[([(1,0)]_2,1)]_2"),
    (TRep(2, ((TRep(3, ((TRep(3, 2), TRep(3, 2)),)), TRep(2, 1)),)), "[([(2,2)]_3,1)]_2"),
], ids=repr)
def test_printers_write_an_item_that_reads_back(r, text):
    assert print_rep(r) == text and print_rep(parse_rep(text)) == text
    assert rep_from_json(json.dumps(rep_to_json(r))) == parse_rep(text)


def test_a_broken_pair_names_a_deep_tree_by_class_and_base():
    # the repr of a 400-level tree recurses past the default limit
    deep = TRep(2, 1)
    for _ in range(400):
        deep = TRep(2, ((deep, TRep(2, 1)),))
    bad = FRep(2, ((deep, None),))
    want = "pair (TRep(base=2, ...),None) must hold non-negative integers"
    assert validate(bad) == ValidationReport(False, (want,))
    for call in (lambda: decode(bad, CAP), lambda: compare(bad, encode(5, 2)), lambda: compare(encode(5, 2), bad)):
        with pytest.raises(RepError) as err:
            call()
        assert str(err.value) == want
    for write in (print_rep, rep_to_json):
        with pytest.raises(RepError) as err:
            write(bad)
        assert str(err.value) == "(TRep(base=2, ...), None) is not an (exponent, count) pair"
    assert validate(FRep(2, ([deep, 1],))).violations == ("[TRep(base=2, ...), 1] is not an (exponent, count) pair",)
    assert validate(FRep(2, ((deep,),))).violations == ("(TRep(base=2, ...),) is not an (exponent, count) pair",)
    with pytest.raises(ValueError, match=r"^argument r must be an FRep or TRep, got \(TRep\(base=2, \.\.\.\),\)$"):
        decode((deep,), CAP)


def test_validate_names_a_body_that_is_not_a_tuple():
    assert validate(FRep(2, "x")).violations == ("pair list must be a tuple of (exponent, count) pairs",)
    assert validate(FRep(2, ())).violations == ("pair list must be non-empty",)


def test_parse_examples():
    assert parse_rep("[(0,0)]_3") == FRep(3, ((0, 0),))
    with pytest.raises(ParseError) as err:
        parse_rep("[(2,")
    assert err.value.position == 4


def test_parse_print_roundtrip():
    for k in (2, 3, 5):
        for x in range(0, 300, 7):
            r = encode(x, k)
            assert parse_rep(print_rep(r), base=k) == r
            t = to_total(x, k)
            parsed = parse_rep(print_rep(t), base=k)
            if isinstance(parsed, TRep):
                assert parsed == t
            else:  # all components flat: the text cannot tell the two apart
                assert decode(parsed, CAP) == decode_total(t, CAP)


def test_parse_whitespace_and_nesting():
    t = parse_rep(" [ ( [(0,0)]_2 , 1 ) , ( 0 , 1 ) ]_2 ")
    assert isinstance(t, TRep)
    assert decode_total(t, CAP) == Exact(9)  # exponent 2, count 1, then +1


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_rep("[(1,1)]_2 x")
    with pytest.raises(ParseError):
        parse_rep("12 7")
    with pytest.raises(ParseError):  # nested past the recursion limit
        parse_rep("[(" * 1500 + "0" + ",1)]_2" * 1500)
    with pytest.raises(ParseError) as err:  # digits are ASCII 0-9 only
        parse_rep("[(²,1)]_2")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_rep("[(1,1)]_٢")
    assert err.value.position == 8
    with pytest.raises(ParseError) as err:  # reported where the atom stands
        parse_rep("[([(0,0)]_2,5)]_2")
    assert err.value.position == 12
    with pytest.raises(ParseError) as err:
        parse_rep(" [( [(0,0)]_3 , 1),(0,  4)]_3")
    assert err.value.position == 24
    with pytest.raises(ParseError) as err:
        parse_rep("  7", base=3)
    assert err.value.position == 2


def at_depth(extra, fn):
    """fn() called from `extra` frames further down the stack."""
    return fn() if extra == 0 else at_depth(extra - 1, fn)


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def reference_eq(s, t):
    """The == of a frozen dataclass TRep: its fields' tuple compare, recursing
    once per level."""
    if type(s) is TRep and type(t) is TRep:
        return s.base == t.base and reference_eq(s.body, t.body)
    if type(s) is tuple and type(t) is tuple:
        return len(s) == len(t) and all(map(reference_eq, s, t))
    return s == t


def odd_treps():
    # hand-built trees, each built afresh per call, that share no node
    one = TRep(2, 1)
    return [TRep(2, 1), TRep(3, 1), TRep(2, 0), TRep(2, ()), TRep(2, "xy"), TRep(2, (1,)), TRep(2, ((1, 1),)),
            TRep(2, ((1, 2),)), TRep(2, ((one, 1),)), TRep(2, ((one, one),)), TRep(3, ((one, one),)),
            TRep(2, ((one, one), (one, one))), TRep(2, ((one, TRep(2, 0)),)), FRep(2, 1), FRep(2, ((1, 1),))]


def test_trep_eq_and_hash_match_the_recursive_reference():
    values = [*range(40), 10**20, 10**20 + 1, 10**60]
    trees = [to_total(x, k) for k in (2, 3) for x in values] + odd_treps()
    again = [to_total(x, k) for k in (2, 3) for x in values] + odd_treps()
    for s, s2 in zip(trees, again):
        assert s == s2 and hash(s) == hash(s2)
        for t in trees:
            assert (s == t) == reference_eq(s, t) == (t == s), (s, t)
            assert (s != t) != (s == t)
    assert FRep(2, 3) != TRep(2, 3) and TRep(2, 3) != FRep(2, 3)
    assert FRep(2, ((1, 1),)) != TRep(2, ((1, 1),))


def rebuilt(t):
    """A copy of tree t that shares no node with it, each distinct node built
    once, after its children, without recursion."""
    new, todo = {}, [t]
    while todo:
        s = todo.pop()
        if id(s) in new:
            continue
        pairs = s.body if isinstance(s.body, tuple) else ()
        kids = [x for pair in pairs for x in pair if id(x) not in new]
        if kids:
            todo += [s, *kids]
        else:
            new[id(s)] = TRep(s.base, tuple((new[id(e)], new[id(c)]) for e, c in pairs) if pairs else s.body)
    return new[id(t)]


@pytest.mark.parametrize("digits", [400, 1000, 3000])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_trep_eq_and_hash_take_any_depth_from_any_caller(digits, k):
    import random

    x = random.Random(digits + k).randrange(10 ** (digits - 1), 10**digits)
    a = to_total(x, k)
    b = rebuilt(a)  # no node in common, so no answer comes from `is`
    assert b is not a and b.body[0][0] is not a.body[0][0]
    shallow = a == b, hash(a)
    deep = at_depth(800, lambda: (b == a, hash(b)))
    assert shallow == (True, deep[1]) and deep[0]


def distinct_nodes(t):
    seen, todo = {}, [t]
    while todo:
        s = todo.pop()
        if id(s) not in seen:
            seen[id(s)] = s
            if type(s.body) is tuple:
                todo += [x for pair in s.body if type(pair) is tuple for x in pair if isinstance(x, TRep)]
    return list(seen.values())


@pytest.mark.parametrize("extra", [0, 800])
def test_pickle_and_deepcopy_take_a_tree_of_any_depth(extra):
    t = to_total(10**1000 + 7, 2)
    copies = at_depth(extra, lambda: [pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)])
    for u in copies:
        assert u is not t and u == t and hash(u) == hash(t)
        nodes = distinct_nodes(u)  # equal sub-trees stay shared
        assert len(nodes) == len(distinct_nodes(t)) and not any(getattr(s, "_shaped", False) for s in nodes)
    for s in odd_treps() + [TRep(2, ((TRep(3, 2), TRep(2, 1)),))]:  # hand-built shapes too
        assert pickle.loads(pickle.dumps(s)) == s == copy.deepcopy(s)


def copied(t):
    """Tree t built afresh at each occurrence of each node, recursing once per
    level: the copy shares no node with t, nor within itself."""
    if type(t.body) is not tuple:
        return TRep(t.base, t.body)
    return TRep(t.base, tuple([(copied(e), copied(c)) for e, c in t.body]))


@pytest.mark.parametrize("x", [10**20 + 3, 10**60 + 1, 10**99 + 12345])
@pytest.mark.parametrize("k", [2, 3])
def test_trees_that_share_sub_trees_differently_compare_and_hash_alike(x, k):
    t = to_total(x, k)
    u = copied(t)
    assert len(distinct_nodes(u)) > len(distinct_nodes(t))  # t shares its equal sub-trees, u none
    assert t == u and u == t and hash(t) == hash(u)
    assert t != to_total(x + 1, k) and u != to_total(x + 1, k)


def test_pickle_keeps_a_tree_with_equal_but_distinct_sub_trees():
    a, b = to_total(100, 2), to_total(100, 2)
    t = TRep(2, ((a, TRep(2, 1)), (b, TRep(2, 0))))
    assert a is not b
    for u in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert u == t and hash(u) == hash(t)
        assert u.body[0][0] is u.body[1][0]  # what was equal is shared


def test_a_tree_with_an_unhashable_body_raises_type_error():
    for t in (TRep(2, [1]), TRep(2, ((TRep(2, 1), TRep(2, [1])),))):
        for call in (lambda: t == t, lambda: t == TRep(2, 1), lambda: hash(t), lambda: pickle.dumps(t),
                     lambda: copy.deepcopy(t)):
            with pytest.raises(TypeError, match="unhashable"):
                call()


def test_repr_prints_a_tree_as_deep_as_before():
    # 258 levels, which the dataclass repr printed too
    t = to_total(10**150 + 7, 2)
    assert repr(t).startswith("TRep(base=2, body=((TRep(base=2, body=((TRep(")


def test_trep_eq_finds_a_difference_at_the_bottom_of_a_long_chain():
    def chain(bottom):
        t = TRep(2, bottom)
        for _ in range(2000):  # twice the default recursion limit
            t = TRep(2, ((t, TRep(2, 1)),))
        return t

    a, b, c = chain(0), chain(0), chain(1)
    for extra in (0, 800):
        assert at_depth(extra, lambda: (a == b, a != c, c != a, hash(a) == hash(b))) == (True, True, True, True)


def test_rep_text_nesting_limit_is_fixed():
    # the same answer from a shallow and a deep caller: the limit is a count
    # of brackets, not whatever stack the caller has left
    def nested(levels):
        return "[(" * levels + "0" + ",1)]_2" * levels

    at, over = nested(REP_NESTING_LIMIT), nested(REP_NESTING_LIMIT + 1)

    def at_the_limit():
        t = parse_rep(at)
        return isinstance(t, TRep), print_rep(t) == at, decode_total(t, CAP)

    for extra in (0, 200):
        assert at_depth(extra, at_the_limit) == (True, True, ExceedsCap(CAP))
    for extra in (0, 200, sys.getrecursionlimit() - stack_depth() - 40):
        with pytest.raises(ParseError, match="nesting too deep") as err:
            at_depth(extra, lambda: parse_rep(over))
        assert err.value.position == 2 * REP_NESTING_LIMIT  # the first "[" too many


def test_rep_json_nesting_limit_matches_the_text_reader():
    # a pair object per bracket: what one reader takes the other takes too
    def nested(levels):
        text, obj = "0", "0"
        for _ in range(levels):
            text = "[(" + text + ",1)]_2"
            obj = {"base": "2", "pairs": [[obj, "1"]]}
        return text, obj

    text, obj = nested(REP_NESTING_LIMIT)
    for arg in (obj, json.dumps(obj)):
        t = rep_from_json(arg)
        # compared as text: == on trees this deep recurses past the stack
        assert isinstance(t, TRep) and print_rep(t) == text
        assert print_rep(parse_rep(print_rep(t))) == text
    text, obj = nested(REP_NESTING_LIMIT + 1)
    for read, arg in ((parse_rep, text), (rep_from_json, obj), (rep_from_json, json.dumps(obj))):
        with pytest.raises(ParseError, match="nesting too deep"):
            read(arg)


def test_json_roundtrip():
    for k in (2, 3):
        for x in (0, 1, k, k + 1, 9, 100, 2048):
            r = encode(x, k)
            assert rep_from_json(json.dumps(rep_to_json(r))) == r
            t = to_total(x, k)
            back = rep_from_json(json.dumps(rep_to_json(t)))
            if isinstance(back, TRep):
                assert back == t
            else:
                assert decode(back, CAP) == decode_total(t, CAP)


@pytest.mark.parametrize(
    "text",
    [
        '{"base":"2","pairs":[["-1","1"]]}',
        '{"base":"2","atom":"5"}',  # not below the base
        '{"base":"2","atom":"-1"}',
        '{"base":"2"}',
        '{"base":"2","pairs":[]}',
        '{"base":"2","pairs":[["1","1"]],"extra":"0"}',
        '{"base":"2","pairs":[["1"]]}',
        '{"base":"2","pairs":[["\u00b2","1"]]}',
        '{"base":"2","pairs":[[{"base":"2","atom":"1"},"1"]]}',  # nested atom object
        '{"base":2,"atom":"1"}',
        '"5"',
    ],
)
def test_json_rejects_what_the_writer_never_writes(text):
    with pytest.raises((RepError, ParseError)):
        rep_from_json(text)


def test_json_nested_past_the_recursion_limit_is_a_parse_error():
    text, obj = '"1"', "1"
    for _ in range(900):
        text = '{"base":"2","pairs":[[' + text + ',"1"]]}'
        obj = {"base": "2", "pairs": [[obj, "1"]]}
    for arg in (text, obj):  # json.loads fails on the text, the tree walk on the object
        with pytest.raises(ParseError, match="nesting too deep"):
            rep_from_json(arg)


def test_json_shape():
    assert rep_to_json(encode(9, 2)) == {"base": "2", "pairs": [["2", "1"], ["0", "1"]]}
    assert rep_to_json(encode(1, 2)) == {"base": "2", "atom": "1"}
