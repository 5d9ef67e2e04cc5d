"""Ordinal term arithmetic: order laws, addition, the w^w shift, towers, measure C."""

import itertools
import json
import re
from functools import cmp_to_key

import pytest

from grzseq.order import Ordering, ParseError
from grzseq.ordinals import (
    CLOSE,
    OMEGA,
    ONE,
    OPEN,
    ZERO,
    Ordinal,
    add,
    coeff_measure,
    compare,
    from_int,
    left_subtract_omega,
    mul_omega_omega,
    omega_pow,
    omega_tower,
    ordinal_from_json,
    ordinal_to_json,
    parse_ordinal,
    predecessor,
    print_ordinal,
)


def gen_ordinals(depth: int, max_coeff: int = 2, max_len: int = 2) -> list[Ordinal]:
    """All CNF terms of bounded depth, term count, and coefficient size."""
    pool = [ZERO]
    for _ in range(depth):
        exps = list(pool)
        nxt = set(pool)
        singles = [omega_pow(e, c) for e in exps for c in range(1, max_coeff + 1)]
        nxt.update(singles)
        for (e1, e2) in itertools.combinations(exps, 2):
            lo, hi = (e1, e2) if compare(e1, e2) == Ordering.LT else (e2, e1)
            for c1 in range(1, max_coeff + 1):
                for c2 in range(1, max_coeff + 1):
                    nxt.add(Ordinal(((hi, c1), (lo, c2))))
        pool = list(nxt)
        if len(pool) > 400:
            break
    return pool


SMALL = gen_ordinals(3)


def test_compare_examples():
    assert compare(OMEGA, from_int(2)) == Ordering.GT
    w_to_w = omega_pow(OMEGA)
    five_w_plus_3 = add(omega_pow(ONE, 5), from_int(3))
    assert compare(w_to_w, five_w_plus_3) == Ordering.GT
    a = omega_pow(from_int(2), 3)
    assert compare(a, omega_pow(from_int(2), 3)) == Ordering.EQ


def test_compare_antisymmetric_on_samples():
    for a, b in itertools.combinations(SMALL, 2):
        ab, ba = compare(a, b), compare(b, a)
        assert ab != Ordering.EQ  # generator yields distinct terms
        assert (ab == Ordering.LT) == (ba == Ordering.GT)


def test_compare_transitive_on_samples():
    subset = SMALL[:40]
    for a, b, c in itertools.combinations(subset, 3):
        trio = sorted([a, b, c], key=cmp_to_key(lambda u, v: compare(u, v).value))
        assert compare(trio[0], trio[1]) == Ordering.LT
        assert compare(trio[1], trio[2]) == Ordering.LT
        assert compare(trio[0], trio[2]) == Ordering.LT


def test_sorting_is_consistent():
    ordered = sorted(SMALL, key=cmp_to_key(lambda u, v: compare(u, v).value))
    for a, b in zip(ordered, ordered[1:]):
        assert compare(a, b) == Ordering.LT


def test_key_order_matches_recursive_reference():
    def reference(a: Ordinal, b: Ordinal) -> Ordering:
        # term-by-term CNF comparison, recursing into exponents
        for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
            ec = reference(ea, eb)
            if ec != Ordering.EQ:
                return ec
            if ca != cb:
                return Ordering.LT if ca < cb else Ordering.GT
        la, lb = len(a.terms), len(b.terms)
        return (Ordering.LT, Ordering.EQ, Ordering.GT)[(la > lb) - (la < lb) + 1]

    for a, b in itertools.product(SMALL, repeat=2):
        ref = reference(a, b)
        assert compare(a, b) == ref
        lt, eq = ref == Ordering.LT, ref == Ordering.EQ
        assert (a < b, a == b, a <= b) == (lt, eq, lt or eq)


def test_deep_towers_compare_hash_and_measure():
    lo, hi = omega_tower(1499), omega_tower(1500)
    assert lo < hi and not hi <= lo
    assert compare(hi, lo) == Ordering.GT
    assert hi == omega_pow(lo) and hi != lo
    assert hash(hi) == hash(omega_pow(lo))
    assert coeff_measure(hi) == 1


def test_add_examples():
    # absorption of the finite tail: (w^2 + 3) + w = w^2 + w
    lhs = add(add(omega_pow(from_int(2)), from_int(3)), OMEGA)
    assert lhs == Ordinal(((from_int(2), 1), (ONE, 1)))
    assert add(parse_ordinal("w^(2)*1+3"), OMEGA) == parse_ordinal("w^(2)*1+w")


def test_add_laws_on_samples():
    subset = SMALL[:30]
    for a in subset:
        assert add(a, ZERO) == a
        assert add(ZERO, a) == a
    for a, b in itertools.product(subset, repeat=2):
        s = add(a, b)
        assert compare(s, a) != Ordering.LT  # a <= a + b
        assert compare(s, b) != Ordering.LT  # b <= a + b
    for a, b, c in itertools.product(subset[:12], repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))


@pytest.mark.parametrize("text,want", [("1", "0"), ("2", "1"), ("7", "6"), ("w+1", "w"), ("w+3", "w+2"),
                                       ("w^(w)*2+w*3+5", "w^(w)*2+w*3+4"), ("w^(w^(2)+1)+w^(3)*2+1", "w^(w^(2)+1)+w^(3)*2")])
def test_predecessor_lowers_or_drops_the_finite_term(text, want):
    a, b = predecessor(parse_ordinal(text)), parse_ordinal(want)
    rebuilt = Ordinal(a.terms)  # the constructor checks the terms and builds the key
    assert a.key == b.key == rebuilt.key and a.terms == b.terms
    assert add(a, ONE) == parse_ordinal(text)


def test_predecessor_of_one_is_zero():
    assert predecessor(from_int(1)) == ZERO and predecessor(from_int(1)).key == ZERO.key


@pytest.mark.parametrize("a", [ZERO, OMEGA, parse_ordinal("w^w+w")], ids=str)
def test_predecessor_refuses_zero_and_limits(a):
    with pytest.raises(ValueError, match="has no predecessor"):
        predecessor(a)


def test_mul_omega_omega_example():
    # w^w * (w*2 + 1) = w^(w+1)*2 + w^w
    a = parse_ordinal("w*2+1")
    assert mul_omega_omega(a) == parse_ordinal("w^(w+1)*2+w^(w)*1")


def test_mul_omega_omega_preserves_order():
    subset = SMALL[:60]
    for a, b in itertools.combinations(subset, 2):
        rel = compare(a, b)
        assert compare(mul_omega_omega(a), mul_omega_omega(b)) == rel


def test_mul_omega_omega_coefficient_bounds():
    # the measure can grow by one when an exponent's leading w-coefficient
    # absorbs the added w: w^w * w^(w*2) = w^(w*3)
    bump = omega_pow(parse_ordinal("w*2"))
    assert coeff_measure(bump) == 2
    assert coeff_measure(mul_omega_omega(bump)) == 3
    assert mul_omega_omega(ZERO) == ZERO
    for a in SMALL:
        if a.is_zero:
            continue
        c0, c1 = coeff_measure(a), coeff_measure(mul_omega_omega(a))
        assert max(1, c0) <= c1 <= c0 + 1


def test_omega_tower():
    assert omega_tower(0) == ONE
    assert omega_tower(1) == OMEGA
    assert omega_tower(2) == omega_pow(OMEGA)
    assert compare(omega_tower(4), omega_tower(3)) == Ordering.GT


def test_left_subtract_omega():
    w_to_w = omega_pow(OMEGA)
    assert left_subtract_omega(w_to_w) == w_to_w  # w + w^w = w^w
    assert left_subtract_omega(OMEGA) == ZERO
    assert left_subtract_omega(parse_ordinal("w*3+2")) == parse_ordinal("w*2+2")
    with pytest.raises(ValueError):
        left_subtract_omega(from_int(7))


def test_left_subtract_omega_inverts_on_samples():
    for e in SMALL:
        if e.is_finite:
            continue
        assert add(OMEGA, left_subtract_omega(e)) == e


def test_coeff_measure_examples():
    assert coeff_measure(ZERO) == 0
    a = add(omega_pow(parse_ordinal("w*2")), from_int(3))
    assert coeff_measure(a) == 3
    assert coeff_measure(OMEGA) == 1


@pytest.mark.parametrize("build", [lambda: Ordinal(((1, 1),)), lambda: omega_pow(1)])
def test_an_exponent_that_is_no_ordinal_is_refused(build):
    with pytest.raises(ValueError, match=r"^exponent 1 is not an Ordinal$"):
        build()


def test_an_infinite_ordinal_has_no_int():
    with pytest.raises(ValueError, match=r"^w\^\(1\)\*1 is infinite$"):
        OMEGA.as_int()


@pytest.mark.parametrize("name", ["nonsense", "keys", "_key", "value"])
def test_a_deferred_tower_level_has_no_attribute_but_its_key(name):
    level = omega_tower(30)
    assert type(level) is not Ordinal  # its key waits for a reader
    with pytest.raises(AttributeError) as err:
        getattr(level, name)
    assert str(err.value) == name
    assert level.key == omega_tower(30).key and level.key[0] == OPEN


def test_cnf_invariants_enforced():
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 0),))  # zero coefficient
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 1), (ONE, 1)))  # increasing exponents
    with pytest.raises(ValueError):
        Ordinal(((ONE, 1), (ONE, 1)))  # duplicated exponents


@pytest.mark.parametrize("build", [
    lambda: Ordinal(((ZERO, True),)),
    lambda: Ordinal(((ONE, 2), (ZERO, True))),
    lambda: from_int(True),
    lambda: from_int(False),
    lambda: omega_pow(ONE, True),
    lambda: omega_pow(omega_tower(30), True),  # the deferred-key level too
    lambda: omega_tower(True),
])
def test_bools_are_not_ordinal_integers(build):
    # True would print as "True", which no parser reads back
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("bad", ["w", 3, None], ids=repr)
@pytest.mark.parametrize("call, at", [
    (lambda x: add(x, ONE), "a"),
    (lambda x: add(OMEGA, x), "b"),
    (lambda x: add(x, ZERO), "a"),  # b = 0 alone would hand a back unread
    (lambda x: compare(x, ONE), "a"),
    (lambda x: compare(OMEGA, x), "b"),
    (lambda x: coeff_measure(x), "a"),
    (lambda x: predecessor(x), "a"),
], ids=["add a", "add b", "add a + 0", "compare a", "compare b", "coeff_measure", "predecessor"])
def test_arguments_that_are_no_ordinal_raise_value_error(call, at, bad):
    with pytest.raises(ValueError, match=rf"^argument {at} must be an Ordinal, got {re.escape(repr(bad))}$"):
        call(bad)


# ---------------------------------------------------------------------------
# Text and JSON forms


def test_parse_sugar():
    assert parse_ordinal("w") == OMEGA
    assert parse_ordinal("w^w") == omega_pow(OMEGA)
    assert parse_ordinal("w*2") == omega_pow(ONE, 2)
    assert parse_ordinal("w^(w*2)+3") == add(omega_pow(parse_ordinal("w*2")), from_int(3))
    assert parse_ordinal("w^2") == omega_pow(from_int(2))
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal(" w + w ") == omega_pow(ONE, 2)  # sums normalize


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_ordinal("w^")
    with pytest.raises(ValueError):
        parse_ordinal("3w")
    with pytest.raises(ValueError):
        parse_ordinal("")
    # no depth limit: 1,500 levels parse like any other term
    assert parse_ordinal("w^(" * 1500 + "1" + ")" * 1500) == omega_tower(1500)
    with pytest.raises(ParseError) as err:  # digits are ASCII 0-9 only
        parse_ordinal("²")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_ordinal("٣")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_ordinal("w^²")
    assert err.value.position == 2


def test_print_parse_roundtrip():
    for a in SMALL:
        assert parse_ordinal(print_ordinal(a)) == a
    assert print_ordinal(ZERO) == "0"
    assert print_ordinal(OMEGA) == "w^(1)*1"


def test_text_of_any_depth_round_trips():
    # far past the interpreter's recursion limit
    tower = omega_tower(5000)
    text = print_ordinal(tower)
    assert text == "w^(" * 5000 + "1" + ")*1" * 5000
    assert parse_ordinal(text) == tower


def test_deep_towers_hold_one_key():
    # levels above the first few read their keys only when asked, so a tower
    # of depth d holds O(d) key tokens; every level still compares as its key
    tower = parse_ordinal("w^(" * 3000 + "1" + ")*1" * 3000)
    levels = [tower]
    while levels[-1].terms:
        levels.append(levels[-1].terms[0][0])
    assert len(levels) == 3002 and levels[-1] == ZERO
    assert tower.key == (OPEN,) * 3002 + (CLOSE, 1) * 3001 + (CLOSE,)
    lazy = [a for a in levels if type(a) is not Ordinal]
    assert len(lazy) > 2900  # the key above was built without theirs
    # levels[j] is w_{3000-j}
    assert levels[1000] == omega_tower(2000) and hash(levels[1000]) == hash(omega_tower(2000))
    assert omega_tower(2000) < levels[999] and levels[999] > levels[1000] >= omega_tower(2000)
    assert sorted(levels[::-500]) == levels[::-500] and coeff_measure(levels[2]) == 1
    assert {levels[5], omega_tower(2995)} == {omega_tower(2995)}
    eager = Ordinal(((levels[6], 1),))  # the constructor itself builds the key
    assert type(eager) is Ordinal and type(levels[5]) is not Ordinal
    assert eager == levels[5] and levels[5] == eager and hash(eager) == hash(levels[5])
    assert eager <= levels[5] <= eager and not eager < levels[5] and levels[4] > eager < levels[4]
    assert compare(eager, levels[4]) == Ordering.LT and {eager, levels[5]} == {eager}


def test_json_roundtrip():
    for a in SMALL[:80]:
        assert ordinal_from_json(json.dumps(ordinal_to_json(a))) == a


def recursive_ordinal_to_json(a):
    """The writer as it was: one call per level."""
    return [[recursive_ordinal_to_json(e), str(c)] for e, c in a.terms]


def test_json_writer_matches_the_recursive_one():
    from grzseq.correspond import o_map

    for a in SMALL:
        assert ordinal_to_json(a) == recursive_ordinal_to_json(a)
    for k in (2, 3):
        for x in range(k, 2000):
            a = o_map(x, k)
            assert ordinal_to_json(a) == recursive_ordinal_to_json(a), (x, k)


def test_json_writer_takes_any_depth():
    # omega_tower(d) is d single-term levels over ONE = [[[], "1"]]
    v, levels = ordinal_to_json(omega_tower(2000)), 0
    while v:
        ((v, c),) = v
        assert c == "1"
        levels += 1
    assert levels == 2001


@pytest.mark.parametrize(
    "text",
    [
        '[[[], 1]]',  # an int coefficient
        '[[[], "\u0663"]]',  # a non-ASCII digit
        '[[[], "x"]]',
        '[[[], "-1"]]',
        '{"a":1}',
        '[[[]]]',
        '[[[], "1", "2"]]',
        '[[{}, "1"]]',
        '"1"',
        '[[[[[], "1"]], "1"], 3]',
    ],
)
def test_json_rejects_what_the_writer_never_writes(text):
    with pytest.raises(ParseError):
        ordinal_from_json(text)


def test_json_keeps_the_normal_form_checks():
    for text in ('[[[], "0"]]', '[[[], "1"], [[[[], "1"]], "1"]]', '[[[], "1"], [[], "1"]]'):
        with pytest.raises(ValueError) as err:
            ordinal_from_json(text)
        assert not isinstance(err.value, ParseError)


def test_json_nested_past_the_recursion_limit_is_a_parse_error():
    text, obj = "[]", []
    for _ in range(600):
        text = '[[' + text + ',"1"]]'
        obj = [[obj, "1"]]
    for arg in (text, obj):  # json.loads fails on the text, the tree walk on the object
        with pytest.raises(ParseError, match="nesting too deep"):
            ordinal_from_json(arg)
