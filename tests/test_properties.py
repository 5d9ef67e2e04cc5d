"""Properties of the kernel and the codec on generated inputs: round trips,
order, and the soundness of every cutoff against a naive evaluator with a
larger budget;
the correspondence's inverse, predecessor, membership and order on the
images of generated values; the round trip of a compressed chain through
its text; each engine's answer against its own checker (a compressed chain
against verify_slow and D, membership from C and from the base below, a
trace's shadows against shadow_check); and every consumer of a rep on
hand-built bodies of any shape.

Deterministic: each test runs derandomized, with a fixed number of examples
and no example database.
"""

import copy
import json
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from naive_eval import naive_iter
from test_frep import reference_eq

from grzseq.correspond import L_inverse, Q_pred, in_D, o_map
from grzseq.frep import (
    FRep,
    TRep,
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
from grzseq.grzeval import Exact, ExceedsCap, climb, eval_F, eval_F_iter, exceeds, fold, in_relation_R
from grzseq.order import Ordering
from grzseq.ordinals import OMEGA, ONE, ZERO, Ordinal, coeff_measure, from_int
from grzseq.seq import run, shadow_check
from grzseq.slowdown import chain_to_text, compress, parse_chain_text, verify_slow


def derandomized(examples):
    return settings(derandomize=True, database=None, max_examples=examples, deadline=2000)


def naive_fold(pairs, y, budget):
    for e, c in pairs:
        y = naive_iter(e, c, y, budget)
        if y is None:
            return None
    return y


def confirmed(got, cap, truth):
    """got is what the library answered under cap, truth the naive value
    under a budget above cap (None: past the budget)."""
    if isinstance(got, Exact):
        return got.value == truth
    return got == ExceedsCap(cap) and (truth is None or truth > cap)


def budget_above(cap):
    return 2 * cap + 2**16


values = st.one_of(st.integers(0, 10**6), st.integers(0, 10**300))
bases = st.integers(2, 40)
caps = st.one_of(st.integers(0, 100), st.integers(0, 2**64))


# ---------------------------------------------------------------------------
# Round trips and order


@derandomized(300)
@given(values, bases)
def test_decode_inverts_encode(x, k):
    r = encode(x, k)
    for s in (r, FRep(k, r.body)):  # marked by encode, and hand-built: the same answers
        assert decode(s, x) == Exact(x)
        if x:
            assert decode(s, x - 1) == ExceedsCap(x - 1)


@derandomized(150)
# decode_total recurses once per tree level, and a tree is about half as
# deep as its value has bits: past about 200 digits it raises RecursionError
@given(st.one_of(st.integers(0, 10**6), st.integers(0, 10**150)), bases)
def test_decode_total_inverts_to_total(x, k):
    t = to_total(x, k)
    assert decode_total(t, x) == Exact(x)
    if x:
        assert decode_total(t, x - 1) == ExceedsCap(x - 1)


@derandomized(300)
@given(values, values, bases)
def test_compare_is_integer_order(a, b, k):
    want = Ordering.LT if a < b else Ordering.GT if a > b else Ordering.EQ
    assert compare(encode(a, k), encode(b, k)) == want


# ---------------------------------------------------------------------------
# Every cutoff confirmed by the naive evaluator


levels = st.integers(0, 6)
# caps up to 2^4096, and one below each power of two there: F_1 and F_2
# land on the powers' edges
kernel_caps = st.one_of(caps, st.integers(0, 2**4096), st.integers(0, 4096).map(lambda b: 2**b - 1))
kernel_args = st.one_of(st.integers(0, 64), st.integers(0, 2**12), st.integers(0, 2**4096))


@derandomized(300)
@given(levels, st.integers(0, 6), kernel_args, kernel_caps)
def test_kernel_cutoffs_are_sound(n, i, x, cap):
    budget = budget_above(cap)
    assert confirmed(eval_F(n, x, cap), cap, naive_iter(n, 1, x, budget))
    truth = naive_iter(n, i, x, budget)
    assert confirmed(eval_F_iter(n, i, x, cap), cap, truth)
    assert exceeds(n, i, x, cap) is (truth is None or truth > cap)


@derandomized(300)
@given(levels, kernel_args, st.one_of(st.tuples(st.just("near"), st.integers(-2, 2)), st.tuples(st.just("any"), kernel_caps)))
def test_relation_is_the_graph_of_the_kernel(n, x, how_y):
    # y within 2 of F_n(x) when that is small enough to reach, or any y
    how, y = how_y
    if how == "near":
        v = naive_iter(n, 1, x, 2**4097)
        y = max(0, (v if v is not None else x) + y)
    assert in_relation_R(n, x, y) is (naive_iter(n, 1, x, budget_above(y)) == y)


@derandomized(400)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 8)), min_size=1, max_size=3), st.integers(0, 64), caps)
def test_fold_cutoffs_are_sound(pairs, base, cap):
    got = fold(pairs, base, cap)
    got = Exact(got) if got is not None else ExceedsCap(cap)
    assert confirmed(got, cap, naive_fold(pairs, base, budget_above(cap)))


@derandomized(300)
@given(st.integers(0, 5), caps.flatmap(lambda cap: st.tuples(st.just(cap), st.sampled_from([0, cap]) | st.integers(0, cap))),
       st.integers(0, 12))
def test_climb_stops_at_the_last_iterate_under_the_cap(n, cap_x, limit):
    # x = 0, x = cap and limit = 0 each come up among the examples
    cap, x = cap_x
    i, v = climb(n, x, cap, limit)
    budget = budget_above(cap)
    assert 0 <= i <= limit and v <= cap
    assert naive_iter(n, i, x, budget) == v
    if i < limit:
        nxt = naive_iter(n, 1, v, budget)
        assert nxt is None or nxt > cap


def naive_shift(v, k, m, budget, hereditary):
    if v < k:
        return v
    y = m
    for e, c in encode(v, k).pairs:
        e = naive_shift(e, k, m, budget, hereditary)
        if hereditary and e is not None:
            c = naive_shift(c, k, m, budget, hereditary)
        if e is None or c is None:
            return None  # counts are >= 1 here, so the value passes e and c
        y = naive_iter(e, c, y, budget)
        if y is None:
            return None
    return y


@derandomized(200)
@given(st.one_of(st.integers(0, 10**12), st.integers(0, 10**100)), st.integers(2, 6), st.integers(0, 3),
       st.one_of(caps, st.integers(0, 10**40)), st.booleans())
def test_shift_cutoffs_are_sound(x, k, dm, cap, hereditary):
    m = k + dm
    got = (shift_total_value if hereditary else shift_value)(x, k, m, cap)
    assert confirmed(got, cap, naive_shift(x, k, m, budget_above(cap), hereditary))


@derandomized(300)
@given(st.integers(2, 4), st.lists(st.integers(0, 60), min_size=1, max_size=4, unique=True),
       st.lists(st.integers(0, 6), min_size=4, max_size=4), caps)
def test_decode_total_cutoffs_are_sound(k, exponents, counts, cap):
    # any pair list with strictly falling exponents, zero counts included,
    # its components written hereditarily
    pairs = list(zip(sorted(exponents, reverse=True), counts))
    t = TRep(k, tuple((to_total(e, k), to_total(c, k)) for e, c in pairs))
    assert confirmed(decode_total(t, cap), cap, naive_fold(pairs, k, budget_above(cap)))


# ---------------------------------------------------------------------------
# The correspondence o_k on values up to 10^300


mapped = st.one_of(st.integers(0, 10**6), st.integers(0, 10**300))
map_bases = st.integers(2, 6)


@derandomized(200)
@given(mapped, map_bases, st.one_of(st.just(0), st.integers(0, 10**6), st.integers(0, 10**300)))
def test_L_inverse_inverts_o_map_under_any_cap_from_x(x, k, extra):
    x += k
    assert L_inverse(o_map(x, k), k, x + extra) == Exact(x)


@derandomized(200)
@given(mapped, map_bases, st.one_of(st.just(0), st.integers(0, 10**300)))
def test_Q_pred_of_an_image_is_the_image_of_the_predecessor(x, k, extra):
    x += k + 1
    assert Q_pred(o_map(x, k), k, x + extra) == o_map(x - 1, k)


@derandomized(200)
@given(mapped, st.integers(2, 40))
def test_Q_pred_key_is_the_key_of_the_predecessor_image(x, k):
    # nearly every image ends in a finite term, so this is Q_pred's shortcut
    # a - 1; test_correspond pins the limit images, which re-encode x - 1
    x += k + 1
    assert Q_pred(o_map(x, k), k, x).key == o_map(x - 1, k).key


@derandomized(200)
@given(mapped, map_bases)
def test_images_are_members(x, k):
    assert in_D(o_map(x + k, k), k).member


@derandomized(200)
@given(mapped, mapped, map_bases)
def test_o_map_is_strictly_monotone(x, y, k):
    x, y = sorted((x + k, y + k))
    if x < y:
        assert o_map(x, k) < o_map(y, k)


# ---------------------------------------------------------------------------
# Chain text


def cnf(depth):
    """Ordinals of at most three terms, exponents nested depth deep, every
    coefficient (hence C) at most 8, so F_2 bounds any chain of them."""
    exponent = st.integers(0, 6).map(from_int)
    if depth:
        exponent = st.one_of(exponent, cnf(depth - 1))
    return st.dictionaries(exponent, st.integers(1, 8), min_size=1, max_size=3).map(
        lambda terms: Ordinal(tuple(sorted(terms.items(), key=lambda t: t[0], reverse=True))))


chains = st.tuples(st.lists(cnf(2), min_size=1, max_size=8, unique=True), st.booleans()).map(
    lambda c: sorted(c[0], reverse=True) + [ZERO] * c[1])


def spelled(a, rng):
    """Text of a that the printer never writes: the sugar w, w^NAT and w^w,
    a coefficient 1 left out, a term split in two with equal exponents,
    zero terms, and smaller terms ahead that the sum absorbs."""
    if not a.terms:
        return rng.choice(["0", "w*0", "w^(2)*0+0"])
    out = []
    for e, c in a.terms:
        split = [c] if c == 1 or rng.random() < 0.5 else [c - 1, 1]
        for part in split:
            if not e.terms:
                head = rng.choice(["", "w^0*", "w^(0)*"])
                out.append(f"{head}{part}" if head or part > 1 or rng.random() < 0.5 else "0+1")
                continue
            if e == ONE:
                head = rng.choice(["w", "w^1", "w^(1)"])
            elif e.is_finite:
                head = rng.choice([f"w^{e.as_int()}", f"w^({e.as_int()})"])
            elif e == OMEGA:
                head = rng.choice(["w^w", "w^(w)"])
            else:
                head = f"w^({spelled(e, rng)})"
            out.append(head if part == 1 and rng.random() < 0.5 else f"{head}*{part}")
        if rng.random() < 0.2:
            out.append(rng.choice(["w*0", "w^(3)*0", "0"]))
    if a.terms[0][0].terms and rng.random() < 0.5:  # a finite term ahead of an infinite lead is absorbed
        out.insert(0, rng.choice(["1", "7", "w^(0)*2"]))
    return "+".join(out)


@derandomized(60)
@given(chains, st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_compressed_chain_text_reads_back(alphas, c, seed):
    out = compress(alphas, 2, c)
    assert verify_slow(out).ok
    text = chain_to_text(out.entries)
    read = parse_chain_text(text)
    assert read == list(out.entries)
    assert [a.terms for a in read] == [a.terms for a in out.entries] and chain_to_text(read) == text
    # the same chain spelled as the printer never writes it reads as the same
    # values, each one object for the call
    rng = random.Random(seed)  # the spelling's choices: a drawn random would cost a draw each
    respelled = parse_chain_text("\n".join(spelled(a, rng) for a in out.entries) + "\n")
    assert [a.terms for a in respelled] == [a.terms for a in read] and chain_to_text(respelled) == text
    seen, todo = {}, list(respelled)
    while todo:
        a = todo.pop()
        assert seen.setdefault(a.key, a) is a
        todo += [e for e, _ in a.terms]


# ---------------------------------------------------------------------------
# Each engine's answer passes its own checker


@derandomized(60)
@given(chains, st.integers(1, 12), st.integers(0, 6))
def test_a_compressed_chain_verifies_with_entry_i_in_d_2_plus_i(alphas, n, c):
    try:
        out = compress(alphas, n, c)
    except ValueError as err:  # F_2(2) = 8 bounds every C that cnf draws, so only n = 1 is refused
        assert n == 1 and "too small" in str(err)
        return
    assert verify_slow(out).ok
    assert all(in_D(a, 2 + i).member for i, a in enumerate(out.entries))


@derandomized(100)
@given(cnf(3), st.integers(0, 4))
def test_a_coefficient_measure_below_the_base_makes_a_member(a, extra):
    k = max(2, coeff_measure(a) + 1) + extra
    assert in_D(a, k).member


@derandomized(150)
@given(st.one_of(st.tuples(cnf(2), st.integers(2, 12)),
                 st.tuples(mapped, map_bases).map(lambda xk: (o_map(xk[0] + xk[1], xk[1]), xk[1]))))
def test_a_member_at_a_base_is_a_member_at_the_next(case):
    a, k = case
    if in_D(a, k).member:
        assert in_D(a, k + 1).member


shadow_caps = st.one_of(st.sampled_from([10, 100, 10**4, 10**7, 10**30]), st.integers(10, 10**30))


@derandomized(60)
@given(st.integers(0, 7), shadow_caps)
def test_plain_shadows_pass_their_check(z, cap):
    assert shadow_check(run(z, False, cap, with_shadow=True)).ok


@derandomized(60)
@given(st.integers(0, 7), shadow_caps)
def test_hereditary_shadows_are_members(z, cap):
    # hereditary shadows need not descend (z = 6 and 7 do not), so only
    # their membership is a law
    report = shadow_check(run(z, True, cap, with_shadow=True))
    assert not [v for v in report.violations if "not in D" in v]


# ---------------------------------------------------------------------------
# Shapes: hand-built reps of any body


odd_items = st.sampled_from([False, True, None, "", "xy", -5, -2**70, 2**70])


def _pair_lists(items):
    return st.lists(st.tuples(items, items), min_size=1, max_size=3).map(tuple)


def _bodies(items):
    # a pair list, an atom, a list or tuple of up to three items, or an odd item
    seqs = st.tuples(st.booleans(), st.lists(items, max_size=3)).map(lambda b: tuple(b[1]) if b[0] else b[1])
    return st.one_of(_pair_lists(items), st.integers(-1, 3), seqs, odd_items)


def _shapes(levels):
    # bodies whose items nest reps of bases 2-3 this many levels deep, most
    # items small numbers or reps, so that a good share of bodies print
    items = st.integers(-1, 4)
    for _ in range(levels):
        bodies = _bodies(items)
        items = st.one_of(st.integers(0, 4), st.integers(-1, 4), odd_items, st.builds(FRep, st.integers(2, 3), bodies),
                          st.builds(TRep, st.integers(2, 3), bodies))
    return _pair_lists(items) | _bodies(items)


def answers_or_refuses(call):
    try:
        call()
    except ValueError:  # RepError and ParseError are ValueErrors
        pass


def hashable(v):
    try:
        hash(v)
    except TypeError:
        return False
    return True


@derandomized(150)
@given(st.sampled_from([FRep, TRep]), st.integers(2, 3), _shapes(2), st.integers(0, 100))
def test_every_consumer_answers_or_refuses_a_hand_built_shape(cls, base, body, cap):
    r = cls(base, body)
    for call in (lambda: decode(r, cap), lambda: decode_total(r, cap), lambda: validate(r),
                 lambda: compare(r, encode(5, base))):
        answers_or_refuses(call)
    for write, read in ((print_rep, parse_rep), (rep_to_json, rep_from_json)):
        try:
            out = write(r)
        except ValueError:
            continue
        read(out)  # whatever a printer writes, its reader reads back
        if write is rep_to_json:
            read(json.dumps(out))
    if cls is TRep and hashable(body):
        kids = [v for p in body if type(p) is tuple for v in p if type(v) is TRep] if type(body) is tuple else []
        for s in (r, TRep(base, body), TRep(2, 1), to_total(5, base), *kids):
            assert (r == s) == reference_eq(r, s) == (s == r)
        for u in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
            assert u == r and hash(u) == hash(r)
