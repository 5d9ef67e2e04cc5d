"""o_k images read from plain pair tuples, against the body that read them off
an FRep per level: equal keys from o_map and Q_pred, the pair reader equal
to ``encode(x, k).pairs``, the shared small finite ordinals equal to built
ones, and no FRep anywhere on the o_k path."""

import random

import pytest

from grzseq import frep
from grzseq.correspond import L_inverse, Q_pred, g_window, in_D, o_map, o_map_literal
from grzseq.frep import RepError, encode, encode_pairs
from grzseq.ordinals import ONE, ZERO, Ordinal, from_int, parse_ordinal
from grzseq.slowdown import parse_chain_text

# ---------------------------------------------------------------------------
# The replaced body


def ref_image(x, k, plus_omega=False):
    """o_k(x), or w + o_k(x) when plus_omega: the pairs read off encode's FRep,
    one validating constructor call per level."""
    pairs = encode(x, k).pairs
    terms = []
    for e, c in pairs:
        if c:
            terms.append((from_int(e) if e < k else ref_image(e, k, True), c))
    if plus_omega:
        e1 = pairs[0][0]
        if e1 == 0:
            terms.insert(0, (ONE, 1))
        elif e1 == 1:
            terms[0] = (ONE, terms[0][1] + 1)
    return Ordinal(tuple(terms))


def key_mismatches(k, xs, cap):
    """The x whose o_map or Q_pred key differs from the replaced body's
    (collected, not asserted one by one: the loop is hot)."""
    bad = []
    for x in xs:
        a, want = o_map(x, k), ref_image(x, k)
        if a.key != want.key or (x > k and Q_pred(a, k, cap).key != ref_image(x - 1, k).key):
            bad.append(x)
    return bad


@pytest.mark.parametrize("k", range(2, 7))
def test_images_and_predecessors_match_the_frep_body(k):
    assert key_mismatches(k, range(k, 3001), 3000) == []


def test_images_of_large_values_match_the_frep_body():
    rng = random.Random(13)
    for k in range(2, 7):
        xs = [rng.randrange(10 ** (d - 1), 10**d) for d in (30, 45, 60, 80, 100)]
        assert key_mismatches(k, xs, max(xs)) == []


# ---------------------------------------------------------------------------
# The pair reader


def test_pair_reader_matches_encode_over_the_codec_window():
    # every x up to 10,000 and every 10th above, to the window's end 100,000
    xs = [*range(10_001), *range(10_010, 100_001, 10)]
    for k in range(2, 7):
        assert [x for x in xs if x >= k and encode_pairs(x, k) != encode(x, k).pairs] == []


@pytest.mark.parametrize("k", range(2, 7))
def test_pair_reader_rejects_an_atom(k):
    for x in range(k):
        with pytest.raises(RepError, match="atom has no pairs"):
            encode_pairs(x, k)


@pytest.mark.parametrize("x", [True, False])
def test_pair_reader_rejects_a_bool(x):
    with pytest.raises(ValueError, match=f"value must be a non-negative integer, got {x}"):
        encode_pairs(x, 2)


@pytest.mark.parametrize("k", [1, 0, -3, True, 2.0, "2"])
def test_pair_reader_rejects_a_bad_base(k):
    with pytest.raises(ValueError, match="base must be an integer >= 2"):
        encode_pairs(9, k)


# ---------------------------------------------------------------------------
# Shared small finite ordinals


def test_from_int_equals_the_built_ordinal():
    assert from_int(0) is ZERO
    for n in range(101):
        want = Ordinal(((ZERO, n),) if n else ())
        got = from_int(n)
        assert (got.key, got.terms) == (want.key, want.terms), n


def test_finite_ordinals_past_the_shared_table_equal_the_built_ones():
    # from_int, the ordinal reader and the chain reader, up to 300
    for n in range(301):
        want = Ordinal(((ZERO, n),) if n else ())
        for got in (from_int(n), parse_ordinal(str(n)), parse_chain_text(f"{n}\n")[0]):
            assert (got.key, got.terms) == (want.key, want.terms), n
            assert all(e is ZERO for e, _ in got.terms), n


def test_small_from_int_values_are_shared():
    assert all(from_int(n) is from_int(n) for n in range(16))


@pytest.mark.parametrize("n,shown", [(True, "True"), (False, "False"), (-1, "-1"), (2.0, "2.0"), (0.5, "0.5")])
def test_from_int_messages_unchanged(n, shown):
    with pytest.raises(ValueError) as err:
        from_int(n)
    assert str(err.value) == f"expected a non-negative integer, got {shown}"


# ---------------------------------------------------------------------------
# No FRep on the o_k path


def test_o_k_path_builds_no_frep(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("an FRep was built")

    # reps are built through __init__ or through the library's one builder
    monkeypatch.setattr(frep.FRep, "__init__", refuse)
    monkeypatch.setattr(frep, "_built", refuse)
    for build in (lambda: frep.FRep(2, 1), lambda: encode(9, 2), lambda: frep.to_total(9, 2)):
        with pytest.raises(AssertionError):
            build()  # the patch holds
    for k in (2, 3):
        for x in (k, k + 1, 100, 2**70 + 5):
            a = o_map(x, k)
            assert in_D(a, k).member
            assert L_inverse(a, k, x).value == x
            assert x == k or Q_pred(a, k, x).key == o_map(x - 1, k).key
        o_map_literal(100, k)
        assert len(g_window(3, k, 0, 40)) == 40
