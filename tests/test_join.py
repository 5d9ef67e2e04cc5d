"""A slowdown block's entries as ``add_each`` builds them: where nothing is
absorbed, one join per entry that holds the lifted head and the rank and
builds its terms and key only when something reads them.  A join is an
Ordinal in every observable way, and ``add_each``, ``verify_slow`` and
``chain_to_text`` give what their bodies before the joins gave: equal keys
and terms, identical text, and identical reports, messages and order of
the violations included."""

import copy
import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_build_reference import descent_chain
from test_properties import chains, derandomized
from test_slow_chain_tables import key_text

from grzseq import ordinals, slowdown
from grzseq.correspond import in_D
from grzseq.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    add_each,
    chain_to_text,
    coeff_measure,
    compare,
    from_int,
    mul_omega_omega,
    omega_pow,
    ordinal_to_json,
    parse_ordinal,
    print_ordinal,
)
from grzseq.slowdown import SlowChain, SlowReport, compress, verify_slow

# ---------------------------------------------------------------------------
# The bodies before the joins


def old_add_each(a, bs):
    terms, head = a.terms, a.key[:-1]
    last = terms[-1][0].key if terms else ()
    out = []
    for b in bs:
        bt = b.terms
        if bt and last > bt[0][0].key:
            out.append(ordinals._ordinal(terms + bt, head + b.key[1:]))
        else:
            out.append(add(a, b))
    return out


def old_verify_slow(s):
    entries = list(s.entries if isinstance(s, SlowChain) else s)
    try:
        keys = [a.key for a in entries]
    except AttributeError:
        slowdown._validate_chain(entries)
        raise
    violations = [f"entries {i} and {i + 1} do not descend"
                  for i, (a, b) in enumerate(zip(keys, keys[1:])) if not b < a]
    measures = {}
    for i, a in enumerate(entries):
        m = 0
        for e, c in a.terms:
            if c > m:
                m = c
            known = measures.get(id(e))
            if known is None:
                known = measures[id(e)] = (e, coeff_measure(e))
            if known[1] > m:
                m = known[1]
        if m > i + 1:
            violations.append(f"entry {i} has coefficient measure {m} > {i + 1}")
    return SlowReport(not violations, tuple(violations))


def old_print(a, heads):
    if not a.terms:
        return "0"
    out = []
    for t in a.terms:
        text = heads.get(id(t))
        if text is None:
            e, c = t
            head = heads.get(id(e))
            if head is None:
                head = heads[id(e)] = (e, f"w^({key_text(e.key)})*" if e.terms else "")
            text = heads[id(t)] = (t, f"{head[1]}{c}")
        out.append(text[1])
    return "+".join(out)


def old_chain_to_text(entries):
    heads = {}
    return "\n".join(old_print(a, heads) for a in entries) + "\n"


def old_compress(alphas, n, c, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(slowdown, "add_each", old_add_each)
        return compress(alphas, n, c)


def joined(a):
    return type(a) is not Ordinal and hasattr(a, "b")


def unread(a):
    """Whether neither slot of a join has been filled yet."""
    return all(pytest.raises(AttributeError, getattr(Ordinal, s).__get__, a) for s in ("terms", "key"))


# the eight chains of the descent_chains benchmark's shape and lengths
EIGHT = [(descent_chain(100 + j, length), j % 4) for j, length in enumerate((20, 30, 40, 60, 80, 100, 150, 200))]


def each(read):
    return lambda entries, plain: [read(a, p) for a, p in zip(entries, plain)]


def round_trip(entries, plain, back):
    """A pickle or deepcopy of the whole list, which shares what the entries
    share, comes back as plain Ordinals that read as the plain entries do."""
    return [type(b) is Ordinal and b.key == p.key and str(b) == str(p) and hash(b) == hash(p)
            for b, p in zip(back(list(entries)), plain)]


# every observable read, each on entries that no other read has touched
READS = {
    "==": each(lambda a, plain: a == plain and plain == a and not a != plain),
    "hash": each(lambda a, plain: hash(a) == hash(plain)),
    "key": each(lambda a, plain: a.key == plain.key),
    "terms": each(lambda a, plain: a.terms == plain.terms and a == Ordinal(a.terms)),
    "<": each(lambda a, plain: not a < plain and not plain < a and a <= plain and plain <= a),
    "compare": each(lambda a, plain: compare(a, plain).name == compare(plain, a).name == "EQ"),
    "str": each(lambda a, plain: str(a) == str(plain) == print_ordinal(plain)),
    "repr": each(lambda a, plain: repr(a) == repr(plain)),
    "json": each(lambda a, plain: json.dumps(ordinal_to_json(a)) == json.dumps(ordinal_to_json(plain))),
    "C": each(lambda a, plain: coeff_measure(a) == coeff_measure(plain)),
    "copy": each(lambda a, plain: (lambda b: type(b) is Ordinal and b == plain and str(b) == str(plain))(copy.copy(a))),
    "pickle": lambda entries, plain: round_trip(entries, plain, lambda x: pickle.loads(pickle.dumps(x))),
    "deepcopy": lambda entries, plain: round_trip(entries, plain, copy.deepcopy),
}


def check_reads(build, plain):
    """Each read of READS on a fresh build() against the plain entries."""
    for name, read in READS.items():
        entries = build()
        assert all(unread(a) for a in entries if joined(a)) and len(entries) == len(plain)
        assert [i for i, ok in enumerate(read(entries, plain)) if not ok] == [], name


# ---------------------------------------------------------------------------
# A join is an Ordinal


@pytest.mark.parametrize("chain", range(len(EIGHT)))
def test_every_entry_of_a_benchmark_chain_reads_as_its_plain_copy(chain, monkeypatch):
    alphas, c = EIGHT[chain]
    plain = old_compress(alphas, 2, c, monkeypatch).entries
    assert not any(joined(a) for a in plain) and joined(compress(alphas, 2, c).entries[-1])
    check_reads(lambda: compress(alphas, 2, c).entries, plain)


@derandomized(15)
@given(chains, st.integers(1, 4), st.integers(0, 6))
def test_every_entry_of_a_random_chain_reads_as_its_plain_copy(alphas, n, c):
    with pytest.MonkeyPatch.context() as m:
        try:
            want = old_compress(alphas, n, c, m)
        except ValueError:  # n = 1 below the chain's measures: refused on both sides
            with pytest.raises(ValueError):
                compress(alphas, n, c)
            return
    out = compress(alphas, n, c)
    assert (out.tower_prefix_len, out.tower_height_base, out.note) == \
           (want.tower_prefix_len, want.tower_height_base, want.note)
    check_reads(lambda: compress(alphas, n, c).entries, want.entries)
    entries = compress(alphas, n, c).entries
    assert chain_to_text(entries) == old_chain_to_text(want.entries)
    assert verify_slow(entries) == old_verify_slow(want.entries) == verify_slow(out)


def test_a_join_keeps_what_it_builds_and_holds_its_parts():
    head = mul_omega_omega(parse_ordinal("w^(w)*3+w*2+5"))
    ranks = [omega_pow(from_int(2), 3), parse_ordinal("w*4+1"), from_int(7)]
    entries = add_each(head, ranks)
    for a, rank in zip(entries, ranks):
        assert joined(a) and a.a is head and a.b is rank and unread(a)
        key, terms = a.key, a.terms
        assert a.key is key and a.terms is terms  # built once, then kept
        assert key == head.key[:-1] + rank.key[1:] and terms == head.terms + rank.terms
    # the absorbed case still goes through add, and zero hands back the head itself
    assert add_each(head, [ZERO])[0] is head
    absorbed = add_each(OMEGA, [from_int(3), omega_pow(from_int(2)), OMEGA])
    assert [joined(a) for a in absorbed] == [True, False, False]
    assert [str(a) for a in absorbed] == ["w^(1)*1+3", "w^(2)*1", "w^(1)*2"]


def test_a_join_is_an_ordinal_to_every_reader():
    head = mul_omega_omega(parse_ordinal("w^(2)*2+w"))
    entries = add_each(head, [parse_ordinal("w^(2)*3+4"), parse_ordinal("w+1"), ONE])
    plain = old_add_each(head, [parse_ordinal("w^(2)*3+4"), parse_ordinal("w+1"), ONE])
    assert all(joined(a) for a in entries) and not any(joined(a) for a in plain)
    for a, p in zip(entries, plain):
        assert {a: 1}[p] == 1 and {p: 1}[a] == 1 and a in {p} and sorted([a, p]) == [a, p]
        for x in (ZERO, ONE, OMEGA, head, p, a):
            assert add(a, x) == add(p, x) and add(x, a) == add(x, p)
            assert add_each(a, [x]) == add_each(p, [x])
            assert compare(a, x) is compare(p, x) and compare(x, a) is compare(x, p)
            assert (a < x, x < a, a <= x, x <= a) == (p < x, x < p, p <= x, x <= p)
        for k in (2, 3, 9):
            assert in_D(a, k) == in_D(p, k)
        assert mul_omega_omega(a) == mul_omega_omega(p) and omega_pow(a, 2) == omega_pow(p, 2)
        assert Ordinal(((a, 1),)) == Ordinal(((p, 1),))
    # the entries as a chain: every pair orders as the plain copies do
    both = entries + plain
    assert [[x < y for y in both] for x in both] == [[x.key < y.key for y in both] for x in both]


# ---------------------------------------------------------------------------
# The three bodies against the ones before the joins


@pytest.mark.parametrize("chain", range(len(EIGHT)))
def test_compress_verify_and_print_match_the_bodies_before_the_joins(chain, monkeypatch):
    alphas, c = EIGHT[chain]
    out, want = compress(alphas, 2, c), old_compress(alphas, 2, c, monkeypatch)
    assert chain_to_text(out.entries) == old_chain_to_text(want.entries)
    assert chain_to_text(iter(out.entries)) == old_chain_to_text(want.entries)
    assert verify_slow(out) == old_verify_slow(want) == verify_slow(iter(out.entries))
    assert [(a.key, a.terms) for a in out.entries] == [(a.key, a.terms) for a in want.entries]
    assert sum(joined(a) for a in out.entries) == len(out.entries) - out.tower_prefix_len


def mixes(entries):
    """Hand-built lists that mix joins and plain entries, by name, built
    around the last two neighbours of entries that share a head."""
    i = next(i for i in range(len(entries) - 2, 0, -1)
             if joined(entries[i]) and joined(entries[i + 1]) and entries[i].a is entries[i + 1].a)
    a, b = entries[i], entries[i + 1]
    head, before, after = a.a, entries[:i], entries[i + 2:]
    same_value = mul_omega_omega(parse_ordinal("w^(2)*8+w"))
    longer = mul_omega_omega(parse_ordinal("w^(2)*8+w"))
    shorter = mul_omega_omega(parse_ordinal("w^(2)*8"))
    return {
        "valid": entries,
        "same head out of order": before + [b, a] + after,
        "repeated": before + [a, a, b] + after,
        "inflated coefficient": before + add_each(head, [omega_pow(ONE, 10**6)]) + [b] + after,
        "inflated head": before + add_each(add(head, omega_pow(ONE, 10**6)), [from_int(1)]) + [b] + after,
        "join, then its plain equal": before + [a, Ordinal(a.terms), b] + after,
        "plain, then its join equal": before + [Ordinal(a.terms), a, b] + after,
        "plain copies": before + [Ordinal(a.terms), Ordinal(b.terms)] + after,
        "two blocks, one head": [a, b, a, b] + add_each(mul_omega_omega(ONE), [ONE, from_int(2), ONE]),
        # equal heads as distinct objects, and heads whose terms start the
        # other's: the full keys decide
        "equal heads": add_each(same_value, [from_int(2), ONE]) + add_each(longer, [from_int(3), ONE]),
        "longer head first": add_each(longer, [from_int(2), ONE]) + add_each(shorter, [parse_ordinal("w^(3)+1"), ONE]),
        "shorter head first": add_each(shorter, [parse_ordinal("w^(3)"), ONE]) + add_each(longer, [from_int(2), ONE]),
        # heads that order one way and their joins the other, as only a
        # rank past the shorter head's last exponent can make them
        "heads against joins": add_each(parse_ordinal("w^(5)+w"), [ONE])
        + add_each(parse_ordinal("w^(5)"), [parse_ordinal("w^(3)")]),
        "joins against heads": add_each(parse_ordinal("w^(5)"), [parse_ordinal("w^(3)")])
        + add_each(parse_ordinal("w^(5)+w"), [ONE]),
        "reversed": entries[::-1],
        "empty": [],
    }


@pytest.mark.parametrize("chain", [0, 3, 5])
def test_verify_slow_reports_what_it_reported_before_on_mixed_lists(chain):
    alphas, c = EIGHT[chain]
    for name, mixed in mixes(list(compress(alphas, 2, c).entries)).items():
        plain = [Ordinal(a.terms) for a in mixed]
        for x, y in ((mixed, plain), (mixed[::-1], plain[::-1])):  # each neighbour's < as the plain copies'
            assert [b < a for a, b in zip(x, x[1:])] == [b < a for a, b in zip(y, y[1:])], name
        want = old_verify_slow(plain)
        assert verify_slow(mixed) == want, name
        assert verify_slow(iter(mixed)) == want and verify_slow(SlowChain(tuple(mixed), 0, 0)) == want, name
        assert chain_to_text(mixed) == old_chain_to_text(mixed), name


def test_the_mixed_lists_hold_the_faults_they_are_named_for():
    reports = {name: verify_slow(m) for name, m in mixes(list(compress(EIGHT[0][0], 2, EIGHT[0][1]).entries)).items()}
    assert {name for name, r in reports.items() if r.ok} == {"valid", "plain copies", "empty"}
    descents = {name: [v for v in r.violations if "descend" in v] for name, r in reports.items()}
    assert descents["heads against joins"] == ["entries 0 and 1 do not descend"]
    assert descents["joins against heads"] == [] and descents["equal heads"] == ["entries 1 and 2 do not descend"]
    for name in ("same head out of order", "repeated", "join, then its plain equal", "plain, then its join equal"):
        assert len(descents[name]) == 1, name
    for name in ("inflated coefficient", "inflated head"):
        assert any("coefficient measure 1000000" in v for v in reports[name].violations), name


@pytest.mark.parametrize("bad", [3, None, "x", ((ONE, 1),)], ids=repr)
@pytest.mark.parametrize("at", [0, 1, 5])
def test_an_entry_that_is_no_ordinal_is_named_by_index_among_joins(bad, at):
    entries = list(compress(EIGHT[0][0], 2, 0).entries[-8:])
    mixed = entries[:at] + [bad] + entries[at:]
    with pytest.raises(ValueError) as want:
        old_verify_slow(mixed)
    with pytest.raises(ValueError) as got:
        verify_slow(mixed)
    assert str(got.value) == str(want.value) == f"entry {at} must be an Ordinal, got {bad!r}"
