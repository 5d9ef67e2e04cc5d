"""The builders that skip the constructor's second check, and the chain-file
reader and writer that share terms within a call, against the bodies they
replaced: equal keys and terms, identical text, the same errors at the same
offsets, and no table that outlives a call."""

import random

import pytest

from grzseq.correspond import o_map
from grzseq.ordinals import (
    OMEGA,
    ONE,
    OPEN,
    ZERO,
    Ordinal,
    add,
    chain_to_text,
    coeff_measure,
    from_int,
    mul_omega_omega,
    omega_pow,
    omega_tower,
    parse_chain_text,
    parse_ordinal,
    print_ordinal,
)
from grzseq.slowdown import compress, slow_g


# ---------------------------------------------------------------------------
# The replaced bodies


def ref_add(a, b):
    """Ordinal addition, one validating constructor call per sum."""
    if b.is_zero:
        return a
    (lead, c), rest = b.terms[0], b.terms[1:]
    i = 0
    while i < len(a.terms) and a.terms[i][0] > lead:
        i += 1
    if i < len(a.terms) and a.terms[i][0] == lead:
        c += a.terms[i][1]
    return Ordinal(a.terms[:i] + ((lead, c),) + rest)


def ref_mul_omega_omega(a):
    return Ordinal(tuple((ref_add(OMEGA, e), c) for e, c in a.terms))


def ref_block_entries(alphas, n, ell):
    """compress's entries past the tower prefix, each built as
    Ordinal(lifted.terms + rank.terms)."""
    measures = [coeff_measure(a) for a in alphas]
    start = 0
    for k in range(len(alphas) - 1):
        start += measures[k]
        lifted = ref_mul_omega_omega(alphas[k]).terms
        for x in range(max(0, ell - start), measures[k + 1]):
            yield Ordinal(lifted + slow_g(n, k, x).terms)


def ref_print_ordinal(a):
    """One walk over the whole key."""
    if a.is_zero:
        return "0"
    out = []
    prev = OPEN
    for t in a.key[1:-1]:
        if t > 0:
            out.append(str(t))
        elif t == OPEN:
            out.append("+w^(" if prev > 0 else "w^(")
        else:
            out.append(")*")
        prev = t
    return "".join(out).replace("w^()*", "")


def ref_parse_chain_text(text):
    """One parse_ordinal per line, nothing shared between lines."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            out.append(parse_ordinal(stripped))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from err
    return out


def same(a, b):
    return a.key == b.key and a.terms == b.terms


# ---------------------------------------------------------------------------
# Inputs


def small_cnf():
    """Every sum of at most two terms over eight exponents, coefficients 1 and 2."""
    exps = sorted({ZERO, ONE, from_int(2), OMEGA, parse_ordinal("w+1"), parse_ordinal("w*2"),
                   parse_ordinal("w^2"), parse_ordinal("w^w")}, reverse=True)
    out = [ZERO]
    for i, e in enumerate(exps):
        for c in (1, 2):
            out.append(Ordinal(((e, c),)))
            out += [Ordinal(((e, c), (f, d))) for f in exps[i + 1:] for d in (1, 2)]
    return out


def random_ordinal(rng, depth):
    exps = set()
    for _ in range(rng.randint(1, 3)):
        exps.add(random_ordinal(rng, depth - 1) if depth and rng.random() < 0.6 else from_int(rng.randint(0, 6)))
    return Ordinal(tuple((e, rng.randint(1, 8)) for e in sorted(exps, reverse=True)))


def random_chain(seed):
    rng = random.Random(seed)
    alphas = sorted({random_ordinal(rng, 2) for _ in range(rng.randint(2, 30))}, reverse=True)
    return alphas + [ZERO] if seed % 2 else alphas


CHAINS = [random_chain(seed) for seed in range(6)] + [
    [parse_ordinal(t) for t in ("w^(w^w)", "w^(w*2+1)*2", "w*3", "4", "0")],
    [parse_ordinal(t) for t in ("w*2", "w", "1", "0")],
]


# ---------------------------------------------------------------------------
# Builders


def test_from_int_and_omega_pow_match_the_constructor():
    for n in (1, 2, 7, 10**40):
        assert same(from_int(n), Ordinal(((ZERO, n),)))
    assert from_int(0) is ZERO
    for e in small_cnf():
        for c in (1, 3):
            assert same(omega_pow(e, c), Ordinal(((e, c),)))
    deep = omega_tower(30)  # past the eager key length: a deferred key
    assert type(omega_pow(deep)) is not Ordinal and same(omega_pow(deep, 2), Ordinal(((deep, 2),)))


def test_mul_omega_omega_matches_the_constructor():
    for a in small_cnf() + [o_map(x, k) for k in (2, 3) for x in range(k, 300, 7)]:
        assert same(mul_omega_omega(a), ref_mul_omega_omega(a)), a


@pytest.mark.parametrize("k", [2, 3])
def test_add_matches_the_parent_on_o_map_images(k):
    images = [o_map(x, k) for x in range(k, 300)]
    bad = [(a, b) for a in images for b in images if not same(add(a, b), ref_add(a, b))]
    assert bad == []


def test_add_matches_the_parent_on_small_terms():
    terms = small_cnf()
    bad = [(a, b) for a in terms for b in terms if not same(add(a, b), ref_add(a, b))]
    assert bad == []
    # an absorbed left summand hands back the right one itself
    assert add(from_int(3), OMEGA) is OMEGA and add(ZERO, OMEGA) is OMEGA
    assert add(OMEGA, ZERO) is OMEGA
    joined = add(omega_pow(OMEGA, 2), from_int(5))
    assert joined.key == omega_pow(OMEGA, 2).key[:-1] + from_int(5).key[1:]


@pytest.mark.parametrize("chain", range(len(CHAINS)))
def test_compress_entries_match_one_constructor_call(chain):
    alphas = CHAINS[chain]
    for n, c in ((2, 0), (2, 5), (3, 1), (3, 40)):
        out = compress(alphas, n, c)
        ref = list(ref_block_entries(alphas, n, out.tower_prefix_len))
        assert len(out.entries) == out.tower_prefix_len + len(ref)
        tail = out.entries[out.tower_prefix_len:]
        assert all(same(a, b) for a, b in zip(tail, ref)), (n, c)


# ---------------------------------------------------------------------------
# Chain text


def per_line(entries):
    return "\n".join(map(print_ordinal, entries)) + "\n"


def first_difference(a, b):
    """None for equal texts, else where they part: a short report where
    pytest's own diff of megabyte texts would take minutes."""
    if a == b:
        return None
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i, a[max(0, i - 20):i + 20], b[max(0, i - 20):i + 20]


def test_chain_to_text_matches_per_line_printing():
    for alphas in CHAINS:
        for entries in (alphas, compress(alphas, 2, 3).entries):
            text = chain_to_text(entries)
            assert first_difference(text, per_line(entries)) is None
            assert first_difference(text, "\n".join(map(ref_print_ordinal, entries)) + "\n") is None
    assert chain_to_text([]) == per_line([]) == "\n"
    tower = omega_tower(2000)
    text = chain_to_text([tower])
    assert first_difference(text, "w^(" * 2000 + "1" + ")*1" * 2000 + "\n") is None
    assert first_difference(text, per_line([tower])) is None
    assert first_difference(text, ref_print_ordinal(tower) + "\n") is None


def test_deep_chain_prints_as_per_line():
    # the chain `chain slowdown --const 1200` prints: 1,200 towers, each the
    # exponent of the one before
    entries = compress(CHAINS[-1], 2, 1200).entries
    text = chain_to_text(entries)
    assert first_difference(text, per_line(entries)) is None
    assert text.count("\n") == 1200 and text.startswith("w^(" * 1203 + "1" + ")*1" * 1203 + "\n")


def test_parse_chain_text_matches_per_line_parsing():
    for alphas in CHAINS:
        for entries in (alphas, compress(alphas, 2, 3).entries):
            text = "# a chain\n\n" + chain_to_text(entries).replace("\n", "  # note\n", 1)
            read = parse_chain_text(text)
            assert read == ref_parse_chain_text(text) == list(entries)
            assert all(same(a, b) for a, b in zip(read, entries))
    deep = chain_to_text(compress(CHAINS[-1], 2, 60).entries)
    assert parse_chain_text(deep) == ref_parse_chain_text(deep)
    sugar = "w^w+w*2+3\nw^(w)*1+w^(1)*2+3\nw^(2+w)\nw^(w+2)\nw^3+w^(3)\n"
    assert parse_chain_text(sugar) == ref_parse_chain_text(sugar)


def test_equal_exponents_are_one_object_per_call():
    text = "w^(w^(3)*1+2)*2+w^(5)*1\nw^(w^(3)*1+2)*1+w^(5)*4+1\nw^(w^(3)*1+1)*9\n"
    a, b, c = parse_chain_text(text)
    assert a.terms[0][0] is b.terms[0][0] and a.terms[1][0] is b.terms[1][0]
    assert c.terms[0][0].terms[0][0] is a.terms[0][0].terms[0][0]  # w^(3), one level down
    assert c.terms[0][0] is not a.terms[0][0] and c.terms[0][0] != a.terms[0][0]
    # the table lives for one call only
    again = parse_chain_text(text)
    assert again == [a, b, c] and again[0].terms[0][0] is not a.terms[0][0]
    # a deep file is read into one tower: each line is the exponent of the line above
    lines = parse_chain_text(chain_to_text(compress(CHAINS[-1], 2, 100).entries))
    assert all(lo is hi.terms[0][0] for hi, lo in zip(lines, lines[1:]))
    assert len(lines) == 100 and lines[0] == omega_tower(103)


@pytest.mark.parametrize("text,message", [
    ("w^(12)\nw^(1 2)\n", "line 2: parse error at offset 5: expected ')'"),
    ("w^(w^(3)+2)\nw^(w^(3)+2 +)\n", "line 2: parse error at offset 12: expected a number"),
    ("w^(5)\nw^(5\n", "line 2: parse error at offset 4: expected ')'"),
])
def test_sharing_keeps_every_check(text, message):
    for parse in (parse_chain_text, ref_parse_chain_text):
        with pytest.raises(ValueError) as err:
            parse(text)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# The printer before it kept the text of each term: one table of exponent
# texts per call, every term formatted where it occurs


def old_print(a, texts):
    if a.is_zero:
        return "0"
    out = []
    for e, c in a.terms:
        if e.is_zero:
            out.append(str(c))
            continue
        if len(e.key) == 5:
            out.append(f"w^({e.key[3]})*{c}")
            continue
        seen = texts.get(id(e))
        if seen is None:
            seen = texts[id(e)] = (e, ref_print_ordinal(e))
        out.append(f"w^({seen[1]})*{c}")
    return "+".join(out)


def old_chain_to_text(entries):
    texts = {}
    return "\n".join(old_print(a, texts) for a in entries) + "\n"


def test_chain_to_text_matches_the_old_printer_on_compress_outputs():
    for seed in range(6, 30):
        alphas = random_chain(seed)
        for n, c in ((2, 0), (2, 7), (3, 2)):
            entries = compress(alphas, n, c).entries
            assert first_difference(chain_to_text(entries), old_chain_to_text(entries)) is None, (seed, n, c)
            assert [print_ordinal(a) for a in entries[:20]] == [old_print(a, {}) for a in entries[:20]]


def test_chain_to_text_matches_the_old_printer_on_a_tower():
    tower = omega_tower(1500)
    assert first_difference(chain_to_text([tower]), old_chain_to_text([tower])) is None
    levels = [tower]
    while levels[-1].terms[0][0].terms:
        levels.append(levels[-1].terms[0][0])
    levels = levels[::50]  # every 50th level, each the tower below the one before
    assert first_difference(chain_to_text(levels), old_chain_to_text(levels)) is None


def test_block_entries_share_their_lifted_terms():
    # the w^w * a_k terms of a block are the same objects on every entry of it
    entries = compress(CHAINS[0], 2, 0).entries
    tail = entries[compress(CHAINS[0], 2, 0).tower_prefix_len:]
    firsts = [a.terms[0] for a in tail]
    assert len({id(t) for t in firsts}) < len(firsts)
    assert chain_to_text(entries) == old_chain_to_text(entries)
