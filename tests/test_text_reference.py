"""The token-walk parsers and the key-walk printer against the recursive
bodies they replaced: same values, same text, same errors at the same offsets."""

import itertools
import random

import pytest

from grzseq.correspond import o_map
from grzseq.frep import FRep, TRep, encode, parse_rep, print_rep, to_total
from grzseq.order import ParseError
from grzseq.ordinals import ONE, OMEGA, ZERO, Ordinal, add, from_int, omega_pow, parse_ordinal, print_ordinal


class Scanner:
    """The character cursor both grammars were parsed with."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, lit: str) -> bool:
        self._skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str) -> None:
        if not self.take(lit):
            raise ParseError(f"expected {lit!r}", self.pos)

    def nat(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start : self.pos])

    def parse(self, rule):
        out = rule(self)
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)
        return out


# ---------------------------------------------------------------------------
# Ordinal text: the recursive printer and the add-per-"+" parser


def ref_print_ordinal(a: Ordinal) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for e, c in a.terms:
        if e.is_zero:
            parts.append(str(c))
        else:
            parts.append(f"w^({ref_print_ordinal(e)})*{c}")
    return "+".join(parts)


def _parse_term(s: Scanner) -> Ordinal:
    if s.take("w"):
        exp = ONE
        if s.take("^"):
            if s.take("("):
                exp = _parse_sum(s)
                s.expect(")")
            elif s.take("w"):
                exp = OMEGA
            else:
                exp = from_int(s.nat())
        coeff = s.nat() if s.take("*") else 1
        if coeff == 0:
            return ZERO
        return omega_pow(exp, coeff)
    return from_int(s.nat())


def _parse_sum(s: Scanner) -> Ordinal:
    total = _parse_term(s)
    while s.take("+"):
        total = add(total, _parse_term(s))
    return total


def ref_parse_ordinal(text: str) -> Ordinal:
    return Scanner(text).parse(_parse_sum)


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return "ParseError", str(err), err.position


@pytest.mark.parametrize("k", [2, 3])
def test_o_map_images_print_and_parse_as_before(k):
    for x in range(k, 2000):
        a = o_map(x, k)
        text = print_ordinal(a)
        assert text == ref_print_ordinal(a), x
        back = parse_ordinal(text)
        assert back == a and back.key == ref_parse_ordinal(text).key, x


SUGAR = [
    "w", "w*0+3", "1+w", "w^w", "w^5", "w^0", "w^(0)*4", "0", "0+0", "w*0",
    " w + w ", "w ^ ( w * 2 ) + 3", "\x1cw^w　+\t1\n", "w^(w^w+w)*3+w^(w^w+w)*2",
    "3+w^2+w*4+w^2*5+7", "w+w^(w+1)+w^w*2+w", "007+w*010", "w^(1+w*0)", "2+w^(w^(2+w))",
]


@pytest.mark.parametrize("text", SUGAR)
def test_sugar_parses_as_before(text):
    a = parse_ordinal(text)
    assert a == ref_parse_ordinal(text)
    assert print_ordinal(a) == ref_print_ordinal(a)


MALFORMED = [
    "", " ", "\x1c", "　", "٣", "²", "w^²", "1٣", "] _", "w^(2",
    "w + ", "12w", "3w", "w^", "w*", "w^(", "w^()", "w^(1))", "w^(1", "(1)", "+1", "1+",
    "w^(w^(1)*1", "w*w", "w**2", "w^(1)*", "w^-1", "1 2", "w^(1)*1+w^(2)*1)", "w^(w+)", "x",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_ordinal_text_fails_as_before(text):
    got = outcome(parse_ordinal, text)
    assert isinstance(got, tuple) and got == outcome(ref_parse_ordinal, text)


def test_random_sums_parse_as_before():
    rng = random.Random(8)
    pool = [print_ordinal(o_map(x, 2)) for x in range(2, 40)] + ["w", "w^w", "w^3", "0", "5"]
    for _ in range(2000):
        parts = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        text = "+".join(f"w^({p})*{rng.randint(0, 3)}" if rng.random() < 0.5 else p for p in parts)
        assert parse_ordinal(text).key == ref_parse_ordinal(text).key, text


# ---------------------------------------------------------------------------
# Rep text: the recursive item/bracket parser with its raw-tree back end


def _parse_item(s: Scanner):
    if s.take("["):
        return _parse_bracket(s)
    at = s.pos
    return s.nat(), at


def _parse_bracket(s: Scanner):
    pairs = []
    while True:
        s.expect("(")
        e = _parse_item(s)
        s.expect(",")
        c = _parse_item(s)
        s.expect(")")
        pairs.append((e, c))
        if not s.take(","):
            break
    s.expect("]_")
    return pairs, s.nat()


def _rep_from_raw(raw, base=None, cls=FRep):
    if isinstance(raw[0], int):
        value, at = raw
        b = base if base is not None else max(2, value + 1)
        if value >= b:
            raise ParseError(f"atom {value} not below base {b}", at)
        return cls(b, value)
    pairs, b = raw
    if cls is FRep and all(isinstance(v[0], int) for pair in pairs for v in pair):
        return FRep(b, tuple((e, c) for (e, _), (c, _) in pairs))
    return TRep(b, tuple((_rep_from_raw(e, b, TRep), _rep_from_raw(c, b, TRep)) for e, c in pairs))


def ref_parse_rep(text: str, base=None):
    return _rep_from_raw(Scanner(text).parse(_parse_item), base)


def test_rep_text_parses_as_before():
    for k, x in itertools.product((2, 3, 5), range(600)):
        for r in (encode(x, k), to_total(x, k)):
            text = print_rep(r)
            assert parse_rep(text, base=k) == ref_parse_rep(text, base=k) == parse_rep(f" {text} ", base=k)


REP_MALFORMED = [
    "", "\x1c", "　", "[", "[(", "[(1", "[(1,", "[(1,1", "[(1,1)", "[(1,1)]", "[(1,1)] _2",
    "[(1,1)]_", "[(1,1)]_x", "[(1,1)]_2 x", "12 7", "[(²,1)]_2", "[(1,1)]_٢", "[(1,1),]_2",
    "[(1,1)(0,1)]_2", "[([(0,0)]_2,5)]_2", " [( [(0,0)]_3 , 1),(0,  4)]_3", "[[(1,1)]_2]_2",
    "[(1;1)]_2", "(1,1)", "]_2", "[(1,1)]__2", "[([(1,1)]_2 ,[(0, 9)]_4)]_2",
]


@pytest.mark.parametrize("text", REP_MALFORMED)
def test_malformed_rep_text_fails_as_before(text):
    got = outcome(parse_rep, text)
    assert isinstance(got, tuple) and got == outcome(ref_parse_rep, text)


def test_bare_atoms_fail_as_before():
    for text, base in (("  7", 3), ("5", 5), (" 12 ", 2)):
        got = outcome(lambda t: parse_rep(t, base=base), text)
        assert isinstance(got, tuple) and got == outcome(lambda t: ref_parse_rep(t, base=base), text)
