"""Numbers past the interpreter's int/str digit limit (4,300 digits by
default) in the text and JSON readers: a ParseError at the number's offset,
not the interpreter's bare ValueError."""

import pytest

from grzseq.frep import parse_rep, rep_from_json
from grzseq.order import ParseError, nat
from grzseq.ordinals import ordinal_from_json, parse_ordinal

NINES = "9" * 5000


@pytest.mark.parametrize("text,position", [
    (NINES, 0),
    ("w^(1)*" + NINES, 6),
    ("w^(1) *  " + NINES, 9),  # whitespace inside the ")*NAT" token
    ("w^(w^(1)*" + NINES + ")", 9),
    ("w*" + NINES, 2),
    ("w^" + NINES, 2),
    ("w + " + NINES, 4),
], ids=["bare", "group_coefficient", "group_coefficient_spaced", "nested_group", "coefficient", "exponent", "sum"])
def test_ordinal_reader(text, position):
    with pytest.raises(ParseError) as err:
        parse_ordinal(text)
    assert (str(err.value), err.value.position) == (f"parse error at offset {position}: number too long", position)


@pytest.mark.parametrize("text,position", [
    (NINES, 0),
    ("[(1," + NINES + ")]_2", 4),
    ("[(" + NINES + ",1)]_2", 2),
    ("[(1,1)]_" + NINES, 8),
], ids=["atom", "count", "exponent", "base"])
def test_rep_reader(text, position):
    with pytest.raises(ParseError) as err:
        parse_rep(text)
    assert (str(err.value), err.value.position) == (f"parse error at offset {position}: number too long", position)


@pytest.mark.parametrize("text,position", [(NINES, 0), ("  " + NINES + " ", 2)], ids=["bare", "spaced"])
def test_nat(text, position):
    with pytest.raises(ParseError) as err:
        nat(text)
    assert err.value.position == position
    assert str(err.value).endswith("number too long")


@pytest.mark.parametrize("obj", [
    {"base": "2", "atom": NINES},
    {"base": NINES, "atom": "1"},
    {"base": "2", "pairs": [["1", NINES]]},
], ids=["atom", "base", "count"])
def test_rep_from_json(obj):
    # JSON carries no text offsets: every position is 0
    with pytest.raises(ParseError) as err:
        rep_from_json(obj)
    assert str(err.value) == "parse error at offset 0: number too long"


def test_ordinal_from_json():
    with pytest.raises(ParseError) as err:
        ordinal_from_json([[[], NINES]])
    assert str(err.value) == "parse error at offset 0: number too long"


def test_numbers_at_the_limit_still_read():
    digits = "9" * 4300
    assert parse_ordinal("w^(1)*" + digits).terms[0][1] == int(digits)
    assert parse_rep("[(1," + digits + ")]_2").pairs == ((1, int(digits)),)
    assert nat(digits) == int(digits)
