"""The integer-argument contract: a bool, a negative number, a float, a string,
None or a value below the parameter's least, passed as an integer argument of
a public function, raises ValueError, never a TypeError and never an answer.
``order.check_nat`` makes the check everywhere but at four sites that keep
the messages other tests pin."""

import inspect

import pytest

from grzseq.correspond import L_inverse, Q_pred, flip, in_D, o_map, o_map_literal, profile
from grzseq.frep import encode, encode_pairs, parse_rep, shift_total_value, shift_value, to_total
from grzseq.grzeval import eval_F, eval_F_iter, exceeds, in_relation_R
from grzseq.order import check_nat
from grzseq.ordinals import OMEGA, ONE, ZERO, Ordinal, omega_pow, omega_tower
from grzseq.seq import dominate_check, next_step, run
from grzseq.slowdown import compress, slow_g, verify_slow

CAP = 10**7


def term(c):
    """The one-term ordinal w*c through the validating constructor."""
    return Ordinal(((ONE, c),))


# function, valid arguments, {integer parameter: its least value}.  Covered
# elsewhere with the same kinds of input, and so not repeated here: the caps
# of eval_F, decode, decode_total and the shifts (test_frep), of L_inverse and
# Q_pred (test_correspond_reference), encode_pairs' base (test_image_reference),
# g_window's and g's arguments (test_rank_window), from_int (test_image_reference),
# and run's cap and step limit (test_seq).
CASES = [
    (eval_F, (1, 2, CAP), {"n": 0, "x": 0}),
    (eval_F_iter, (1, 2, 3, CAP), {"n": 0, "i": 0, "x": 0, "cap": 0}),
    (exceeds, (1, 2, 3, CAP), {"n": 0, "i": 0, "x": 0, "bound": 0}),
    (in_relation_R, (1, 2, 4), {"n": 0, "x": 0, "y": 0}),
    (encode, (9, 2), {"x": 0, "k": 2}),
    (encode_pairs, (9, 2), {"x": 0}),
    (to_total, (9, 2), {"x": 0, "k": 2}),
    (parse_rep, ("1", 2), {"base": 2}),
    (shift_value, (9, 3, 4, CAP), {"x": 0, "k": 2, "m": 3}),
    (shift_total_value, (9, 3, 4, CAP), {"x": 0, "k": 2, "m": 3}),
    (o_map, (9, 2), {"x": 2, "k": 2}),
    (o_map_literal, (9, 2), {"x": 2, "k": 2}),
    (in_D, (OMEGA, 2), {"k": 2}),
    (L_inverse, (OMEGA, 2, CAP), {"k": 2}),
    (Q_pred, (OMEGA, 2, CAP), {"k": 2}),
    (profile, (5, 2, 2), {"x": 2, "n": 1, "k": 2}),
    (term, (2,), {"c": 1}),
    (omega_pow, (ONE, 2), {"coeff": 1}),
    (omega_tower, (3,), {"n": 0}),
    (run, (5,), {"z": 0}),
    (next_step, (1, 0, False, CAP), {"cap": 0}),  # 1 < base 2: no shift to check the cap
    (dominate_check, ([], CAP), {"cap": 0}),
    (slow_g, (2, 3, 1), {"n": 1, "k": 0, "x": 0}),
    (compress, ([OMEGA, ZERO], 1, 1), {"n": 1, "c": 0}),
]

BAD = [True, False, -1, 2.0, "3", None]


def contract():
    for fn, args, leasts in CASES:
        for name, least in leasts.items():
            for bad in BAD + ([least - 1] if least > 0 else []):
                if bad is None and inspect.signature(fn).parameters[name].default is None:
                    continue  # parse_rep's base=None means "no base given"
                yield pytest.param(fn, args, name, bad, id=f"{fn.__name__}-{name}-{bad!r}")


@pytest.mark.parametrize("fn,args,name,bad", contract())
def test_a_bad_integer_argument_raises_value_error(fn, args, name, bad):
    fn(*args)  # the valid call answers
    bound = inspect.signature(fn).bind(*args)
    bound.arguments[name] = bad
    with pytest.raises(ValueError) as err:
        fn(*bound.args, **bound.kwargs)
    assert type(err.value) is ValueError


def test_check_nat_messages():
    check_nat("n", 0)
    check_nat("k", 2, 2)
    for v, least, want in [
        (-1, 0, "n must be a non-negative integer, got -1"),
        (True, 0, "n must be a non-negative integer, got True"),
        (0, 1, "n must be a positive integer, got 0"),
        ("3", 1, "n must be a positive integer, got '3'"),
        (1, 2, "n must be an integer >= 2, got 1"),
        (2.0, 3, "n must be an integer >= 3, got 2.0"),
    ]:
        with pytest.raises(ValueError) as err:
            check_nat("n", v, least)
        assert str(err.value) == want


@pytest.mark.parametrize("c", BAD[:-1] + [0])
def test_the_constructor_checks_a_coefficient_as_check_nat_does(c):
    # the constructor tests an exact positive int inline and calls check_nat
    # for anything else, so the message is check_nat's
    with pytest.raises(ValueError) as err:
        Ordinal(((ZERO, c),))
    assert type(err.value) is ValueError
    assert str(err.value) == f"coefficient must be a positive integer, got {c!r}"


def test_the_constructor_accepts_an_int_subclass_coefficient():
    class Count(int):
        pass

    a = Ordinal(((ONE, Count(3)), (ZERO, Count(1))))
    assert a == Ordinal(((ONE, 3), (ZERO, 1))) and a.terms[0][1] == 3


# the chain functions, each with arguments past the chain; [w, 0] is valid for each
CHAIN_FUNCTIONS = [(dominate_check, (CAP,)), (compress, (2, 1)), (verify_slow, ())]


@pytest.mark.parametrize("fn,rest", CHAIN_FUNCTIONS, ids=lambda v: getattr(v, "__name__", ""))
@pytest.mark.parametrize("at", [0, 1])
@pytest.mark.parametrize("bad", ["x", 3, None, ((ONE, 1),)], ids=repr)
def test_a_chain_entry_that_is_no_ordinal_raises_value_error(fn, rest, at, bad):
    chain = [OMEGA, ZERO]
    fn(chain, *rest)  # the valid chain answers
    chain[at] = bad
    with pytest.raises(ValueError) as err:
        fn(chain, *rest)
    assert type(err.value) is ValueError
    assert str(err.value) == f"entry {at} must be an Ordinal, got {bad!r}"


@pytest.mark.parametrize("bad", ["x", 3, None, (2, 3), OMEGA], ids=repr)
def test_flip_of_anything_but_a_profile_raises_value_error(bad):
    assert flip(profile(5, 2, 2)) == (1, 3)  # the valid call answers
    with pytest.raises(ValueError) as err:
        flip(bad)
    assert type(err.value) is ValueError
    assert str(err.value) == f"argument p must be a PaddedProfile, got {bad!r}"
