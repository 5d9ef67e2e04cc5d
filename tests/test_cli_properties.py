"""The CLI on generated argument vectors.  Each of the eleven subcommands,
driven in-process through ``cli.main`` with numbers, bases, caps, step
limits, ordinal text and chain files drawn at random, ends in exit code 0,
1, 2 or 3 within a time budget: no uncaught exception and no traceback on
stderr.

Deterministic: each test runs derandomized, with a fixed number of examples
and no example database.  Numbers go up to 10^6, caps up to 10^30 and step
limits up to 10^4, bad spellings included (signs, ``_``, other scripts'
digits, a number past the interpreter's digit limit).  Three sizes stay
small because their builders have no bound yet: ``gn``'s n and ``chain
slowdown``'s index (each rank of g_n has up to n + 1 terms) at most 64, and
``--const`` and the numbers in chain files (a slow chain has about as many
entries as the constant plus the chain's coefficients) at most 40.
"""

import contextlib
import io
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grzseq.cli import main
from grzseq.ordinals import parse_ordinal

BUDGET_S = 2.0

BAD_NUMBERS = ["-1", "+7", "1_000", "٣", "１２", "²", "7.5", "", " ", "0x10", "1e3", "True", "9" * 4301]


def mostly(good, bad):
    """good, or bad about one time in eight, so that most commands get past
    the argument checks into the library (bad sits at 3, not at an end of
    the range, which hypothesis draws more often)."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 3 else good)


def numbers(hi: int, lo: int = 0):
    """Numbers in lo..hi as text, or now and then one that the CLI refuses."""
    good = st.one_of(st.integers(lo, 20), st.integers(lo, hi)).map(str)
    bad = st.one_of(st.sampled_from([*BAD_NUMBERS, *map(str, range(lo))]),
                    st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3))
    return mostly(good, bad)


def ordinal_texts(nat, depth: int = 3):
    """Well-formed ordinal text of depth at most depth: + joined terms, each a
    number or w, w^w, w^NAT or w^(E) with an optional *NAT."""
    if depth == 0:
        return nat
    power = st.one_of(st.just("w"), st.just("w^w"), nat.map("w^{}".format),
                      ordinal_texts(nat, depth - 1).map("w^({})".format))
    term = st.one_of(nat, st.tuples(power, st.one_of(st.just(""), nat.map("*{}".format))).map("".join))
    return st.lists(term, min_size=1, max_size=3).map("+".join)


GARBAGE = st.text(alphabet="w^()*+ 0123456789٣_-", max_size=12)




def positional(values):
    return values.map(lambda v: [v])


def option(name, values, required=True):
    present = values.map(lambda v: [name, v])
    return present if required else st.one_of(st.just([]), present)


def flag(name):
    return st.booleans().map(lambda on: [name] if on else [])


def argv(head, *parts):
    extra = mostly(st.just([]), st.sampled_from([["--nonsense"], ["7"], ["--json"]]))
    return st.tuples(*parts, flag("--json"), extra).map(lambda drawn: [*head, *(a for p in drawn for a in p)])


NAT, BASE, CAP, STEPS = numbers(10**6), numbers(10**6, lo=2), numbers(10**30), numbers(10**4)
ORDINAL = mostly(ordinal_texts(st.one_of(st.integers(0, 20), st.integers(0, 10**6)).map(str)), GARBAGE)
CHAIN_LINE = mostly(ordinal_texts(st.integers(0, 40).map(str)), GARBAGE)


def commands(chain: str):
    """Argument vectors for each subcommand; chain is the path of the chain file."""
    inputs = option("--input", mostly(st.just(chain), st.sampled_from([chain + ".missing", os.path.dirname(chain)])))
    return {
        "repr": argv(["repr"], positional(NAT), option("--base", BASE), flag("--total")),
        "shift": argv(["shift"], positional(NAT), option("--from", BASE), option("--to", BASE),
                      flag("--hereditary"), option("--cap", CAP, required=False)),
        "seq": argv(["seq"], positional(NAT), flag("--hereditary"), flag("--shadow"),
                    option("--cap", CAP, required=False), option("--max-steps", STEPS, required=False)),
        "ord encode": argv(["ord", "encode"], positional(NAT), option("--base", BASE)),
        "ord compare": argv(["ord", "compare"], positional(ORDINAL), positional(ORDINAL)),
        "ord C": argv(["ord", "C"], positional(ORDINAL)),
        "ord inD": argv(["ord", "inD"], positional(ORDINAL), option("--base", BASE)),
        "ord Q": argv(["ord", "Q"], positional(ORDINAL), option("--base", BASE), option("--cap", CAP, required=False)),
        "gn": argv(["gn"], positional(numbers(64)), positional(BASE), positional(NAT)),
        "chain slowdown": argv(["chain", "slowdown"], inputs, option("--index", numbers(64)),
                               option("--const", numbers(40))),
        "chain verify": argv(["chain", "verify"], inputs),
    }


@st.composite
def chain_texts(draw):
    lines = draw(st.lists(CHAIN_LINE, max_size=5))
    if draw(mostly(st.just(True), st.just(False))):  # then most files descend, so compress gets past its checks
        try:
            values = {parse_ordinal(text): text for text in lines}
        except ValueError:
            pass
        else:
            lines = [values[a] for a in sorted(values, reverse=True)]
    return "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("command", sorted(commands("chain.txt")))
@settings(derandomize=True, database=None, max_examples=16, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_command_ends_in_an_exit_code(command, data, tmp_path, monkeypatch):
    chain = tmp_path / "chain.txt"
    chain.write_text(data.draw(chain_texts(), label="chain file"), encoding="utf-8")
    args = data.draw(commands(str(chain))[command], label="argv")
    grz_cap = data.draw(st.one_of(st.none(), st.none(), CAP), label="GRZ_CAP")
    if grz_cap is None:
        monkeypatch.delenv("GRZ_CAP", raising=False)
    else:
        monkeypatch.setenv("GRZ_CAP", grz_cap)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2, 3), (args, code)
    assert "Traceback" not in err.getvalue(), args
    assert elapsed < BUDGET_S, (args, elapsed)
