"""Command-line behavior: output shapes, exit codes, JSON round-trips."""

import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from grzseq import cli, ordinals
from grzseq.cli import main
from grzseq.frep import encode, rep_from_json, to_total
from grzseq.ordinals import ordinal_from_json, parse_ordinal
from grzseq.slowdown import parse_chain_text


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv):
    """The CLI in a fresh interpreter: no module preloaded, no pytest stack."""
    env = {k: v for k, v in os.environ.items() if k not in ("GRZ_CAP", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-m", "grzseq.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_repr_basic(capsys):
    code, out, _ = invoke(capsys, "repr", "9", "--base", "2")
    assert code == 0 and out.strip() == "[(2,1),(0,1)]_2"


def test_repr_atom(capsys):
    code, out, _ = invoke(capsys, "repr", "1", "--base", "2")
    assert code == 0 and out.strip() == "1"


def test_repr_total(capsys):
    code, out, _ = invoke(capsys, "repr", "9", "--base", "2", "--total")
    assert code == 0 and out.strip() == "[([(0,0)]_2,1),(0,1)]_2"


def test_repr_bad_base_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "repr", "9", "--base", "1")
    assert code == 2


def test_repr_json_roundtrip(capsys):
    code, out, _ = invoke(capsys, "repr", "9", "--base", "2", "--json")
    assert code == 0
    assert rep_from_json(out) == encode(9, 2)
    code, out, _ = invoke(capsys, "repr", "9", "--base", "2", "--total", "--json")
    assert code == 0
    assert rep_from_json(out) == to_total(9, 2)


def test_shift_exact(capsys):
    code, out, _ = invoke(capsys, "shift", "4", "--from", "2", "--to", "3")
    assert code == 0 and out.strip() == "6"


def test_shift_overflow(capsys):
    code, out, _ = invoke(capsys, "shift", "8", "--from", "2", "--to", "3")
    assert code == 1 and out.strip() == ">cap(10000000)"


def test_shift_hereditary(capsys):
    code, out, _ = invoke(capsys, "shift", "7", "--from", "2", "--to", "3", "--hereditary")
    assert code == 0 and out.strip() == "10"


def test_shift_json(capsys):
    code, out, _ = invoke(capsys, "shift", "4", "--from", "2", "--to", "3", "--json")
    assert code == 0 and json.loads(out) == {"value": "6"}
    code, out, _ = invoke(capsys, "shift", "8", "--from", "2", "--to", "3", "--json")
    assert code == 1 and json.loads(out) == {"exceeds_cap": "10000000"}


def test_grz_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("GRZ_CAP", "5")
    code, out, _ = invoke(capsys, "shift", "7", "--from", "2", "--to", "3")
    assert code == 1 and out.strip() == ">cap(5)"
    monkeypatch.setenv("GRZ_CAP", "nonsense")
    code, _, err = invoke(capsys, "shift", "7", "--from", "2", "--to", "3")
    assert code == 2 and "GRZ_CAP" in err


def test_seq_trace(capsys):
    code, out, _ = invoke(capsys, "seq", "4", "--shadow")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11  # ten steps plus the outcome line
    assert lines[0].startswith("k=0 base=2 value=4")
    assert "shadow=w^(1)*1" in lines[0]
    assert lines[9] == "k=9 base=11 value=0 DONE"
    assert lines[10] == "outcome: terminated at k=9"


def test_seq_overflow_exit(capsys):
    code, out, _ = invoke(capsys, "seq", "8")
    assert code == 1
    assert "overflow: [(2,1)]_2[2:=3] - 1 > 10000000" in out


def test_seq_step_limit_exit(capsys):
    code, _, _ = invoke(capsys, "seq", "7", "--max-steps", "3")
    assert code == 1


def test_seq_json_roundtrip(capsys):
    code, out, _ = invoke(capsys, "seq", "4", "--shadow", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["outcome"] == {"kind": "terminated", "at": 9}
    for step in obj["steps"]:
        if step["rep"] is not None:
            rep_from_json(step["rep"])
        if step["shadow"] is not None:
            ordinal_from_json(step["shadow"])


def test_ord_encode(capsys):
    code, out, _ = invoke(capsys, "ord", "encode", "9", "--base", "2")
    assert code == 0 and out.strip() == "w^(w^(1)*1)*1+1"


def test_ord_encode_below_base_rejected(capsys):
    code, _, err = invoke(capsys, "ord", "encode", "1", "--base", "2")
    assert code == 3 and "x >= base" in err


def test_ord_compare(capsys):
    code, out, _ = invoke(capsys, "ord", "compare", "w*5+3", "w^w")
    assert code == 0 and out.strip() == "LT"


def test_ord_C(capsys):
    code, out, _ = invoke(capsys, "ord", "C", "w^(w*2)+3")
    assert code == 0 and out.strip() == "3"
    code, out, _ = invoke(capsys, "ord", "C", "w^(" * 300 + "1" + ")" * 300)
    assert code == 0 and out.strip() == "1"


def test_ord_C_bad_term_is_usage(capsys):
    code, _, _ = invoke(capsys, "ord", "C", "w^")
    assert code == 2
    # ordinal text has no depth limit: 1,500 levels is an ordinary term
    code, out, err = invoke(capsys, "ord", "C", "w^(" * 1500 + "1" + ")" * 1500)
    assert code == 0 and out.strip() == "1" and err == ""


def test_chain_output_of_any_depth_prints_and_verifies(capsys, tmp_path):
    src, out_path = tmp_path / "chain.txt", tmp_path / "slow.txt"
    src.write_text("w*2\nw\n1\n0\n", encoding="utf-8")
    argv = ["chain", "slowdown", "--input", str(src), "--index", "2", "--const", "1200"]
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and err == "" and out.count("\n") == 1203  # 1,200 entries and 3 comments
    assert out.startswith("w^(" * 1203 + "1" + ")*1" * 1203 + "\n")
    proc = run_cli(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
    out_path.write_text(out, encoding="utf-8")
    code, verified, err = invoke(capsys, "chain", "verify", "--input", str(out_path))
    assert code == 0 and err == "" and verified.startswith("ok: 1200 entries")
    proc = run_cli(["chain", "verify", "--input", str(out_path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, verified, "")


def test_chain_json_past_its_height_bound_is_rejected(capsys, tmp_path):
    # the prefix's JSON grows about as the cube of its height: past the
    # bound, a validation rejection, as compress's own bounds are
    src = tmp_path / "chain.txt"
    src.write_text("w*2\nw\n1\n0\n", encoding="utf-8")
    code, out, err = invoke(capsys, "chain", "slowdown", "--input", str(src), "--index", "2", "--const", "1200", "--json")
    assert (code, out, err) == (3, "", "grzseq: --json: a tower prefix of height 1203 is past the bound of 200\n")


def test_chain_json_just_past_its_height_bound_builds_no_json(capsys, tmp_path, monkeypatch):
    # w^w * (w*2) lies below w_3, so N = const + 3
    src = tmp_path / "chain.txt"
    src.write_text("w*2\nw\n1\n0\n", encoding="utf-8")

    def no_json(a):
        raise AssertionError("JSON built past the bound")

    monkeypatch.setattr(ordinals, "ordinal_to_json", no_json)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "chain", "slowdown", "--input", str(src), "--index", "2", "--const", "198", "--json")
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (3, "", "grzseq: --json: a tower prefix of height 201 is past the bound of 200\n")


@pytest.mark.parametrize("const,code", [(7, 0), (8, 3)])
def test_chain_json_at_its_height_bound_is_written(capsys, tmp_path, monkeypatch, const, code):
    # the bound itself, lowered so that the JSON at it stays small
    src = tmp_path / "chain.txt"
    src.write_text("w*2\nw\n1\n0\n", encoding="utf-8")
    monkeypatch.setattr(cli, "_MAX_JSON_HEIGHT", 10)
    got, out, err = invoke(capsys, "chain", "slowdown", "--input", str(src), "--index", "2", "--const", str(const), "--json")
    assert got == code
    if code:
        assert (out, err) == ("", f"grzseq: --json: a tower prefix of height {const + 3} is past the bound of 10\n")
    else:
        obj = json.loads(out)
        assert obj["tower_height_base"] == 10 and obj["verified"] is True and err == ""
        assert [ordinal_from_json(e) for e in obj["entries"]] == [parse_ordinal(t) for t in obj["entries_text"]]


def test_output_too_deep_to_write_is_usage(capsys):
    # a writer that recurses once per level stops at the interpreter's limit:
    # a usage error, with no traceback
    code, out, err = invoke(capsys, "repr", str(7**2724), "--base", "2", "--total")
    assert (code, out, err) == (2, "", "grzseq: nesting too deep\n")


def test_ord_inD(capsys):
    code, out, _ = invoke(capsys, "ord", "inD", "w^w", "--base", "2")
    assert code == 0 and out.strip() == "member"
    code, out, _ = invoke(capsys, "ord", "inD", "w^2", "--base", "2")
    assert code == 0 and out.strip().startswith("non-member")


def test_ord_Q(capsys):
    code, out, _ = invoke(capsys, "ord", "Q", "w^w", "--base", "2")
    assert code == 0 and out.strip() == "w^(1)*1+3"


def test_ord_Q_rejections(capsys):
    code, _, err = invoke(capsys, "ord", "Q", "w^2", "--base", "2")
    assert code == 3 and "not in D_2" in err
    code, _, _ = invoke(capsys, "ord", "Q", "0", "--base", "2")
    assert code == 3
    code, _, _ = invoke(capsys, "ord", "Q", "w^(w*2)", "--base", "2")
    assert code == 1  # preimage above the cap


def test_ord_inD_and_Q_take_any_depth(capsys):
    tower = "w^(" * 1500 + "1" + ")" * 1500
    code, out, err = invoke(capsys, "ord", "inD", tower, "--base", "2")
    assert code == 0 and out.strip() == "member" and err == ""
    code, out, err = invoke(capsys, "ord", "Q", tower, "--base", "2")
    assert code == 1 and out == "" and "exceeds cap" in err
    assert "nesting too deep" not in err and "Traceback" not in err


def test_ord_json_roundtrip(capsys):
    code, out, _ = invoke(capsys, "ord", "encode", "9", "--base", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert ordinal_from_json(obj["ordinal"]) == parse_ordinal(obj["text"])


def test_gn(capsys):
    code, out, _ = invoke(capsys, "gn", "1", "2", "3")
    assert code == 0 and out.strip() == "1"
    code, out, _ = invoke(capsys, "gn", "2", "2", "1")
    assert code == 0 and out.strip() == "w^(2)*1"


def test_chain_slowdown_and_verify(capsys, tmp_path):
    src = tmp_path / "chain.txt"
    src.write_text("# demo chain\nw*2\nw\n1\n0\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "chain", "slowdown", "--input", str(src), "--index", "2", "--const", "2")
    assert code == 0
    entry_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(entry_lines) == 4
    assert "# ell=2 N=5 entries=4" in out

    dst = tmp_path / "slow.txt"
    dst.write_text("\n".join(entry_lines) + "\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "chain", "verify", "--input", str(dst))
    assert code == 0 and out.startswith("ok")


def test_chain_verify_rejects(capsys, tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("w*2\nw*2\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "chain", "verify", "--input", str(src))
    assert code == 3 and "violation" in out


def test_chain_slowdown_rejects_small_index(capsys, tmp_path):
    src = tmp_path / "chain.txt"
    src.write_text("w*10\n9\n0\n", encoding="utf-8")
    code, _, err = invoke(capsys, "chain", "slowdown", "--input", str(src), "--index", "2", "--const", "2")
    assert code == 3 and "too small" in err


@pytest.mark.parametrize("text,index,const,bound", [
    # the chain that once built until the address space ran out
    ("w^(w^(w^(999999)*999999)*999999)*999999\nw^(w^(999999)*999999)*999999+w^(w^(3)*99)*999999\n0\n",
     "64", "0", "a tower prefix of 999999 entries is past the bound of 3000"),
    ("w^(w^(w^(9)*9)*9)*9\nw^w\n1\n0\n", "1000000", "40", "a tower prefix of 999999 entries is past the bound of 3000"),
    ("w*2\nw\n1\n0\n", "2", "3001", "a tower prefix of 3001 entries is past the bound of 3000"),
    ("w^w\nw*999999\n999999\n0\n", "4", "0", "a slow chain of up to 11999979 terms is past the bound of 1048576"),
], ids=["found", "index", "const", "terms"])
def test_chain_slowdown_past_its_bounds_is_rejected_at_once(capsys, tmp_path, text, index, const, bound):
    src = tmp_path / "chain.txt"
    src.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = invoke(capsys, "chain", "slowdown", "--input", str(src), "--index", index, "--const", const)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (3, "", f"grzseq: {bound}\n")


def test_chain_missing_file_is_usage(capsys, tmp_path):
    code, _, _ = invoke(capsys, "chain", "verify", "--input", str(tmp_path / "nope.txt"))
    assert code == 2


@pytest.mark.parametrize("rest", [["verify"], ["slowdown", "--index", "2", "--const", "1"]], ids=lambda r: r[0])
def test_chain_input_that_cannot_be_opened_is_usage(capsys, tmp_path, rest):
    # a directory opens with IsADirectoryError: an OSError, as a missing file's is
    code, out, err = invoke(capsys, "chain", rest[0], "--input", str(tmp_path), *rest[1:])
    assert code == 2 and out == ""
    assert err.startswith("grzseq: ") and err.count("\n") == 1 and str(tmp_path) in err


def test_chain_json_roundtrip(capsys, tmp_path):
    src = tmp_path / "chain.txt"
    src.write_text("w\n1\n0\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "chain", "slowdown", "--input", str(src), "--index", "1", "--const", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    entries = [ordinal_from_json(e) for e in obj["entries"]]
    assert entries == [parse_ordinal(t) for t in obj["entries_text"]]
    assert obj["verified"] is True


def test_chain_slowdown_text_output_is_reparseable(capsys, tmp_path):
    src = tmp_path / "chain.txt"
    src.write_text("w^(w^w)\nw^(w*2+1)*2\nw*3\n4\n0\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "chain", "slowdown", "--input", str(src), "--index", "3", "--const", "3")
    assert code == 0
    parsed = parse_chain_text(out)  # comment lines are ignored by the parser
    assert len(parsed) > 0


def test_usage_errors(capsys):
    assert invoke(capsys, "nonsense")[0] == 2
    assert invoke(capsys, "repr")[0] == 2
    assert invoke(capsys, "shift", "4", "--from", "3", "--to", "2")[0] == 3


@pytest.mark.parametrize("text", ["١٢", "1_000", "+12", "-3", "1e3", "twelve"])
def test_number_arguments_take_ascii_digits_only(capsys, text):
    # as the library's text readers do: int() alone would read the first three
    code, _, err = invoke(capsys, "repr", text, "--base", "2")
    assert code == 2 and f"argument x: expected a natural number, got {text!r}" in err


def test_number_argument_past_the_digit_limit_is_too_long(capsys):
    code, _, err = invoke(capsys, "repr", "9" * 5000, "--base", "2")
    assert code == 2 and "argument x: number too long" in err
    assert "9" * 100 not in err


def test_base_argument_takes_ascii_digits_only(capsys):
    code, _, err = invoke(capsys, "repr", "12", "--base", "٢")
    assert code == 2 and "argument --base: expected a natural number, got '٢'" in err


@pytest.mark.parametrize("text", ["1_0000", "١٠", "+50", "-5"])
def test_grz_cap_takes_ascii_digits_only(capsys, monkeypatch, text):
    monkeypatch.setenv("GRZ_CAP", text)
    code, _, err = invoke(capsys, "shift", "7", "--from", "2", "--to", "3")
    assert code == 2 and err.strip() == f"grzseq: GRZ_CAP: expected a natural number, got {text!r}"


def test_grz_cap_past_the_digit_limit_is_too_long(capsys, monkeypatch):
    monkeypatch.setenv("GRZ_CAP", "9" * 5000)
    code, _, err = invoke(capsys, "shift", "7", "--from", "2", "--to", "3")
    assert code == 2 and err.strip() == "grzseq: GRZ_CAP: number too long"


@pytest.mark.parametrize("text", ["0", "1"])
def test_grz_cap_below_two_is_usage(capsys, monkeypatch, text):
    monkeypatch.setenv("GRZ_CAP", text)
    code, out, err = invoke(capsys, "shift", "7", "--from", "2", "--to", "3")
    assert code == 2 and out == "" and err.strip() == "grzseq: GRZ_CAP must be at least 2"


def test_grz_cap_allows_whitespace_around_the_number(capsys, monkeypatch):
    monkeypatch.setenv("GRZ_CAP", " 5 ")
    code, out, _ = invoke(capsys, "shift", "7", "--from", "2", "--to", "3")
    assert code == 1 and out.strip() == ">cap(5)"


def test_an_exceeded_cap_abbreviates_as_a_value_does(capsys):
    cap = str(10**60)
    code, out, _ = invoke(capsys, "shift", "8", "--from", "2", "--to", "3", "--cap", cap)
    assert code == 1 and out.strip() == ">cap(≈10^60)"
    code, out, _ = invoke(capsys, "shift", "8", "--from", "2", "--to", "3", "--cap", cap, "--json")
    assert code == 1 and json.loads(out) == {"exceeds_cap": cap}  # JSON carries the whole cap


def test_one_default_cap():
    from grzseq import cli, correspond, grzeval, seq

    assert cli.DEFAULT_CAP is grzeval.DEFAULT_CAP == 10**7
    for fn in (seq.run, seq.dominate_check, correspond.L_inverse, correspond.Q_pred):
        assert inspect.signature(fn).parameters["cap"].default is grzeval.DEFAULT_CAP, fn.__name__


def test_one_default_step_limit():
    from grzseq import cli, grzeval, seq

    assert cli.DEFAULT_MAX_STEPS is grzeval.DEFAULT_MAX_STEPS == 10**4
    assert inspect.signature(seq.run).parameters["max_steps"].default is grzeval.DEFAULT_MAX_STEPS
    args = cli.build_parser(grzeval.DEFAULT_CAP).parse_args(["seq", "4"])
    assert args.max_steps is grzeval.DEFAULT_MAX_STEPS


def test_big_numbers_abbreviate_in_text_only(capsys):
    from grzseq.cli import _fmt_nat

    assert _fmt_nat(10**40 - 1) == str(10**40 - 1)  # 40 digits, still exact
    assert _fmt_nat(10**40) == "≈10^40"
    # reachable through shift with a raised cap: counts of the source tower
    # multiply up past 40 digits while staying exact
    x = 402653184 * 2**63  # [(2,2),(1,63)]_3
    code, out, _ = invoke(
        capsys, "shift", str(x), "--from", "3", "--to", "4", "--cap", str(10**60)
    )
    assert code == 0 and out.strip() == "≈10^40"
    code, out, _ = invoke(
        capsys, "shift", str(x), "--from", "3", "--to", "4", "--cap", str(10**60), "--json"
    )
    assert code == 0
    value = int(json.loads(out)["value"])  # JSON always carries the exact value
    assert 10**40 < value < 10**41


# ---------------------------------------------------------------------------
# One fresh process per subcommand.  The calls above cannot see an import a
# command forgot, because this session has already loaded every module.

SUBCOMMANDS = [
    ["repr", "9", "--base", "2"],
    ["shift", "4", "--from", "2", "--to", "3"],
    ["seq", "4", "--shadow"],
    ["ord", "encode", "9", "--base", "2"],
    ["ord", "compare", "w*5+3", "w^w"],
    ["ord", "C", "w^(w*2)+3"],
    ["ord", "inD", "w^w", "--base", "2"],
    ["ord", "Q", "w^w", "--base", "2"],
    ["gn", "2", "2", "1"],
    ["chain", "slowdown", "--input", "CHAIN", "--index", "1", "--const", "1"],
    ["chain", "verify", "--input", "CHAIN"],
]
FRESH = [(argv, 0) for argv in SUBCOMMANDS] + [(argv + ["--json"], 0) for argv in SUBCOMMANDS] + [
    (["shift", "8", "--from", "2", "--to", "3"], 1),
    (["ord", "C", "w^"], 2),
    (["ord", "C", "w^(" * 1500 + "1" + ")" * 1500], 0),
    (["ord", "Q", "w^2", "--base", "2"], 3),
    (["chain", "verify", "--input", "BAD"], 3),
    (["chain", "verify", "--input", "DIR"], 2),
]


@pytest.mark.parametrize("argv, expected", FRESH, ids=[" ".join(argv)[:40] for argv, _ in FRESH])
def test_subcommand_in_a_fresh_process(capsys, tmp_path, argv, expected):
    (tmp_path / "chain.txt").write_text("w\n1\n0\n", encoding="utf-8")
    (tmp_path / "bad.txt").write_text("w*2\nw*2\n", encoding="utf-8")
    files = {"CHAIN": str(tmp_path / "chain.txt"), "BAD": str(tmp_path / "bad.txt"), "DIR": str(tmp_path)}
    argv = [files.get(a, a) for a in argv]
    proc = run_cli(argv)
    assert proc.returncode == expected and "Traceback" not in proc.stderr, proc.stderr[-500:]
    code, out, _ = invoke(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out)
    if expected == 0 and "--json" in argv:
        json.loads(proc.stdout)


GOLDEN = [  # each FRESH command's exact stdout; a JSON one written compactly, as it reads back
    "[(2,1),(0,1)]_2\n",
    "6\n",
    ("k=0 base=2 value=4 rep=[(1,1)]_2 shadow=w^(1)*1 REPRESENTATION\n"
     "k=1 base=3 value=5 rep=[(0,2)]_3 shadow=2 REPRESENTATION\n"
     "k=2 base=4 value=5 rep=[(0,1)]_4 shadow=1 REPRESENTATION\n"
     "k=3 base=5 value=5 rep=[(0,0)]_5 shadow=0 REPRESENTATION\n"
     "k=4 base=6 value=5 COUNTDOWN\n"
     "k=5 base=7 value=4 COUNTDOWN\n"
     "k=6 base=8 value=3 COUNTDOWN\n"
     "k=7 base=9 value=2 COUNTDOWN\n"
     "k=8 base=10 value=1 COUNTDOWN\n"
     "k=9 base=11 value=0 DONE\n"
     "outcome: terminated at k=9\n"),
    "w^(w^(1)*1)*1+1\n",
    "LT\n",
    "3\n",
    "member\n",
    "w^(1)*1+3\n",
    "w^(2)*1\n",
    "w^(w^(w^(w^(1)*1)*1)*1)*1\nw^(w^(1)*1+1)*1+w^(1)*2\n# ell=1 N=4 entries=2\n# verified: ok\n",
    "ok: 3 entries descend with C(entry_i) <= i+1\n",
    '{"base":"2","pairs":[["2","1"],["0","1"]]}',
    '{"value":"6"}',
    ('{"start":"4","hereditary":false,"cap":"10000000","steps":[{"k":0,"base":2,"value":"4",'
     '"rep":{"base":"2","pairs":[["1","1"]]},"shadow":[[[[[],"1"]],"1"]],"phase":"representation"},'
     '{"k":1,"base":3,"value":"5","rep":{"base":"3","pairs":[["0","2"]]},"shadow":[[[],"2"]],'
     '"phase":"representation"},{"k":2,"base":4,"value":"5","rep":{"base":"4","pairs":[["0","1"]]},'
     '"shadow":[[[],"1"]],"phase":"representation"},{"k":3,"base":5,"value":"5","rep":{"base":"5",'
     '"pairs":[["0","0"]]},"shadow":[],"phase":"representation"},{"k":4,"base":6,"value":"5",'
     '"rep":null,"shadow":null,"phase":"countdown"},{"k":5,"base":7,"value":"4","rep":null,'
     '"shadow":null,"phase":"countdown"},{"k":6,"base":8,"value":"3","rep":null,"shadow":null,'
     '"phase":"countdown"},{"k":7,"base":9,"value":"2","rep":null,"shadow":null,"phase":"countdown"},'
     '{"k":8,"base":10,"value":"1","rep":null,"shadow":null,"phase":"countdown"},{"k":9,"base":11,'
     '"value":"0","rep":null,"shadow":null,"phase":"done"}],"outcome":{"kind":"terminated","at":9}}'),
    '{"ordinal":[[[[[[[],"1"]],"1"]],"1"],[[],"1"]],"text":"w^(w^(1)*1)*1+1"}',
    '{"ordering":"LT"}',
    '{"value":"3"}',
    '{"member":true,"skeleton":[["2","1"]],"reason":null}',
    '{"ordinal":[[[[[],"1"]],"1"],[[],"3"]],"text":"w^(1)*1+3"}',
    '{"ordinal":[[[[[],"2"]],"1"]],"text":"w^(2)*1"}',
    ('{"entries":[[[[[[[[[[[[],"1"]],"1"]],"1"]],"1"]],"1"]],[[[[[[[],"1"]],"1"],[[],"1"]],"1"],[[[[],'
     '"1"]],"2"]]],"entries_text":["w^(w^(w^(w^(1)*1)*1)*1)*1","w^(w^(1)*1+1)*1+w^(1)*2"],'
     '"tower_prefix_len":1,"tower_height_base":4,"note":null,"verified":true}'),
    '{"ok":true,"violations":[]}',
    ">cap(10000000)\n",
    "",
    "1\n",
    "",
    "violation: entries 0 and 1 do not descend\nviolation: entry 0 has coefficient measure 2 > 1\n",
    "",
]


@pytest.mark.parametrize("case, stdout", list(zip(FRESH, GOLDEN, strict=True)),
                         ids=[" ".join(argv)[:40] for argv, _ in FRESH])
def test_subcommand_prints_exactly(capsys, tmp_path, case, stdout):
    # each command's bytes: its text as written, its JSON indented by 2
    (tmp_path / "chain.txt").write_text("w\n1\n0\n", encoding="utf-8")
    (tmp_path / "bad.txt").write_text("w*2\nw*2\n", encoding="utf-8")
    files = {"CHAIN": str(tmp_path / "chain.txt"), "BAD": str(tmp_path / "bad.txt"), "DIR": str(tmp_path)}
    argv, expected = case
    if expected == 0 and "--json" in argv:
        stdout = json.dumps(json.loads(stdout), indent=2) + "\n"
    code, out, _ = invoke(capsys, *[files.get(a, a) for a in argv])
    assert (code, out) == (expected, stdout)
