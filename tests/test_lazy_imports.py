"""The package loads its modules on first use (PEP 562), so a fresh process
loads only what it runs; its public names stay what they were."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grzseq

SRC = Path(__file__).resolve().parent.parent / "src"

# the names the package exported when it imported every module up front, by module
EXPORTS = {
    "grzeval": ["BoundedNat", "CapExceededError", "Exact", "ExceedsCap", "eval_F",
                "eval_F_iter", "exceeds", "fold", "in_relation_R"],
    "frep": ["FRep", "RepError", "TRep", "ValidationReport", "decode", "decode_total",
             "encode", "parse_rep", "print_rep", "rep_from_json", "rep_to_json",
             "shift_total_value", "shift_value", "to_total", "validate"],
    "order": ["Ordering", "ParseError"],
    "ordinals": ["OMEGA", "ONE", "ZERO", "Ordinal", "add", "coeff_measure", "from_int",
                 "left_subtract_omega", "mul_omega_omega", "omega_pow", "omega_tower",
                 "ordinal_from_json", "ordinal_to_json", "parse_ordinal", "predecessor", "print_ordinal"],
    "correspond": ["L_inverse", "MembershipReport", "NotInDError", "PaddedProfile",
                   "Q_pred", "flip", "g", "in_D", "o_map", "o_map_literal", "profile"],
    "seq": ["CheckReport", "DominationReport", "Outcome", "Phase", "Trace", "TraceStep",
            "dominate_check", "next_step", "run", "shadow_check", "trace_to_json"],
    "slowdown": ["SlowChain", "SlowReport", "chain_to_text", "compress", "parse_chain_text",
                 "slow_g", "verify_slow"],
}
SOURCES = {name: (module, name) for module, names in EXPORTS.items() for name in names}
SOURCES.update(rep_compare=("frep", "compare"), ordinal_compare=("ordinals", "compare"))


def loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs `code`."""
    script = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(sorted(set(sys.modules) - before))"
    env = {k: v for k, v in os.environ.items() if k not in ("GRZ_CAP", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


def test_import_grzseq_loads_no_submodule():
    assert sorted(m for m in loaded_by("import grzseq") if m.startswith("grzseq")) == ["grzseq"]


def test_repr_loads_neither_ordinals_nor_json():
    loaded = loaded_by("from grzseq import cli\nassert cli.main(['repr', '9', '--base', '2']) == 0")
    assert "grzseq.frep" in loaded
    assert not loaded & {"grzseq.seq", "grzseq.slowdown", "grzseq.correspond", "grzseq.ordinals", "json"}


def test_ord_encode_loads_neither_seq_nor_slowdown():
    loaded = loaded_by("from grzseq import cli\nassert cli.main(['ord', 'encode', '9', '--base', '2']) == 0")
    assert "grzseq.correspond" in loaded
    assert not loaded & {"grzseq.seq", "grzseq.slowdown"}


@pytest.mark.parametrize("argv", [["ord", "C", "w*2+3"], ["ord", "compare", "w", "w+1"], ["chain", "verify"]],
                         ids=" ".join)
def test_ordinal_commands_load_neither_the_codec_nor_the_correspondence(argv, tmp_path):
    if argv[0] == "chain":
        (tmp_path / "chain.txt").write_text("w\n1\n0\n", encoding="utf-8")
        argv = [*argv, "--input", str(tmp_path / "chain.txt")]
    loaded = loaded_by(f"from grzseq import cli\nassert cli.main({argv!r}) == 0")
    want = {"grzseq", "grzseq.cli", "grzseq.grzeval", "grzseq.order", "grzseq.ordinals"}
    assert {m for m in loaded if m.startswith("grzseq")} == want | ({"grzseq.slowdown"} if "chain" in argv else set())


# every subcommand, with the grzseq modules a fresh process loads to run it
BASE = {"grzseq", "grzseq.cli", "grzseq.grzeval", "grzseq.order"}
ORDINAL = BASE | {"grzseq.ordinals"}
CODEC = BASE | {"grzseq.frep"}
IMAGE = ORDINAL | {"grzseq.frep", "grzseq.correspond"}

COMMANDS = [
    (["repr", "9", "--base", "2"], CODEC),
    (["shift", "5", "--from", "2", "--to", "3"], CODEC),
    (["seq", "3"], IMAGE | {"grzseq.seq"}),
    (["ord", "encode", "9", "--base", "2"], IMAGE),
    (["ord", "compare", "w", "w+1"], ORDINAL),
    (["ord", "C", "w*2+3"], ORDINAL),
    (["ord", "inD", "w", "--base", "2"], IMAGE),
    (["ord", "Q", "w+1", "--base", "2"], IMAGE),
    (["gn", "2", "3", "1"], IMAGE),
    (["chain", "slowdown", "--index", "2", "--const", "1"], IMAGE | {"grzseq.slowdown"}),
    (["chain", "verify"], ORDINAL | {"grzseq.slowdown"}),
]


@pytest.mark.parametrize("argv, want", [pytest.param(a, w, id=" ".join(a)) for a, w in COMMANDS])
def test_each_command_loads_exactly_its_modules(argv, want, tmp_path):
    if argv[0] == "chain":
        (tmp_path / "chain.txt").write_text("w\n1\n0\n", encoding="utf-8")
        argv = [*argv, "--input", str(tmp_path / "chain.txt")]
    loaded = loaded_by(f"from grzseq import cli\nassert cli.main({argv!r}) == 0")
    assert {m for m in loaded if m.startswith("grzseq")} == want


def test_submodules_import_by_name_from_a_fresh_process():
    loaded = loaded_by("from grzseq import correspond, frep, grzeval, ordinals, seq, slowdown")
    assert {"grzseq.correspond", "grzseq.seq", "grzseq.slowdown"} <= loaded


def test_no_module_loads_dataclasses_or_inspect():
    # the records are plain slotted classes: a CLI process pays for neither
    loaded = loaded_by("from grzseq import cli, correspond, frep, grzeval, ordinals, seq, slowdown")
    assert "grzseq.cli" in loaded and not loaded & {"dataclasses", "inspect"}


def test_all_lists_the_exported_names():
    assert sorted(grzseq.__all__) == sorted(SOURCES)
    assert set(SOURCES) <= set(dir(grzseq))


def test_each_name_is_its_module_attribute():
    assert grzseq.rep_compare is grzseq.frep.compare
    assert [name for name, (module, attr) in SOURCES.items()
            if getattr(grzseq, name) is not getattr(importlib.import_module(f"grzseq.{module}"), attr)] == []


def test_star_import_binds_every_name():
    namespace = {}
    exec("from grzseq import *", namespace)
    assert all(namespace[name] is getattr(grzseq, name) for name in SOURCES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        grzseq.nonsense
    assert not hasattr(grzseq, "compare")  # exported only under its two new names


def test_a_name_is_imported_on_its_first_read_and_then_stored(monkeypatch):
    from grzseq import frep

    calls, resolve = [], grzseq.__getattr__
    monkeypatch.delitem(vars(grzseq), "encode", raising=False)
    monkeypatch.setattr(grzseq, "__getattr__", lambda name: calls.append(name) or resolve(name))
    assert grzseq.encode is grzseq.encode is frep.encode
    assert calls == ["encode"] and vars(grzseq)["encode"] is frep.encode


def test_a_stored_name_loads_only_its_module():
    loaded = loaded_by("import grzseq\nassert grzseq.Ordering is grzseq.Ordering\n"
                       "assert 'Ordering' in vars(grzseq) and 'encode' not in vars(grzseq)")
    assert sorted(m for m in loaded if m.startswith("grzseq")) == ["grzseq", "grzseq.order"]
