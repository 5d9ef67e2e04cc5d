"""Exact arithmetic for fast-growing-hierarchy numerals and ordinal descent.

The package splits along the data it owns:

* :mod:`grzseq.grzeval`    - cutoff-aware evaluation of the hierarchy F_n
* :mod:`grzseq.frep`       - the tower representation codec and base shifts
* :mod:`grzseq.ordinals`   - Cantor normal form terms below epsilon_0
* :mod:`grzseq.correspond` - the number/ordinal correspondence and g_n
* :mod:`grzseq.seq`        - base-shift countdown sequences and shadows
* :mod:`grzseq.slowdown`   - compression of descending chains
* :mod:`grzseq.cli`        - the command-line front end

``import grzseq`` loads none of them: each name in ``__all__`` is imported
from its module when it is first read (PEP 562) and stored here, so a
process loads only the modules it runs and imports each name once.
"""

import importlib

__version__ = "0.1.0"

# exported name -> (module, attribute)
_EXPORTS = {
    "BoundedNat": ("grzeval", "BoundedNat"),
    "CapExceededError": ("grzeval", "CapExceededError"),
    "Exact": ("grzeval", "Exact"),
    "ExceedsCap": ("grzeval", "ExceedsCap"),
    "eval_F": ("grzeval", "eval_F"),
    "eval_F_iter": ("grzeval", "eval_F_iter"),
    "exceeds": ("grzeval", "exceeds"),
    "fold": ("grzeval", "fold"),
    "in_relation_R": ("grzeval", "in_relation_R"),
    "FRep": ("frep", "FRep"),
    "RepError": ("frep", "RepError"),
    "TRep": ("frep", "TRep"),
    "ValidationReport": ("frep", "ValidationReport"),
    "rep_compare": ("frep", "compare"),
    "decode": ("frep", "decode"),
    "decode_total": ("frep", "decode_total"),
    "encode": ("frep", "encode"),
    "parse_rep": ("frep", "parse_rep"),
    "print_rep": ("frep", "print_rep"),
    "rep_from_json": ("frep", "rep_from_json"),
    "rep_to_json": ("frep", "rep_to_json"),
    "shift_total_value": ("frep", "shift_total_value"),
    "shift_value": ("frep", "shift_value"),
    "to_total": ("frep", "to_total"),
    "validate": ("frep", "validate"),
    "Ordering": ("order", "Ordering"),
    "ParseError": ("order", "ParseError"),
    "OMEGA": ("ordinals", "OMEGA"),
    "ONE": ("ordinals", "ONE"),
    "ZERO": ("ordinals", "ZERO"),
    "Ordinal": ("ordinals", "Ordinal"),
    "add": ("ordinals", "add"),
    "coeff_measure": ("ordinals", "coeff_measure"),
    "ordinal_compare": ("ordinals", "compare"),
    "from_int": ("ordinals", "from_int"),
    "left_subtract_omega": ("ordinals", "left_subtract_omega"),
    "mul_omega_omega": ("ordinals", "mul_omega_omega"),
    "omega_pow": ("ordinals", "omega_pow"),
    "omega_tower": ("ordinals", "omega_tower"),
    "ordinal_from_json": ("ordinals", "ordinal_from_json"),
    "ordinal_to_json": ("ordinals", "ordinal_to_json"),
    "parse_ordinal": ("ordinals", "parse_ordinal"),
    "predecessor": ("ordinals", "predecessor"),
    "print_ordinal": ("ordinals", "print_ordinal"),
    "L_inverse": ("correspond", "L_inverse"),
    "MembershipReport": ("correspond", "MembershipReport"),
    "NotInDError": ("correspond", "NotInDError"),
    "PaddedProfile": ("correspond", "PaddedProfile"),
    "Q_pred": ("correspond", "Q_pred"),
    "flip": ("correspond", "flip"),
    "g": ("correspond", "g"),
    "in_D": ("correspond", "in_D"),
    "o_map": ("correspond", "o_map"),
    "o_map_literal": ("correspond", "o_map_literal"),
    "profile": ("correspond", "profile"),
    "CheckReport": ("seq", "CheckReport"),
    "DominationReport": ("seq", "DominationReport"),
    "Outcome": ("seq", "Outcome"),
    "Phase": ("seq", "Phase"),
    "Trace": ("seq", "Trace"),
    "TraceStep": ("seq", "TraceStep"),
    "dominate_check": ("seq", "dominate_check"),
    "next_step": ("seq", "next_step"),
    "run": ("seq", "run"),
    "shadow_check": ("seq", "shadow_check"),
    "trace_to_json": ("seq", "trace_to_json"),
    "SlowChain": ("slowdown", "SlowChain"),
    "SlowReport": ("slowdown", "SlowReport"),
    "chain_to_text": ("slowdown", "chain_to_text"),
    "compress": ("slowdown", "compress"),
    "parse_chain_text": ("slowdown", "parse_chain_text"),
    "slow_g": ("slowdown", "slow_g"),
    "verify_slow": ("slowdown", "verify_slow"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        # also how `from grzseq import seq` reaches the submodule import
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), attr)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
