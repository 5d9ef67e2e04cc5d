"""The result and report records: immutable, equal by class and fields,
hashable, printed as dataclasses print, built and matched by position or
keyword."""

import copy
import pickle

import pytest

from grzseq.correspond import MembershipReport, PaddedProfile
from grzseq.frep import FRep, TRep, ValidationReport
from grzseq.grzeval import Exact, ExceedsCap
from grzseq.ordinals import OMEGA, ONE, Ordinal
from grzseq.seq import CheckReport, DominationReport, Outcome, Phase, Trace, TraceStep
from grzseq.slowdown import SlowChain, SlowReport

# one record of each class: its fields by keyword, a field to change, and its repr
CASES = [
    (Exact, dict(value=5), "value", "Exact(value=5)"),
    (ExceedsCap, dict(cap=7), "cap", "ExceedsCap(cap=7)"),
    (FRep, dict(base=2, body=((1, 1),)), "body", "FRep(base=2, body=((1, 1),))"),
    (TRep, dict(base=2, body=((TRep(2, 1), TRep(2, 0)),)), "base",
     "TRep(base=2, body=((TRep(base=2, body=1), TRep(base=2, body=0)),))"),
    (ValidationReport, dict(ok=False, violations=("bad",)), "ok", "ValidationReport(ok=False, violations=('bad',))"),
    (Ordinal, dict(terms=((ONE, 1),)), "terms", "Ordinal<w^(1)*1>"),
    (MembershipReport, dict(member=True, base=2, skeleton=((Exact(1), 1),), reason=None), "reason",
     "MembershipReport(member=True, base=2, skeleton=((Exact(value=1), 1),), reason=None)"),
    (PaddedProfile, dict(n=2, base=2, j=(1, 0), m=(2, 4)), "m", "PaddedProfile(n=2, base=2, j=(1, 0), m=(2, 4))"),
    (TraceStep, dict(k=0, base=2, value=Exact(3), rep=FRep(2, ((0, 1),)), shadow=ONE, phase=Phase.COUNTDOWN), "k",
     "TraceStep(k=0, base=2, value=Exact(value=3), rep=FRep(base=2, body=((0, 1),)), shadow=Ordinal<1>, "
     "phase=<Phase.COUNTDOWN: 'countdown'>)"),
    (Outcome, dict(kind="terminated", at=3), "at", "Outcome(kind='terminated', at=3)"),
    (Trace, dict(start=3, hereditary=False, cap=100, steps=(), outcome=Outcome("terminated", 3), overflow_desc=None),
     "cap", "Trace(start=3, hereditary=False, cap=100, steps=(), outcome=Outcome(kind='terminated', at=3), "
     "overflow_desc=None)"),
    (CheckReport, dict(ok=True, checked=3, skipped=0, violations=()), "checked",
     "CheckReport(ok=True, checked=3, skipped=0, violations=())"),
    (DominationReport, dict(ok=True, entries=((0, 1, 1),), skipped=(), violations=()), "entries",
     "DominationReport(ok=True, entries=((0, 1, 1),), skipped=(), violations=())"),
    (SlowChain, dict(entries=(OMEGA, ONE), tower_prefix_len=1, tower_height_base=2, note=None), "note",
     "SlowChain(entries=(Ordinal<w^(1)*1>, Ordinal<1>), tower_prefix_len=1, tower_height_base=2, note=None)"),
    (SlowReport, dict(ok=False, violations=("x",)), "violations", "SlowReport(ok=False, violations=('x',))"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls,fields,changed,text", CASES, ids=IDS)
def test_equal_by_fields_and_printed_as_before(cls, fields, changed, text):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == text
    other = cls(**{**fields, changed: 9 if isinstance(fields[changed], int) else ()})
    assert a != other and not a == other


@pytest.mark.parametrize("cls,fields,changed,text", CASES, ids=IDS)
def test_immutable(cls, fields, changed, text):
    a = cls(**fields)
    for name in [*fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(**fields)


@pytest.mark.parametrize("cls,fields,changed,text", CASES, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_record(cls, fields, changed, text):
    a = cls(**fields)
    assert copy.copy(a) == a and copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_defaults_kept():
    assert Trace(0, False, 1, (), Outcome("terminated", 0)).overflow_desc is None
    assert SlowChain((ONE,), 1, 2).note is None
    assert Ordinal() == Ordinal(()) and Ordinal().is_zero


def test_equal_fields_of_another_class_are_unequal():
    assert Exact(5) != ExceedsCap(5) and ExceedsCap(5) != Exact(5)
    assert FRep(2, 3) != TRep(2, 3) and TRep(2, 3) != FRep(2, 3)
    assert len({Exact(5), ExceedsCap(5), Exact(5)}) == 2
    assert Exact(5) != 5 and Outcome("terminated", 3) != ("terminated", 3)


@pytest.mark.parametrize("cls,fields,changed,text", CASES, ids=IDS)
def test_matched_by_position(cls, fields, changed, text):
    first = next(iter(fields.values()))
    match cls(**fields):
        case cls(got):
            assert got == first
        case _:
            raise AssertionError("no match")
