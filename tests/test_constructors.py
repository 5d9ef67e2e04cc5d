"""The records' constructors.  A record that writes no ``__init__`` gets one
from ``order.Record``: it takes exactly the record's fields, by position or
keyword, with the trailing defaults the record names, and sets each slot.
The records that check their arguments keep their own."""

import importlib
import inspect
import pkgutil
import sys

import pytest

import grzseq
from grzseq.order import Record

for _info in pkgutil.iter_modules(grzseq.__path__):
    importlib.import_module(f"grzseq.{_info.name}")


def all_records() -> list[type]:
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("grzseq."):
                found.append(sub)
            todo.append(sub)
    return sorted(found, key=lambda c: c.__name__)


RECORDS = all_records()
IDS = [c.__name__ for c in RECORDS]
# the records whose own __init__ checks what it is given
WRITTEN = {"FRep", "TRep", "Ordinal", "_Tower", "_Join"}


def written(cls: type) -> bool:
    """Whether cls builds through an __init__ in its module's source."""
    return cls.__init__.__code__.co_filename == sys.modules[cls.__module__].__file__


def test_the_walk_finds_every_record():
    assert set(IDS) == WRITTEN | {
        "Exact", "ExceedsCap", "ValidationReport", "MembershipReport", "PaddedProfile", "TraceStep", "Outcome",
        "Trace", "CheckReport", "DominationReport", "SlowChain", "SlowReport"}


def test_only_the_checking_records_write_their_own_init():
    assert {c.__name__ for c in RECORDS if written(c)} == WRITTEN


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_the_signature_is_the_fields(cls):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(cls._fields)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_only_the_named_fields_have_defaults():
    defaults = {(c.__name__, p.name): p.default for c in RECORDS
                for p in inspect.signature(c).parameters.values() if p.default is not p.empty}
    assert defaults == {("Trace", "overflow_desc"): None, ("SlowChain", "note"): None, ("Ordinal", "terms"): (),
                        ("_Join", "terms"): ()}


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_a_missing_extra_or_unknown_argument_is_a_type_error(cls):
    n = len(cls._fields)
    calls = [lambda: cls(*[None] * (n + 1)), lambda: cls(*[None] * n, bogus=None),
             lambda: cls(**{f: None for f in cls._fields}, bogus=None)]
    if any(p.default is p.empty for p in inspect.signature(cls).parameters.values()):
        calls.append(lambda: cls())
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("cls", [c for c in RECORDS if not written(c)], ids=lambda c: c.__name__)
def test_the_generated_init_sets_each_field(cls):
    values = [object() for _ in cls._fields]
    for r in (cls(*values), cls(**dict(zip(cls._fields, values)))):
        assert [getattr(r, f) for f in cls._fields] == values
