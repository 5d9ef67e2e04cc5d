"""Pieces shared by every module: the base of the immutable records, the
three-way comparison result, the lexer both text grammars read, and
``check_nat``, the one integer-argument check."""

from __future__ import annotations

import enum
import operator
import re


class Record:
    """An immutable record.  A subclass names its fields in ``_fields`` (and
    in ``__slots__``) and any trailing defaults in ``_defaults``.  Unless it
    writes its own ``__init__``, it gets one that takes the fields by
    position or keyword and sets each slot through the slot's setter.
    Records are equal when they are of one class with equal fields, hash by
    their fields and print as ``Exact(value=5)``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        fields = cls._fields
        # reads the fields in C, so == and hash cost about what generated methods cost
        cls._values = operator.attrgetter(*fields)
        cls.__match_args__ = fields
        if "_fields" in cls.__dict__ and "__init__" not in cls.__dict__:
            # the slots' own setters: each a third cheaper than object.__setattr__ by name
            setters = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
            body = "".join(f"\n    _set_{f}(self, {f})" for f in fields)
            exec(f"def __init__(self, {', '.join(fields)}):{body}", setters)
            init = setters["__init__"]
            init.__defaults__ = cls._defaults
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        parts = []
        for f in self._fields:  # a loop: a comprehension would add a frame per level of a TRep
            parts.append(f"{f}={getattr(self, f)!r}")
        return f"{type(self).__qualname__}({', '.join(parts)})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Ordering(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1


def check_nat(name: str, v: int, least: int = 0) -> None:
    """Raise ValueError unless v is an int (a bool is not) no smaller than least."""
    # an exact int, the common case, skips both isinstance tests
    if (type(v) is not int and (isinstance(v, bool) or not isinstance(v, int))) or v < least:
        want = {0: "a non-negative integer", 1: "a positive integer"}.get(least, f"an integer >= {least}")
        raise ValueError(f"{name} must be {want}, got {v!r}")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at offset {position}: {message}")
        self.position = position


# a run of ASCII digits (int() alone would also read other scripts' digits),
# the rep grammar's "]_", the ordinal grammar's group opener "w^(" and group
# closer ")*NAT" (each one token, whitespace inside allowed), or any other
# single non-space character
_TOKEN = re.compile(r"\s*(\]_|[0-9]+|w\s*\^\s*\(|\)\s*\*\s*[0-9]+|\S)")


def tokens(text: str) -> list[str]:
    """The tokens of text, whitespace skipped, closed by the end sentinel "".

    Offsets are only needed for errors, so ``offset`` finds them on demand.
    """
    toks = _TOKEN.findall(text)
    toks.append("")
    return toks


def offset(text: str, i: int) -> int:
    """The offset of token i of ``tokens(text)``; the sentinel's is len(text)."""
    for j, m in enumerate(_TOKEN.finditer(text)):
        if j == i:
            return m.start(1)
    return len(text)


def number(text: str, toks: list[str], i: int) -> int:
    """The value of token i if it is a number, else a ParseError at its offset."""
    tok = toks[i]
    if "0" <= tok[:1] <= "9":
        try:
            return int(tok)
        except ValueError:  # past the interpreter's int/str digit limit
            raise ParseError("number too long", offset(text, i)) from None
    raise ParseError("expected a number", offset(text, i))


def nat(text: str) -> int:
    """The whole of text as one number; whitespace around it is allowed."""
    toks = tokens(text)
    value = number(text, toks, 0)
    if toks[1]:
        raise ParseError("trailing input", offset(text, 1))
    return value
