"""Pieces shared by the codec and ordinal modules: the three-way comparison
result and the lexer both text grammars read."""

from __future__ import annotations

import enum
import re


class Ordering(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1

    @staticmethod
    def from_cmp(c: int) -> "Ordering":
        if c < 0:
            return Ordering.LT
        if c > 0:
            return Ordering.GT
        return Ordering.EQ


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
        return int(tok)
    raise ParseError("expected a number", offset(text, i))


def nat(text: str) -> int:
    """The whole of text as one number; whitespace around it is allowed."""
    toks = tokens(text)
    value = number(text, toks, 0)
    if toks[1]:
        raise ParseError("trailing input", offset(text, 1))
    return value
