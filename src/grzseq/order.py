"""Pieces shared by the codec and ordinal modules: the three-way comparison
result and the scanner both text grammars are parsed with."""

from __future__ import annotations

import enum


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


class Scanner:
    """A cursor over text that skips whitespace before every token."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, lit: str) -> bool:
        """Consume lit if it comes next; report whether it did."""
        self._skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str) -> None:
        if not self.take(lit):
            raise ParseError(f"expected {lit!r}", self.pos)

    def nat(self) -> int:
        """A run of ASCII digits; int() alone would also read other scripts' digits."""
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start : self.pos])

    def end(self) -> None:
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)

    def parse(self, rule):
        """Run a grammar rule over the whole text.

        The grammars recurse once per level of nesting, so input nested
        deeper than the interpreter's recursion limit is rejected with a
        ParseError rather than a RecursionError.
        """
        try:
            out = rule(self)
        except RecursionError:
            raise ParseError("nesting too deep", self.pos) from None
        self.end()
        return out
