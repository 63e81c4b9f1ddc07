"""Parser for class expressions over a ring's generators.

Grammar (whitespace insignificant):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := '-'* power
    power    := atom ('^' nat)?
    atom     := rational | identifier | '(' expr ')'
    rational := nat ('/' nat)?

A unary minus binds looser than '^', so -x^2 is -(x^2), as printed.
Parentheses nest at most 100 deep; deeper input is a ParseError.

Identifiers must be generator names of the target ring.  Terms whose degree
exceeds the ring truncation silently vanish, consistent with ring
arithmetic.  The canonical printer on ChowElement produces strings this
parser maps back to the same element.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rings import ChowElement, Ring


class ParseError(ValueError):
    """Syntax or name error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_MAX_DEPTH = 100

_TOKEN = re.compile(
    r"\s*(?:(?P<nat>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        if m.lastgroup is None:
            break
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    # trailing whitespace is fine; anything else is a syntax error
    rest = text[pos:].strip()
    if rest:
        bad = pos + (len(text[pos:]) - len(text[pos:].lstrip()))
        raise ParseError(f"unexpected character {text[bad]!r}", bad)
    return out


class _Parser:
    def __init__(self, text: str, ring: Ring):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}", tok[2])

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] in ops

    # expr := term (('+'|'-') term)*
    def expr(self) -> ChowElement:
        value = self.term()
        while self.at_op("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    # term := factor ('*' factor)*
    def term(self) -> ChowElement:
        value = self.factor()
        while self.at_op("*"):
            self.take()
            value = value * self.factor()
        return value

    # factor := '-'* power;  power := atom ('^' nat)?
    def factor(self) -> ChowElement:
        negate = False
        while self.at_op("-"):
            self.take()
            negate = not negate
        value = self.atom()
        if self.at_op("^"):
            self.take()
            tok = self.take()
            if tok[0] != "nat":
                raise ParseError("expected a non-negative integer exponent", tok[2])
            value = value ** int(tok[1])
        return -value if negate else value

    # atom := rational | identifier | '(' expr ')'
    def atom(self) -> ChowElement:
        tok = self.take()
        kind, text, pos = tok
        if kind == "nat":
            num = int(text)
            den = 1
            if self.at_op("/"):
                self.take()
                dtok = self.take()
                if dtok[0] != "nat":
                    raise ParseError("expected a denominator", dtok[2])
                den = int(dtok[1])
                if den == 0:
                    raise ParseError("zero denominator", dtok[2])
            value = self.ring.const(Fraction(num, den))
        elif kind == "name":
            if text not in self.ring.names:
                raise ParseError(f"unknown generator {text!r}", pos)
            value = self.ring.generator(text)
        elif kind == "op" and text == "(":
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {_MAX_DEPTH}", pos)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
        else:
            raise ParseError(f"unexpected token {text!r}", pos)
        return value


def parse_class_expr(text: str, ring: Ring) -> ChowElement:
    """Parse a class expression into an element of the ring."""
    parser = _Parser(text, ring)
    if parser.peek() is None:
        raise ParseError("empty expression", 0)
    value = parser.expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected token {trailing[1]!r}", trailing[2])
    return value
