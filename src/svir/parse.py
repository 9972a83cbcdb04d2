"""Parsers for scalar literals, index literals and algebra/module elements.

One grammar reads scalars and elements.  Scalars: integers, rationals p/q,
declared indeterminate names, and + - * / ( ) ^ with integer exponents of
magnitude at most MAX_EXPONENT.  Elements add the atoms ``L[1,-2]``,
``G[1/2,0]``, ``x[0,0]``, ``y[1/2,0]`` and ``c`` (the central element
wherever a ``c`` ends its term), each with coefficient 1.  A scalar
multiplies an element from the left, with ``*`` or by juxtaposition
(``2 L[1,0]``); + and - join two elements of one kind, and unary - negates.
Every ParseError names an offset into the whole literal.  Parsing and the
canonical printers round-trip.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import AlgebraElement, CENTRAL
from .formal import Symbol
from .lattice import EVEN, ODD, AlgebraConfig
from .repmod import Family, ModuleVector
from .scalar import InputError, ScalarContext, ScalarExpr


class ParseError(InputError):
    """Syntax or parity error, with the offending position."""

    def __init__(self, message, text=None, pos=None):
        if text is not None and pos is not None:
            message = f"{message} (at position {pos} in {text!r})"
        super().__init__(message)
        self.pos = pos


# the largest |exponent| a literal may write; a larger power is refused, not computed
MAX_EXPONENT = 1000

# a letter token must start at a word boundary, so "2L[1,0]" and "2c" are errors
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|\b(?:([LGxy])\s*\[([^\[\]]*)\]"
                       r"|([A-Za-z][A-Za-z0-9_']*))|([+\-*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError("unexpected character", text, len(text) - len(rest))
            break
        num, symbol, body, name, op = m.groups()
        if num is not None:
            try:
                value = int(num)
            except ValueError:  # past the interpreter's int-string digit limit
                raise ParseError("integer literal has too many digits",
                                 text, m.start(1)) from None
            tokens.append(("num", value, m.start(1)))
        elif symbol is not None:
            tokens.append(("symbol", (symbol, body), m.start(2)))
        elif name is not None:
            tokens.append(("name", name, m.start(4)))
        else:
            tokens.append(("op", op, m.start(5)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _kind(value):
    return "a scalar" if isinstance(value, ScalarExpr) else value.noun


class _Parser:
    """Recursive descent over the literal grammar.

    Without a config it reads scalars only.  With one, values are scalars,
    algebra elements or module vectors, and each operator checks the kinds
    it combines.
    """

    def __init__(self, ctx: ScalarContext, text: str, config=None, family=None):
        self.ctx = ctx
        self.text = text
        self.config = config
        self.family = family
        self.tokens = _tokenize(text)
        self.i = 0

    def error(self, message, pos):
        return ParseError(message, self.text, pos)

    def mismatch(self, op, pos, *values):
        kinds = " and ".join(_kind(v) for v in values)
        return self.error(f"cannot apply {op!r} to {kinds}", pos)

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.take()
        if kind != "op" or value != symbol:
            raise self.error(f"expected {symbol!r}", pos)

    def element_next(self):
        """Is the next token an element atom: a generator, or a c ending its term?"""
        kind, value, _ = self.peek()
        if self.config is None:
            return False
        if kind != "name" or value != "c":
            return kind == "symbol"
        after, op, _ = self.tokens[self.i + 1]
        return after == "end" or (after == "op" and op in "+-)")

    def parse(self):
        try:
            value = self.expr()
        except RecursionError:
            pos = self.tokens[min(self.i, len(self.tokens) - 1)][2]
            raise self.error("expression nested too deeply", pos) from None
        kind, _, pos = self.peek()
        if kind != "end":
            raise self.error("trailing input", pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, op, pos = self.peek()
            if kind != "op" or op not in "+-":
                return value
            self.take()
            rhs = self.term()
            if type(rhs) is not type(value):
                raise self.mismatch(op, pos, value, rhs)
            value = value + rhs if op == "+" else value - rhs

    def term(self):
        value = self.factor()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "*/":
                self.take()
            elif self.element_next():
                op = "*"  # juxtaposition, as in "2 L[1,0]"
            else:
                return value
            rhs = self.factor()
            if not isinstance(value, ScalarExpr) or (
                    op == "/" and not isinstance(rhs, ScalarExpr)):
                raise self.mismatch(op, pos, value, rhs)
            if op == "/":
                if rhs.is_zero():
                    raise self.error("division by zero", pos)
                value = value / rhs
            elif isinstance(rhs, ScalarExpr):
                value = value * rhs
            else:
                value = rhs.scale(value)

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return -self.factor()
        if kind == "op" and value == "+":
            self.take()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.take()
            exponent = self.exponent()
            if not isinstance(base, ScalarExpr):
                raise self.mismatch("^", pos, base)
            if exponent < 0 and base.is_zero():
                raise self.error("division by zero", pos)
            return base ** exponent
        return base

    def exponent(self) -> int:
        kind, value, pos = self.take()
        start, sign = pos, 1
        if kind == "op" and value == "-":
            sign = -1
            kind, value, pos = self.take()
        if kind != "num":
            raise self.error("exponents must be integer literals", pos)
        if value > MAX_EXPONENT:
            raise self.error(f"exponents must be at most {MAX_EXPONENT} in magnitude", start)
        return sign * value

    def atom(self):
        if self.element_next():
            return self.element()
        kind, value, pos = self.take()
        if kind == "num":
            return self.ctx.scalar(value)
        if kind == "name":
            try:
                return self.ctx.var(value)
            except KeyError as exc:
                raise self.error(exc.args[0], pos) from None
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise self.error("expected a number, name or parenthesis", pos)

    def element(self):
        kind, value, pos = self.take()
        one = self.ctx.one
        if kind == "name":
            return AlgebraElement({CENTRAL: one})
        letter, body = value
        if letter in AlgebraElement.letters:
            cls, parity = AlgebraElement, EVEN if letter == "L" else ODD
        elif self.family is None:
            raise self.error("module symbols need a module family", pos)
        else:
            cls, parity = ModuleVector, self.family.parity(letter)
        try:
            index = self.config.index([parse_rational(p) for p in body.split(",")], parity)
        except InputError as exc:
            raise self.error(str(exc), pos) from None
        return cls({Symbol(letter, index): one})


def parse_scalar(ctx: ScalarContext, text: str) -> ScalarExpr:
    return _Parser(ctx, text).parse()


def parse_element(config: AlgebraConfig, text: str, family: Family = None):
    """Parse an algebra element or (when x/y occur) a module vector.

    Module symbols need a Family to fix their index parities; mixing
    algebra and module symbols in one expression is an error.  The bare
    literal "0" is the zero element (a module vector when a family is given).
    """
    if text.strip() == "0":
        return ModuleVector({}) if family is not None else AlgebraElement({})
    parser = _Parser(config.ctx, text, config, family)
    value = parser.parse()
    if isinstance(value, ScalarExpr):
        raise ParseError("expected an element: L[...], G[...], x[...], y[...] or c",
                         text, parser.tokens[0][2])
    return value


# ---------------------------------------------------------------------------
# Rational vector and matrix literals
# ---------------------------------------------------------------------------

def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None


def _split_top_level(text, sep=","):
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_rational_vector(text: str):
    """Literal like ``[1,-2,1/2]``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected a bracketed vector, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    return tuple(parse_rational(p) for p in _split_top_level(body))


def parse_rational_matrix(text: str):
    """Literal like ``[[1,0],[0,1]]``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected a bracketed matrix, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    return tuple(parse_rational_vector(p.strip()) for p in _split_top_level(body))


def parse_index(config: AlgebraConfig, text: str, parity: int = EVEN):
    """Index literal ``[m1,m2,...]`` with half-integers written p/2."""
    coords = parse_rational_vector(text)
    try:
        return config.index(coords, parity)
    except InputError as exc:
        raise ParseError(str(exc)) from None
