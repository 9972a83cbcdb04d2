"""Parsers for scalar literals, index literals and algebra/module elements.

Scalar grammar: integers, rationals p/q, declared indeterminate names, and
+ - * / ( ) ^ with integer exponents.  Element grammar: terms such as
``L[1,-2]``, ``G[1/2,0]``, ``c``, ``x[0,0]``, ``y[1/2,0]``, optionally
prefixed by a scalar coefficient and ``*``, joined by + or -.  Parsing and
the canonical printers round-trip.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import AlgebraElement, BasisElt, CENTRAL, Kind
from .lattice import AlgebraConfig, Parity
from .repmod import ModuleBasisVector, ModuleSpec, ModuleVector
from .scalar import InputError, ScalarContext, ScalarExpr


class ParseError(InputError):
    """Syntax or parity error, with the offending position."""

    def __init__(self, message, text=None, pos=None):
        if text is not None and pos is not None:
            message = f"{message} (at position {pos} in {text!r})"
        super().__init__(message)
        self.pos = pos


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_']*)|([+\-*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError("unexpected character", text, pos)
            break
        if m.group(1) is not None:
            tokens.append(("num", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _ScalarParser:
    """Recursive descent over the scalar grammar."""

    def __init__(self, ctx: ScalarContext, text: str):
        self.ctx = ctx
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.take()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", self.text, pos)

    def parse(self) -> ScalarExpr:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", self.text, pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "*/":
                self.take()
                rhs = self.factor()
                if op == "/" and rhs.is_zero():
                    raise ParseError("division by zero", self.text, pos)
                value = value * rhs if op == "*" else value / rhs
            else:
                return value

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
            if exponent < 0 and base.is_zero():
                raise ParseError("division by zero", self.text, pos)
            return base ** exponent
        return base

    def exponent(self) -> int:
        kind, value, pos = self.take()
        sign = 1
        if kind == "op" and value == "-":
            sign = -1
            kind, value, pos = self.take()
        if kind != "num":
            raise ParseError("exponents must be integer literals", self.text, pos)
        return sign * value

    def atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            return self.ctx.scalar(value)
        if kind == "name":
            try:
                return self.ctx.var(value)
            except KeyError as exc:
                raise ParseError(exc.args[0], self.text, pos) from None
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, name or parenthesis", self.text, pos)


def parse_scalar(ctx: ScalarContext, text: str) -> ScalarExpr:
    parser = _ScalarParser(ctx, text)
    try:
        return parser.parse()
    except RecursionError:
        pos = parser.tokens[min(parser.i, len(parser.tokens) - 1)][2]
        raise ParseError("expression nested too deeply", text, pos) from None


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


def parse_index(config: AlgebraConfig, text: str, parity: Parity = Parity.EVEN):
    """Index literal ``[m1,m2,...]`` with half-integers written p/2."""
    coords = parse_rational_vector(text)
    try:
        return config.index(coords, parity)
    except InputError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

_GENERATOR_RE = re.compile(r"(?:\b([LGxy])\s*\[([^\[\]]*)\]|\bc\b)\s*\Z")


def _split_terms(text):
    """Split on top-level binary + and -, keeping the sign of each piece.

    A sign is binary only when the previous meaningful character ends an
    expression; otherwise (after an operator or at the start) it is unary
    and stays inside the piece's coefficient.
    """
    segments = []
    depth = 0
    start = 0
    prev = ""
    for i, ch in enumerate(text):
        if ch in "[(":
            depth += 1
            prev = ch
        elif ch in "])":
            depth -= 1
            prev = ch
        elif ch in "+-" and depth == 0 and (prev.isalnum() or (prev and prev in "])'")):
            segments.append((text[start:i], start, ch))
            start = i + 1
            prev = ""
        elif not ch.isspace():
            prev = ch
    segments.append((text[start:], start, None))

    terms = []
    pending_sign = 1
    for seg, offset, sep_after in segments:
        body = seg.strip()
        sign = pending_sign
        while body.startswith(("+", "-")):
            if body[0] == "-":
                sign = -sign
            body = body[1:].lstrip()
        if not body:
            raise ParseError("empty term", text, offset)
        terms.append((sign, body, offset))
        pending_sign = -1 if sep_after == "-" else 1
    return terms


def parse_element(config: AlgebraConfig, text: str, spec: ModuleSpec = None):
    """Parse an algebra element or (when x/y occur) a module vector.

    Module symbols need a ModuleSpec to fix their index parities; mixing
    algebra and module symbols in one expression is an error.  The bare
    literal "0" is the zero element (a module vector when a spec is given).
    """
    ctx = config.ctx
    if text.strip() == "0":
        return ModuleVector({}) if spec is not None else AlgebraElement({})
    algebra_terms = []
    module_terms = []
    for sign, piece, offset in _split_terms(text):
        m = _GENERATOR_RE.search(piece)
        if not m:
            raise ParseError("a term must end with L[...], G[...], x[...], "
                             "y[...] or c", text, offset)
        head = piece[:m.start()].rstrip()
        if head.endswith("*"):
            head = head[:-1]
        if head:
            coeff = parse_scalar(ctx, head)
        else:
            coeff = ctx.one
        if sign < 0:
            coeff = -coeff
        symbol = m.group(1)
        if symbol is None:
            algebra_terms.append((CENTRAL, coeff))
            continue
        coords = tuple(parse_rational(p) for p in _split_top_level(m.group(2)))
        if symbol in "LG":
            parity = Parity.EVEN if symbol == "L" else Parity.ODD
        elif spec is None:
            raise ParseError("module symbols need a module family", text, offset)
        else:
            parity = spec.x_parity if symbol == "x" else spec.y_parity
        try:
            index = config.index(coords, parity)
        except InputError as exc:
            raise ParseError(str(exc), text, offset) from None
        if symbol in "LG":
            algebra_terms.append((BasisElt(Kind(symbol), index), coeff))
        else:
            module_terms.append((ModuleBasisVector(symbol, index), coeff))
    if algebra_terms and module_terms:
        raise ParseError("cannot mix algebra and module symbols", text, 0)
    if module_terms:
        return ModuleVector.from_terms(module_terms)
    return AlgebraElement.from_terms(algebra_terms)
