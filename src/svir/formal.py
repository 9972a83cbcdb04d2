"""Basis symbols, and finite formal sums of them with scalar coefficients."""

from __future__ import annotations

from itertools import chain

from .lattice import EVEN, ODD, _Interned
from .scalar import InputError, ScalarExpr, signed_sum

# every basis symbol's letter, in the order the reports sort them
LETTERS = "LGcxy"

_SYMBOLS = {}   # (letter, index) -> Symbol


class Symbol(_Interned):
    """A basis symbol: L, G, x or y with its index, or the central element c
    (index None).  Its parity is its index's bit, and c is even.  Interned:
    one object per value."""

    __slots__ = ("letter", "index", "parity")

    def __new__(cls, letter, index):
        key = (letter, index)
        self = _SYMBOLS.get(key)
        if self is None:
            if letter == "c":
                if index is not None:
                    raise InputError("the central element carries no index")
            elif letter == "L":
                if index is None or index.parity != EVEN:
                    raise InputError("L requires an even index")
            elif letter == "G":
                if index is None or index.parity != ODD:
                    raise InputError("G requires an odd index")
            elif letter not in ("x", "y"):
                raise InputError("module basis symbols are x and y")
            parity = EVEN if index is None else index.parity
            self = cls._intern(_SYMBOLS, key, letter, index, parity)
        return self

    def sort_key(self):
        return (LETTERS.index(self.letter), () if self.index is None else self.index.twice)

    def __str__(self):
        return self.letter if self.index is None else f"{self.letter}{self.index}"


def _merge(terms, items):
    """Add (symbol, coefficient) items into terms in place; drop zeros."""
    for sym, coeff in items:
        if sym in terms:
            coeff = terms[sym] + coeff
        if coeff.is_zero():
            terms.pop(sym, None)
        else:
            terms[sym] = coeff
    return terms


def bilinear_terms(xs, ys, basis_map, negate=False):
    """The (symbol, coefficient) items of the bilinear extension of basis_map
    to the term lists xs and ys, negated when negate is set; from_terms
    sums them."""
    for bx, cx in xs:
        for by, cy in ys:
            k = cx * cy
            for sym, c in basis_map(bx, by).items():
                c = c * k
                yield sym, -c if negate else c


class FormalSum:
    """Immutable linear combination: basis symbol -> nonzero ScalarExpr.

    Subclasses set ``letters``, the letters of their symbols, and ``noun``,
    what the messages call them; the arithmetic is shared.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    @classmethod
    def from_terms(cls, items):
        return cls(_merge({}, items))

    @classmethod
    def owns(cls, x):
        """Is x a bare symbol with one of this class's letters?"""
        return type(x) is Symbol and x.letter in cls.letters

    @classmethod
    def of(cls, x, one):
        """x itself, or a symbol of this class with coefficient one; anything
        else is a TypeError."""
        if isinstance(x, cls):
            return x
        if cls.owns(x):
            return cls({x: one})
        raise TypeError(f"cannot coerce {x!r} to {cls.noun}")

    @classmethod
    def homogeneous(cls, x, one):
        """(terms of x, parity of x) without wrapping a symbol, coerced as by
        of; the parity is None when x mixes parities, and zero is even."""
        if cls.owns(x):
            return ((x, one),), x.parity
        terms = cls.of(x, one).terms
        parities = {sym.parity for sym in terms}
        if len(parities) > 1:
            return terms.items(), None
        return terms.items(), parities.pop() if parities else EVEN

    @classmethod
    def bilinear(cls, x, y, basis_map):
        """Bilinear extension of basis_map(symbol of x, symbol of y)."""
        return cls.from_terms(bilinear_terms(x.items(), y.items(), basis_map))

    def is_zero(self):
        return not self.terms

    def items(self):
        return self.terms.items()

    def coefficient(self, sym, default=None):
        return self.terms.get(sym, default)

    def __add__(self, other):
        return type(self).from_terms(chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return type(self)({sym: -coeff for sym, coeff in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff: ScalarExpr):
        if coeff.is_zero():
            return type(self)({})
        if coeff is coeff.ctx.one:
            return self
        return type(self)({sym: c * coeff for sym, c in self.terms.items()})

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self):
        if not self.terms:
            return "0"
        rendered = []
        for sym, coeff in self._sorted_terms():
            if coeff.den == coeff.ctx._poly_one and len(coeff.num.terms) == 1:
                negative = coeff.num.leading_coeff() < 0
                mag = -coeff if negative else coeff
                rendered.append(("-" if negative else "+",
                                 str(sym) if mag.is_one() else f"{mag}*{sym}"))
            else:
                rendered.append(("+", f"({coeff})*{sym}"))
        return signed_sum(rendered)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"
