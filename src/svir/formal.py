"""Finite formal sums of basis symbols with scalar coefficients."""

from __future__ import annotations

from .scalar import ScalarExpr, signed_sum


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

    Subclasses fix the symbol type and printing; the arithmetic is shared.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    @classmethod
    def from_terms(cls, items):
        return cls(_merge({}, items))

    @classmethod
    def sum(cls, parts):
        """Sum of formal sums; a lone nonzero part is returned as it is."""
        first = terms = None
        for part in parts:
            if not part.terms:
                continue
            if first is None:
                first = part
                continue
            if terms is None:
                terms = dict(first.terms)
            _merge(terms, part.terms.items())
        if terms is not None:
            return cls(terms)
        return cls({}) if first is None else first

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
        return type(self).sum((self, other))

    def __neg__(self):
        return type(self)({sym: -coeff for sym, coeff in self.terms.items()})

    def __sub__(self, other):
        return type(self).sum((self, -other))

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
