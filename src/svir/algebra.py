"""The rank-n super-Virasoro algebra: graded bracket and identity checks.

The even part is spanned by L_mu (mu in the integer lattice) and a central
element c; the odd part by G_eta (eta on the half-integer coset).  The
defining bracket is

    [L_mu, L_nu]   = (nu - mu) L_{mu+nu} - delta_{mu+nu,0} (1/12)(mu^3 - mu) c
    [L_mu, G_eta]  = (eta - mu/2) G_{mu+eta}
    [G_eta, G_lam] = 2 L_{eta+lam} - delta_{eta+lam,0} (1/3)(eta^2 - 1/4) c
    [x, c]         = 0

where an index in a scalar position means its embedding into the scalar
field and the Kronecker delta is decided exactly on coordinate vectors.
The [G, L] bracket follows from graded antisymmetry, and the graded Jacobi
identity is checked in Leibniz form.  If a bracket table is inconsistent,
the residual is reported verbatim; signs are never adjusted silently.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain

from .formal import FormalSum, bilinear_terms
from .lattice import (AlgebraConfig, IndexVector, Parity, _Frozen, _Interned,
                      adapted_cone_basis)
from .scalar import InputError, ScalarExpr


class Kind(Enum):
    L = "L"
    G = "G"
    C = "c"


_KIND_RANK = {Kind.L: 0, Kind.G: 1, Kind.C: 2}


_BASIS = {}   # (kind.value, index) -> BasisElt


class BasisElt(_Interned):
    """L_mu, G_eta or the central element c.  Interned: one object per value."""

    __slots__ = ("kind", "index")

    def __new__(cls, kind, index):
        key = (kind._value_, index)
        self = _BASIS.get(key)
        if self is None:
            if kind is Kind.C:
                if index is not None:
                    raise InputError("the central element carries no index")
            elif kind is Kind.L:
                if index is None or index.parity is not Parity.EVEN:
                    raise InputError("L requires an even index")
            else:
                if index is None or index.parity is not Parity.ODD:
                    raise InputError("G requires an odd index")
            self = cls._intern(_BASIS, key, kind, index)
        return self

    @property
    def parity(self) -> int:
        return 1 if self.kind is Kind.G else 0

    def sort_key(self):
        return (_KIND_RANK[self.kind],
                self.index.twice if self.index is not None else ())

    def __str__(self):
        if self.kind is Kind.C:
            return "c"
        return f"{self.kind.value}{self.index}"


CENTRAL = BasisElt(Kind.C, None)


class AlgebraElement(FormalSum):
    """Finite formal sum of basis elements with scalar coefficients."""

    def parity(self):
        """0 or 1 for homogeneous elements (zero counts as even), else None."""
        parities = {sym.parity for sym in self.terms}
        if not parities:
            return 0
        if len(parities) > 1:
            return None
        return parities.pop()


class SuperVirasoro:
    """Bracket machinery bound to one algebra configuration.

    Basis brackets are cached; all operations are pure.
    """

    def __init__(self, config: AlgebraConfig):
        self.config = config
        self._pair_cache = {}

    # -- element builders ------------------------------------------------------

    def L(self, coords) -> BasisElt:
        return BasisElt(Kind.L, self.config.even(coords))

    def G(self, coords) -> BasisElt:
        return BasisElt(Kind.G, self.config.odd(coords))

    def element(self, x) -> AlgebraElement:
        if isinstance(x, AlgebraElement):
            return x
        if isinstance(x, BasisElt):
            return AlgebraElement({x: self.config.ctx.one})
        raise TypeError(f"cannot coerce {x!r} to an algebra element")

    def homogeneous_terms(self, x):
        """(terms of x, parity of x) without wrapping a basis element; the
        parity is None when x mixes parities."""
        if isinstance(x, BasisElt):
            return ((x, self.config.ctx.one),), x.parity
        x = self.element(x)
        return x.items(), x.parity()

    # -- the bracket -----------------------------------------------------------

    def bracket_basis(self, x: BasisElt, y: BasisElt) -> AlgebraElement:
        """Bracket of two basis elements, straight from the defining table."""
        key = (x, y)
        cached = self._pair_cache.get(key)
        if cached is None:
            cached = self._bracket_basis(x, y)
            self._pair_cache[key] = cached
        return cached

    def _bracket_basis(self, x, y):
        cfg = self.config
        if x.kind is Kind.C or y.kind is Kind.C:
            return AlgebraElement({})
        embed = cfg.embed
        terms = {}
        if x.kind is Kind.L and y.kind is Kind.L:
            mu, nu = x.index, y.index
            coeff = embed(nu) - embed(mu)
            total = mu + nu
            if not coeff.is_zero():
                terms[BasisElt(Kind.L, total)] = coeff
            if total.is_zero():
                e = embed(mu)
                central = -(e ** 3 - e) * Fraction(1, 12)
                if not central.is_zero():
                    terms[CENTRAL] = central
        elif x.kind is Kind.L and y.kind is Kind.G:
            mu, eta = x.index, y.index
            coeff = embed(eta) - embed(mu) * Fraction(1, 2)
            if not coeff.is_zero():
                terms[BasisElt(Kind.G, mu + eta)] = coeff
        elif x.kind is Kind.G and y.kind is Kind.L:
            eta, mu = x.index, y.index
            coeff = embed(mu) * Fraction(1, 2) - embed(eta)
            if not coeff.is_zero():
                terms[BasisElt(Kind.G, mu + eta)] = coeff
        else:
            eta, lam = x.index, y.index
            total = eta + lam
            terms[BasisElt(Kind.L, total)] = cfg.scalar(2)
            if total.is_zero():
                e = embed(eta)
                central = -(e ** 2 - Fraction(1, 4)) * Fraction(1, 3)
                if not central.is_zero():
                    terms[CENTRAL] = central
        return AlgebraElement(terms)

    def bracket(self, x, y) -> AlgebraElement:
        """Bilinear extension of the basis bracket."""
        if isinstance(x, BasisElt) and isinstance(y, BasisElt):
            return self.bracket_basis(x, y)
        return AlgebraElement.bilinear(self.element(x), self.element(y),
                                       self.bracket_basis)

    # -- identity checks ---------------------------------------------------------

    def super_jacobi_residual(self, x, y, z) -> AlgebraElement:
        """Residual of the graded Leibniz identity on a homogeneous triple.

        Returns [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]]; zero
        certifies the identity on that triple.
        """
        xs, px = self.homogeneous_terms(x)
        ys, py = self.homogeneous_terms(y)
        zs, pz = self.homogeneous_terms(z)
        if px is None or py is None or pz is None:
            raise InputError("the Jacobi residual needs homogeneous inputs")
        yz, xy, xz = self.bracket(y, z), self.bracket(x, y), self.bracket(x, z)
        bb = self.bracket_basis
        return AlgebraElement.from_terms(chain(
            bilinear_terms(xs, yz.items(), bb),
            bilinear_terms(xy.items(), zs, bb, negate=True),
            bilinear_terms(ys, xz.items(), bb, negate=not (px and py))))

    def ad_power(self, x, m: int, y) -> AlgebraElement:
        """m-fold left bracket with x; m = 0 returns y unchanged."""
        if m < 0:
            raise InputError("ad power needs a nonnegative exponent")
        out = self.element(y)
        for _ in range(m):
            out = self.bracket(x, out)
        return out

    def ladder_identity_check(self, d: IndexVector, mu: IndexVector, m: int) -> bool:
        """Check the ad-ladder identities reaching L_{mu+m*d} and G_{sigma+mu+m*d}.

        Iterating ad L_d from L_mu multiplies by (mu + i*d) for
        i = -1..m-2; from G_{sigma+mu} it multiplies by
        (sigma + mu + (i + 1/2)*d) over the same range.  True exactly when
        both recovered generators match after dividing out the products.
        """
        if m < 1:
            raise InputError("m must be positive")
        if d.parity is not Parity.EVEN:
            raise InputError("the ladder steps by an even index")
        if mu.parity is not Parity.EVEN:
            raise InputError("mu must be an even index")
        cfg = self.config
        e_d = cfg.embed(d)
        eta0 = cfg.sigma_index + mu
        l_d = BasisElt(Kind.L, d)
        steps = range(-1, m - 1)
        message = "a ladder factor vanishes for this degenerate specialization"
        _, ok_l = self._scaled_power_check(
            l_d, BasisElt(Kind.L, mu), BasisElt(Kind.L, mu + d.scale(m)),
            [cfg.embed(mu) + e_d * i for i in steps], message)
        _, ok_g = self._scaled_power_check(
            l_d, BasisElt(Kind.G, eta0), BasisElt(Kind.G, eta0 + d.scale(m)),
            [cfg.embed(eta0) + e_d * Fraction(2 * i + 1, 2) for i in steps], message)
        return ok_l and ok_g

    def _scaled_power_check(self, x, start, target, factors, message):
        """(product of factors, whether ad_x^len(factors) start equals target
        times that product).  A vanishing factor is an InputError(message)."""
        product = self.config.ctx.one
        for f in factors:
            if f.is_zero():
                raise InputError(message)
            product = product * f
        got = self.ad_power(x, len(factors), start)
        return product, got == self.element(target).scale(product)

    # -- adapted-basis bracket witnesses ---------------------------------------

    def bracket_generation_witness(self, mu: IndexVector):
        """Certify that every adapted-basis generator is bracket-reachable.

        For the basis returned by adapted_cone_basis(mu), each row d'_i is
        produced from a generator whose index differs from mu by a vector
        with coordinates in {-1, 0, 1}, by applying ad L_mu a recorded
        number of times; the resulting scalar is compared exactly with the
        product of the step factors (the empty product is 1).  Returns
        (adapted basis, one WitnessEntry per row, verdict).
        """
        cfg = self.config
        adapted = adapted_cone_basis(mu)
        e_mu = cfg.embed(mu)
        l_mu = BasisElt(Kind.L, mu)
        entries = []
        for row, (step, copies) in enumerate(adapted.chains):
            start = mu + step
            e_step = cfg.embed(step)
            product, bracket_ok = self._scaled_power_check(
                l_mu, BasisElt(Kind.L, start), BasisElt(Kind.L, adapted.basis.row_vector(row)),
                [e_mu * t + e_step for t in range(copies)],
                "a witness product factor vanished")
            in_a = all(abs(t) <= 2 for t in step.twice)
            entries.append(WitnessEntry(row, start, copies, product, step, in_a, bracket_ok))
        ok = all(e.step_in_neighborhood and e.bracket_ok for e in entries)
        return adapted, tuple(entries), ok


class WitnessEntry(_Frozen):
    """One adapted-basis row reached from L_start by copies ad L_mu steps."""

    __slots__ = ("row", "start", "copies", "product", "step", "step_in_neighborhood",
                 "bracket_ok")

    def __init__(self, row: int, start: IndexVector, copies: int, product: ScalarExpr,
                 step: IndexVector, step_in_neighborhood: bool, bracket_ok: bool):
        self._set(row, start, copies, product, step, step_in_neighborhood, bracket_ok)
