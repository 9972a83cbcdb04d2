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

from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, permutations
from math import prod

from .formal import FormalSum, Symbol, bilinear_terms
from .lattice import EVEN, AlgebraConfig, IndexVector, _Frozen, adapted_cone_basis
from .scalar import InputError, ScalarExpr

CENTRAL = Symbol("c", None)


class AlgebraElement(FormalSum):
    """Finite formal sum of L's, G's and c with scalar coefficients."""

    letters = "LGc"
    noun = "an algebra element"


class SuperVirasoro:
    """Bracket machinery bound to one algebra configuration.

    Basis brackets are cached; all operations are pure.
    """

    def __init__(self, config: AlgebraConfig):
        self.config = config
        self._pair_cache = {}
        self._antisym_cache = {}
        self._two = config.scalar(2)

    # -- element builders ------------------------------------------------------

    def L(self, coords) -> Symbol:
        return Symbol("L", self.config.even(coords))

    def G(self, coords) -> Symbol:
        return Symbol("G", self.config.odd(coords))

    def element(self, x) -> AlgebraElement:
        return AlgebraElement.of(x, self.config.ctx.one)

    # -- the bracket -----------------------------------------------------------

    def bracket_basis(self, x: Symbol, y: Symbol) -> AlgebraElement:
        """Bracket of two basis elements, straight from the defining table."""
        key = (x, y)
        cached = self._pair_cache.get(key)
        if cached is None:
            cached = self._bracket_basis(x, y)
            self._pair_cache[key] = cached
        return cached

    def _bracket_basis(self, x, y):
        cfg = self.config
        if x.letter == "c" or y.letter == "c":
            return AlgebraElement({})
        embed = cfg.embed
        terms = {}
        if x.letter == "L" and y.letter == "L":
            mu, nu = x.index, y.index
            coeff = embed(nu - mu)
            total = mu + nu
            if not coeff.is_zero():
                terms[Symbol("L", total)] = coeff
            if total.is_zero():
                e = embed(mu)
                central = -(e ** 3 - e) * Fraction(1, 12)
                if not central.is_zero():
                    terms[CENTRAL] = central
        elif x.letter == "L" and y.letter == "G":
            mu, eta = x.index, y.index
            coeff = cfg.embed_plus_half(eta, -mu)
            if not coeff.is_zero():
                terms[Symbol("G", mu + eta)] = coeff
        elif x.letter == "G" and y.letter == "L":
            eta, mu = x.index, y.index
            coeff = cfg.embed_plus_half(-eta, mu)
            if not coeff.is_zero():
                terms[Symbol("G", mu + eta)] = coeff
        else:
            eta, lam = x.index, y.index
            total = eta + lam
            terms[Symbol("L", total)] = self._two
            if total.is_zero():
                e = embed(eta)
                central = -(e ** 2 - Fraction(1, 4)) * Fraction(1, 3)
                if not central.is_zero():
                    terms[CENTRAL] = central
        return AlgebraElement(terms)

    def bracket(self, x, y) -> AlgebraElement:
        """Bilinear extension of the basis bracket."""
        if AlgebraElement.owns(x) and AlgebraElement.owns(y):
            return self.bracket_basis(x, y)
        return AlgebraElement.bilinear(self.element(x), self.element(y),
                                       self.bracket_basis)

    # -- identity checks ---------------------------------------------------------

    def super_jacobi_residual(self, x, y, z) -> AlgebraElement:
        """Residual of the graded Leibniz identity on a homogeneous triple.

        Returns J(x,y,z) = [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]];
        zero certifies the identity on that triple.  With e = (-1)^{|x||y|},
        if [y,x] = -e [x,y] then, by bilinearity and e^2 = 1,
            J(y,x,z) = [y,[x,z]] - [[y,x],z] - e [x,[y,z]]
                     = [y,[x,z]] + e [[x,y],z] - e [x,[y,z]] = -e J(x,y,z).
        """
        one = self.config.ctx.one
        xs, px = AlgebraElement.homogeneous(x, one)
        ys, py = AlgebraElement.homogeneous(y, one)
        zs, pz = AlgebraElement.homogeneous(z, one)
        if px is None or py is None or pz is None:
            raise InputError("the Jacobi residual needs homogeneous inputs")
        yz, xy, xz = self.bracket(y, z), self.bracket(x, y), self.bracket(x, z)
        bb = self.bracket_basis
        return AlgebraElement.from_terms(chain(
            bilinear_terms(xs, yz.items(), bb),
            bilinear_terms(xy.items(), zs, bb, negate=True),
            bilinear_terms(ys, xz.items(), bb, negate=not (px and py))))

    def antisymmetric(self, x: Symbol, y: Symbol) -> bool:
        """Whether [y,x] = -(-1)^{|x||y|} [x,y] holds exactly, memoized.  The
        condition is symmetric in x and y, since (-1)^{|x||y|} squares to 1."""
        held = self._antisym_cache.get((x, y))
        if held is None:
            xy = self.bracket_basis(x, y)
            held = self.bracket_basis(y, x) == (xy if x.parity and y.parity else -xy)
            self._antisym_cache[x, y] = self._antisym_cache[y, x] = held
        return held

    def twin_failures(self, residual, elems, thirds):
        """The nonzero residual(x, y, t) over x, y in elems and t in thirds,
        as (x, y, t, residual) in itertools.product order.

        residual is super_jacobi_residual or a module's rep_residual: both
        satisfy residual(y, x, t) = -(-1)^{|x||y|} residual(x, y, t) for
        every t once [y,x] = -(-1)^{|x||y|} [x,y] (see their docstrings).
        So residual runs on the pairs with x at or before y in elems; the
        swap of such a pair is derived when that bracket identity holds
        exactly for the pair, and computed directly when it does not.
        """
        derived = {}  # (i, j) -> failures of (elems[i], elems[j]), from (j, i)
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                found = derived.pop((i, j), None)
                if found is None:
                    found = [(t, r) for t in thirds
                             if not (r := residual(x, y, t)).is_zero()]
                    if i < j and self.antisymmetric(x, y):
                        odd = x.parity and y.parity
                        derived[j, i] = [(t, r if odd else -r) for t, r in found]
                for t, r in found:
                    yield x, y, t, r

    def jacobi_failures(self, elems):
        """The nonzero super_jacobi_residual(x, y, z) over elems^3, as a list
        of (x, y, z, residual) in itertools.product order, computed once per
        multiset {x, y, z} of a closed triple.

        Write e_ab = (-1)^{|a||b|} and A(a,b) for [b,a] = -e_ab [a,b].  Given
        A(x,y), J(y,x,z) = -e_xy J(x,y,z) (see super_jacobi_residual).  Given
        A(y,z), A(s,y) for s in supp [x,z] of parity |x|+|z|, and A(z,s) for
        s in supp [x,y] of parity |x|+|y|, bilinearity gives
            [x,[z,y]] = -e_yz [x,[y,z]],   [[x,z],y] = -e_xy e_yz [y,[x,z]],
            [z,[x,y]] = -e_xz e_yz [[x,y],z],
        so J(x,z,y) = [x,[z,y]] - [[x,z],y] - e_xz [z,[x,y]] = -e_yz J(x,y,z).
        A triple is closed when A holds on its three pairs and on every
        (s, w) with s in the support of the bracket of two of them, of their
        parity sum, and w the third.  Closure is symmetric in the triple (A
        is symmetric, and A(a,b) gives [a,b] and [b,a] one support), so on a
        closed triple each swap of adjacent arguments u, v multiplies J
        by -e_uv, and an ordering's sign is the product of -e_uv over its
        pairs out of elems order.  Every ordering of a triple that is not
        closed is computed directly.
        """
        residual = self.super_jacobi_residual
        failures = []  # (positions in elems, x, y, z, residual)
        for triple in combinations_with_replacement(enumerate(elems), 3):
            (_, x), (_, y), (_, z) = triple
            r = residual(x, y, z)
            closed = self._closed(x, y, z)
            if closed and r.is_zero():
                continue
            for order in dict.fromkeys(permutations(triple)):  # each ordering once
                (i, u), (j, v), (k, w) = order
                if not closed and order != triple:
                    out = residual(u, v, w)
                elif sum(p > q and not (a.parity and b.parity)
                         for (p, a), (q, b) in combinations(order, 2)) % 2:
                    out = -r
                else:
                    out = r
                if not out.is_zero():
                    failures.append(((i, j, k), u, v, w, out))
        failures.sort(key=lambda f: f[0])
        return [f[1:] for f in failures]

    def _closed(self, x, y, z):
        """Whether the triple is closed, as jacobi_failures defines it."""
        anti, bb = self.antisymmetric, self.bracket_basis
        for a, b, w in ((x, y, z), (x, z, y), (y, z, x)):
            if not anti(a, b):
                return False
            parity = a.parity ^ b.parity
            for s in bb(a, b).terms:
                if s.parity != parity or not anti(s, w):
                    return False
        return True

    def ladder_checks(self, d: IndexVector, mu: IndexVector, m: int):
        """Whether the ad-ladder identities hold, for each step 1..m in turn.

        Iterating ad L_d from L_mu multiplies by (mu + i*d) for
        i = -1..k-2 to reach L_{mu+k*d}; from G_{sigma+mu} it multiplies by
        (sigma + mu + (i + 1/2)*d) over the same range to reach
        G_{sigma+mu+k*d}.  Step k is true when _ad_steps certifies both.
        The identities are exact, c included: a step that brackets L_nu with
        nu + d = 0 fails on the central term of [L_d, L_nu], and the next
        step passes again, since [L_d, c] = 0.
        """
        if m < 1:
            raise InputError("m must be positive")
        if d.parity != EVEN:
            raise InputError("the ladder steps by an even index")
        if mu.parity != EVEN:
            raise InputError("mu must be an even index")
        cfg = self.config
        e_d, e_mu = cfg.embed(d), cfg.embed(mu)
        eta0 = cfg.sigma_index + mu
        e_eta0 = cfg.embed(eta0)
        l_d = Symbol("L", d)
        steps = range(-1, m - 1)
        message = "a ladder factor vanishes for this degenerate specialization"
        chains = zip(
            self._ad_steps(l_d, Symbol("L", mu), (e_mu + e_d * i for i in steps), message),
            self._ad_steps(l_d, Symbol("G", eta0),
                           (e_eta0 + e_d * Fraction(2 * i + 1, 2) for i in steps), message))
        next(chains)  # step 0: the starting generators
        for (_, ok_l), (_, ok_g) in chains:
            yield ok_l and ok_g

    def _ad_steps(self, x, start, factors, message):
        """Yield (S_t, whether ad_x^t start = (f_1...f_t) S_t) for t = 0..len(factors),
        from one basis bracket per step.  A vanishing f_t is an InputError(message).

        S_0 = start; S_t has S_{t-1}'s letter at index x + S_{t-1}.  Step t holds
        when [x, S_{t-1}] = f_t S_t, and holds modulo c when the two sides differ
        at most in the c term.  If steps 1..k-1 hold modulo c, every f_t is
        nonzero and [x, c] = 0, then ad_x^k start = (f_1...f_{k-1}) [x, S_{k-1}]:
        trivially for k = 1, and for k > 1 the claim at k - 1 with step k - 1
        gives ad_x^{k-1} start = (f_1...f_{k-1}) S_{k-1} + z c, whose bracket
        with x drops z c.  The product is nonzero, so the identity at k holds
        exactly when step k does.  [x, c] = 0 is read from the table once a step
        leaves a c term.  A chain meets each pair once, so brackets skip the memo.
        """
        held, symbol = True, start  # held: the claim above applies to the next step
        yield start, True
        for f in factors:
            if f.is_zero():
                raise InputError(message)
            image = self._bracket_basis(x, symbol)
            symbol = Symbol(symbol.letter, x.index + symbol.index)
            central = CENTRAL in image.terms
            ok = held and {s: v for s, v in image.items() if s is not CENTRAL} == {symbol: f}
            yield symbol, ok and not central
            held = ok and (not central or self._bracket_basis(x, CENTRAL).is_zero())

    # -- adapted-basis bracket witnesses ---------------------------------------

    def bracket_generation_witness(self, mu: IndexVector):
        """Certify that every adapted-basis generator is bracket-reachable.

        For the basis returned by adapted_cone_basis(mu), each row d'_i is
        produced from a generator whose index differs from mu by a vector
        with coordinates in {-1, 0, 1}, by applying ad L_mu a recorded
        number of times; _ad_steps certifies the result as the product of
        the step factors (the empty product is 1) times the row's generator.
        Returns (adapted basis, one WitnessEntry per row, verdict).
        """
        cfg = self.config
        adapted = adapted_cone_basis(mu)
        e_mu = cfg.embed(mu)
        l_mu = Symbol("L", mu)
        entries = []
        for row, (step, copies) in enumerate(adapted.chains):
            start, e_step = mu + step, cfg.embed(step)
            factors = [e_mu * t + e_step for t in range(copies)]
            *_, (last, held) = self._ad_steps(l_mu, Symbol("L", start), factors,
                                              "a witness product factor vanished")
            product = prod(factors, start=cfg.ctx.one)
            bracket_ok = held and last == Symbol("L", adapted.basis.row_vector(row))
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
