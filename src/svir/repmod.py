"""The three intermediate-series module families and desk-scale probes.

Families SA_{a,b}, SA_{a'} and SB_{a'} all have one-dimensional weight
spaces.  SA and SA' carry x over the integer lattice and y over the
half-integer coset; SB' swaps the two.  The central element acts as zero
everywhere.  The action tables, including every special case at index 0,
-mu and -lambda, are:

    SA_{a,b}:  L_mu x_nu  = (a + nu + mu*b) x_{mu+nu}
               L_mu y_eta = (a + eta + mu*(b - 1/2)) y_{mu+eta}
               G_lam x_nu  = y_{lam+nu}
               G_lam y_eta = (a + eta + 2*lam*(b - 1/2)) x_{lam+eta}

    SA_{a'}:   L_mu x_nu = (nu + mu) x_{mu+nu}       (nu != 0)
               L_mu x_0  = mu*(mu + a') x_mu
               L_mu y_eta = (eta + mu/2) y_{mu+eta}
               G_lam x_nu = y_{lam+nu}               (nu != 0)
               G_lam x_0  = (2*lam + a') y_lam
               G_lam y_eta = (eta + lam) x_{lam+eta}

    SB_{a'}:   L_mu x_eta = (eta + mu/2) x_{mu+eta}
               L_mu y_nu  = nu y_{mu+nu}             (nu != -mu)
               L_mu y_{-mu} = -mu*(mu + a') y_0
               G_lam x_eta = y_{lam+eta}             (eta != -lam)
               G_lam x_{-lam} = (2*lam + a') y_0
               G_lam y_nu = nu x_{lam+nu}

Closure, simplicity and highest-weight probes work inside a truncation box
and are reported as box-level evidence only, never as proofs.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain

from .algebra import AlgebraElement, SuperVirasoro
from .formal import FormalSum, Symbol, bilinear_terms
from .lattice import (EVEN, ODD, PARITY_NAMES, AlgebraConfig, ConeSpec, IndexVector,
                      LatticeBasis, _Frozen, cone_member, unimodular_det)
from .scalar import InputError, ScalarExpr, as_fraction


class Family(Enum):
    SA = "SA"
    SAPRIME = "SAprime"
    SBPRIME = "SBprime"

    @property
    def param_names(self):
        """The family's parameter names, in declaration order."""
        return ("a", "b") if self is Family.SA else ("a'",)

    def parity(self, letter) -> int:
        """The parity bit of the indices of basis symbol ``letter``, "x" or "y"."""
        return EVEN if (letter == "x") != (self is Family.SBPRIME) else ODD


class ModuleVector(FormalSum):
    """Finite formal sum of the module basis vectors x and y."""

    letters = "xy"
    noun = "a module vector"


class BoxSpec(_Frozen):
    """Truncation box: all indices with every |coordinate| <= radius."""

    __slots__ = ("radius",)

    def __init__(self, radius):
        radius = as_fraction(radius)
        if radius < 1:
            raise InputError("the box radius must be at least 1")
        if (2 * radius).denominator != 1:
            raise InputError("the box radius must be a half-integer")
        self._set(radius)

    def contains(self, v: IndexVector) -> bool:
        return all(abs(t) <= 2 * self.radius for t in v.twice)


class SeriesModule:
    """One intermediate-series module bound to a configuration: a family and
    an exact scalar for each of its parameter names."""

    def __init__(self, config: AlgebraConfig, family: Family, params):
        if set(params) != set(family.param_names):
            raise InputError(f"{family.value} takes the parameters "
                             f"{', '.join(family.param_names)}")
        self.config = config
        self.family = family
        self.params = {name: params[name] for name in family.param_names}
        self.algebra = SuperVirasoro(config)
        self._act_cache = {}
        self._edge_cache = {}

    # -- basis vectors ---------------------------------------------------------

    def x(self, coords) -> Symbol:
        return Symbol("x", self.config.index(coords, self.family.parity("x")))

    def y(self, coords) -> Symbol:
        return Symbol("y", self.config.index(coords, self.family.parity("y")))

    def _check_vector(self, v: Symbol):
        want = self.family.parity(v.letter)
        if v.parity != want:
            raise InputError(f"{v.letter} carries {PARITY_NAMES[want]} indices "
                             f"in {self.family.value}")

    def vector(self, v) -> ModuleVector:
        if ModuleVector.owns(v):
            self._check_vector(v)
        return ModuleVector.of(v, self.config.ctx.one)

    def basis_in_box(self, box: BoxSpec):
        """All basis vectors with index inside the box, x's first, lex order."""
        return tuple(Symbol(letter, i) for letter in ModuleVector.letters
                     for i in self.config.box(box.radius, self.family.parity(letter)))

    # -- the action -------------------------------------------------------------

    def act_basis(self, g: Symbol, v: Symbol) -> ModuleVector:
        """Action of one generator on one basis vector, per the family table."""
        key = (g, v)
        cached = self._act_cache.get(key)
        if cached is None:
            cached = self._act_basis(g, v)
            self._act_cache[key] = cached
        return cached

    def _act_basis(self, g, v):
        self._check_vector(v)
        cfg = self.config
        if g.letter == "c":
            return ModuleVector({})
        embed = cfg.embed
        gi = g.index
        vi = v.index
        target = gi + vi
        # L keeps the symbol, G swaps x and y, in every family
        out_letter = v.letter if g.letter == "L" else ("y" if v.letter == "x" else "x")
        fam = self.family
        if fam is Family.SA:
            a, b = self.params["a"], self.params["b"]
            if g.letter == "L":
                if v.letter == "x":
                    coeff = a + embed(vi) + embed(gi) * b
                else:
                    coeff = a + embed(vi) + embed(gi) * (b - Fraction(1, 2))
            else:
                if v.letter == "x":
                    coeff = cfg.ctx.one
                else:
                    coeff = a + embed(vi) + embed(gi) * (b - Fraction(1, 2)) * 2
        elif fam is Family.SAPRIME:
            ap = self.params["a'"]
            if g.letter == "L":
                if v.letter == "x":
                    if vi.is_zero():
                        coeff = embed(gi) * (embed(gi) + ap)
                    else:
                        coeff = embed(target)
                else:
                    coeff = cfg.embed_plus_half(vi, gi)
            else:
                if v.letter == "x":
                    if vi.is_zero():
                        coeff = embed(gi) * 2 + ap
                    else:
                        coeff = cfg.ctx.one
                else:
                    coeff = embed(target)
        else:
            ap = self.params["a'"]
            if g.letter == "L":
                if v.letter == "x":
                    coeff = cfg.embed_plus_half(vi, gi)
                else:
                    if target.is_zero():
                        coeff = -(embed(gi) * (embed(gi) + ap))
                    else:
                        coeff = embed(vi)
            else:
                if v.letter == "x":
                    if target.is_zero():
                        coeff = embed(gi) * 2 + ap
                    else:
                        coeff = cfg.ctx.one
                else:
                    coeff = embed(vi)
        if coeff.is_zero():
            return ModuleVector({})
        return ModuleVector({Symbol(out_letter, target): coeff})

    def act(self, g, v) -> ModuleVector:
        """Bilinear extension of the basis action."""
        if AlgebraElement.owns(g) and ModuleVector.owns(v):
            return self.act_basis(g, v)  # checked by _act_basis before it was cached
        return ModuleVector.bilinear(self.algebra.element(g), self.vector(v),
                                     self.act_basis)

    def rep_residual(self, u, w, v) -> ModuleVector:
        """Module-axiom residual on a homogeneous generator pair.

        Returns R(u,w,v) = act([u,w], v) - act(u, act(w, v))
        + (-1)^{|u||w|} act(w, act(u, v)); zero certifies the axiom.  With
        e = (-1)^{|u||w|}, if [w,u] = -e [u,w] then, by linearity of act in
        the generator and e^2 = 1, whatever the action table,
            R(w,u,v) = act([w,u], v) - act(w, act(u, v)) + e act(u, act(w, v))
                     = -e act([u,w], v) - act(w, act(u, v)) + e act(u, act(w, v))
                     = -e R(u,w,v).
        """
        one = self.config.ctx.one
        us, pu = AlgebraElement.homogeneous(u, one)
        ws, pw = AlgebraElement.homogeneous(w, one)
        vs, _ = ModuleVector.homogeneous(v, one)  # its parity is checked by act below
        if pu is None or pw is None:
            raise InputError("the module axiom check needs homogeneous generators")
        uw, wv, uv = self.algebra.bracket(u, w), self.act(w, v), self.act(u, v)
        ab = self.act_basis
        return ModuleVector.from_terms(chain(
            bilinear_terms(uw.items(), vs, ab),
            bilinear_terms(us, wv.items(), ab, negate=True),
            bilinear_terms(ws, uv.items(), ab, negate=bool(pu and pw))))

    def weight_of(self, v: Symbol) -> ScalarExpr:
        """Eigenvalue of L_0 on v."""
        self._check_vector(v)
        base = self.config.embed(v.index)
        if self.family is Family.SA:
            return self.params["a"] + base
        return base

    # -- box probes ----------------------------------------------------------------

    def _edge_table(self, box: BoxSpec) -> "_EdgeTable":
        table = self._edge_cache.get(box.radius)
        if table is None:
            table = _EdgeTable(self.basis_in_box(box))
            self._edge_cache[box.radius] = table
        return table

    def _out_edges(self, basis, src) -> int:
        """Bit j set when the generator taking src to basis[j] has a nonzero
        coefficient there.  Each image is read once, so it skips the act_basis
        memo."""
        mask = 0
        for j, tgt in enumerate(basis):
            letter = "L" if tgt.letter == src.letter else "G"
            image = self._act_basis(Symbol(letter, tgt.index - src.index), src)
            if image.coefficient(tgt) is not None:
                mask |= 1 << j
        return mask

    def _reach(self, table, seeds: int) -> int:
        """Mask of the vectors reachable from the seed mask, seeds included."""
        edges = table.edges
        reached = frontier = seeds
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            j = low.bit_length() - 1
            out = edges[j]
            if out is None:
                out = edges[j] = self._out_edges(table.basis, table.basis[j])
            out &= ~reached
            reached |= out
            frontier |= out
        return reached

    def _mask(self, table, vectors, message) -> int:
        """Mask of in-box basis vectors; any other vector is an InputError."""
        mask = 0
        for v in vectors:
            self._check_vector(v)
            j = table.position.get(v)
            if j is None:
                raise InputError(message.format(v))
            mask |= 1 << j
        return mask

    def closure(self, seeds, box: BoxSpec) -> frozenset:
        """Least seed-containing set closed under every generator whose
        source and target indices both stay inside the box.

        A box-truncated under-approximation of the generated submodule;
        because all weight spaces are lines, the closure is a set of basis
        vectors, found as reachability over the box's edge table.
        """
        table = self._edge_table(box)
        seeds = self._mask(table, seeds, "seed {} lies outside the box")
        return frozenset(table.vectors(self._reach(table, seeds)))

    def simplicity_probe(self, box: BoxSpec):
        """Closure of every in-box basis vector; proper closures are listed
        as candidate submodules.  Box-level evidence, not a proof.

        Returns ((seed, closure size) per in-box basis vector, candidates),
        each candidate a sorted tuple and the candidates sorted by size.
        """
        table = self._edge_table(box)
        full = (1 << len(table.basis)) - 1
        closures = []
        proper = set()
        for j, v in enumerate(table.basis):
            reached = self._reach(table, 1 << j)
            closures.append((v, reached.bit_count()))
            if reached != full:
                proper.add(reached)
        candidates = [tuple(sorted(table.vectors(m), key=lambda b: b.sort_key()))
                      for m in proper]
        candidates.sort(key=lambda c: (len(c), [b.sort_key() for b in c]))
        return tuple(closures), tuple(candidates)

    def ghw_probe(self, v, bprime: LatticeBasis, k: int, box: BoxSpec):
        """Probe the generalized-highest-weight condition inside the box.

        True when every L and G generator with nonzero index in the level-k
        cone of bprime, mapping v to targets inside the box, annihilates v.
        On failure the first violating generator (in a fixed enumeration
        order) is returned as the counterexample.  When no generator
        qualifies, the probe would check nothing, and that is an InputError.
        """
        if k < 0:
            raise InputError("k must be nonnegative")
        v = self.vector(v)
        if v.is_zero():
            raise InputError("the probe needs a nonzero vector")
        for term in v.terms:
            if not box.contains(term.index):
                raise InputError("the vector must lie inside the box")
        if abs(unimodular_det(bprime)) != 1:
            raise InputError("the cone basis must be unimodular")
        indices = [t.index for t in v.terms]
        tried = False
        for letter, parity in (("L", EVEN), ("G", ODD)):
            cone = ConeSpec(bprime, k, parity)
            for op_index in self.config.box(2 * box.radius, parity):
                if op_index.is_zero() or not cone_member(op_index, cone):
                    continue
                if any(not box.contains(op_index + i) for i in indices):
                    continue
                op = Symbol(letter, op_index)
                tried = True
                if not self.act(op, v).is_zero():
                    return (False, op)
        if not tried:
            raise InputError(f"no generator of the level-{k} cone keeps the vector inside "
                             f"the box of radius {box.radius}; the probe would check nothing")
        return (True, None)

    def quotient_dims(self, sub, box: BoxSpec):
        """Weight-dimension table of the box quotient by a closure-invariant
        set of basis vectors: a (vector, dim) pair per in-box basis vector in
        sort order, dim 0 in the set (quotienting deletes lines), else 1."""
        table = self._edge_table(box)
        sub = set(sub)
        mask = self._mask(table, sub, "{} is not an in-box basis vector")
        if self._reach(table, mask) != mask:
            raise InputError("the subset is not closure-invariant in the box")
        return [(v, 0 if v in sub else 1)
                for v in sorted(table.basis, key=lambda b: b.sort_key())]


class _EdgeTable:
    """The in-box basis of one module, numbered in order, as a graph.

    edges[i] is an int mask with bit j set when the generator taking
    basis[i] to basis[j] has a nonzero coefficient there.  A mask is None
    until a search first leaves basis[i], so a small closure probes only
    the rows it reaches.
    """

    __slots__ = ("basis", "position", "edges")

    def __init__(self, basis):
        self.basis = basis
        self.position = {v: j for j, v in enumerate(basis)}
        self.edges = [None] * len(basis)

    def vectors(self, mask):
        return [self.basis[j] for j in range(mask.bit_length()) if mask >> j & 1]
