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

Read off the tables, every family is SA_{a,b} away from one special vertex:
SA' is SA_{0,1} except acting from x_0, and SB' is SA_{0,1/2} except acting
into y_0 (x and y swap parity, as Family.parity says).  So every generic
entry is a + embed(v) + k*embed(g), with k = b for L on x, b - 1/2 for L on
y and 2b - 1 for G on y, and G on x is 1.  SeriesModule._coefficient is that
one table; at the special vertex L_mu gives +mu*(mu + a') (SA') or
-mu*(mu + a') (SB'), and G_lam gives 2*lam + a'.

Closure, simplicity and highest-weight probes work inside a truncation box
and are reported as box-level evidence only, never as proofs.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebra import HALF, AlgebraElement, SuperVirasoro
from .formal import FormalSum, Symbol
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
        if family is Family.SA:
            a, b = self.params["a"], self.params["b"]
            if b.is_constant():
                b = b.evaluate({})
        else:
            a, b = config.ctx.zero, Fraction(1) if family is Family.SAPRIME else HALF
        # the generic entries a + embed(v) + k*embed(g), keyed by (generator, v) letters
        self._a = a
        self._k = {("L", "x"): b, ("L", "y"): b - HALF, ("G", "y"): (b - HALF) * 2}
        self._from_x0 = family is Family.SAPRIME
        self._into_y0 = family is Family.SBPRIME
        self.algebra = SuperVirasoro(config)
        self._act_cache = {}
        self._edge_cache = {}
        self._twin = None  # (w, u, v, R(w,u,v)) kept by the last rep_residual call

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
        if g.letter == "c":
            return ModuleVector({})
        target = g.index + v.index
        coeff = self._coefficient(g.letter, g.index, v, target)
        if coeff.is_zero():
            return ModuleVector({})
        # L keeps the symbol, G swaps x and y, in every family
        letter = v.letter if g.letter == "L" else ("y" if v.letter == "x" else "x")
        return ModuleVector({Symbol(letter, target): coeff})

    def _coefficient(self, letter, gi, v, target) -> ScalarExpr:
        """The scalar s, zero included, of the table entry letter_gi v = s w,
        where w has index target = gi + v.index and is v's letter under L and
        the other letter under G."""
        cfg = self.config
        if (self._from_x0 and v.letter == "x" and v.index.is_zero()
                or self._into_y0 and target.is_zero() and (letter == "L") == (v.letter == "y")):
            e = cfg.embed(gi)
            if letter == "G":
                return e * 2 + self.params["a'"]
            s = e * (e + self.params["a'"])
            return -s if self._into_y0 else s
        k = self._k.get((letter, v.letter))
        if k is None:  # G on x
            return cfg.ctx.one
        a = self._a
        if type(k) is Fraction:
            s = cfg.embed_plus(v.index, gi, k)
            return a + s if a else s
        return a + cfg.embed(v.index) + cfg.embed(gi) * k

    def act(self, g, v) -> ModuleVector:
        """Bilinear extension of the basis action."""
        if AlgebraElement.owns(g) and ModuleVector.owns(v):
            return self.act_basis(g, v)  # checked by _act_basis before it was cached
        return ModuleVector.bilinear(self.algebra.element(g), self.vector(v),
                                     self.act_basis)

    def rep_residual(self, u, w, v) -> ModuleVector:
        """R(u,w,v) = act([u,w], v) - act(u, act(w, v)) + (-1)^{|u||w|} act(w, act(u, v)),
        the module-axiom residual on a homogeneous generator pair: the
        algebra's leibniz_residual for this action, twin rule included.
        One slot keeps the twin R(w,u,v) = -(-1)^{|u||w|} R(u,w,v) when u, w
        are distinct algebra basis symbols with antisymmetric(u, w) and v is a
        module basis symbol; the next call returns it if it is exactly
        (w, u, v).  Every other call computes, product-order callers included."""
        twin, self._twin = self._twin, None
        if twin is not None and twin[0] is u and twin[1] is w and twin[2] is v:
            return twin[3]
        r = self.algebra.leibniz_residual(
            u, w, v, self.act, self.act_basis, ModuleVector,
            "the module axiom check needs homogeneous generators")
        if (u is not w and AlgebraElement.owns(u) and AlgebraElement.owns(w)
                and ModuleVector.owns(v) and self.algebra.antisymmetric(u, w)):
            self._twin = (w, u, v, r if u.parity and w.parity or r.is_zero() else -r)
        return r

    def rep_failures(self, elems, vectors):
        """The nonzero rep_residual(u, w, v) over u, w in elems and v in vectors,
        as a list of (u, w, v, residual) in itertools.product order, from one
        rep_residual call per check.  The checks are asked pair by pair,
        (u, w, v) right before (w, u, v), so rep_residual answers the second
        from its twin slot wherever the twin rule holds: one Leibniz residual
        per unordered pair and v."""
        failures = []  # ((i, j, k), u, w, v, residual)
        for (i, u), (j, w) in combinations_with_replacement(enumerate(elems), 2):
            orders = ((i, u, j, w),) if i == j else ((i, u, j, w), (j, w, i, u))
            for k, v in enumerate(vectors):
                for p, a, q, b in orders:
                    if not (r := self.rep_residual(a, b, v)).is_zero():
                        failures.append(((p, q, k), a, b, v, r))
        failures.sort(key=lambda f: f[0])
        return [f[1:] for f in failures]

    def weight_of(self, v: Symbol) -> ScalarExpr:
        """Eigenvalue of L_0 on v."""
        self._check_vector(v)
        return self._a + self.config.embed(v.index)

    # -- box probes ----------------------------------------------------------------

    def _edge_table(self, box: BoxSpec) -> "_EdgeTable":
        table = self._edge_cache.get(box.radius)
        if table is None:
            table = _EdgeTable(self.basis_in_box(box))
            self._edge_cache[box.radius] = table
        return table

    def _out_edges(self, basis, src) -> int:
        """Bit j set when the generator taking src to basis[j] has a nonzero
        table coefficient there; no image is built."""
        mask = 0
        for j, tgt in enumerate(basis):
            letter = "L" if tgt.letter == src.letter else "G"
            if not self._coefficient(letter, tgt.index - src.index, src, tgt.index).is_zero():
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
