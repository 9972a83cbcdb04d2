"""The one graded-Jacobi defect of the defining bracket table, in closed form.

PAPER.md gives [L_mu, L_nu] the central term A (mu^3 - mu) c and
[G_eta, G_lam] the central term B (eta^2 - 1/4) c, with A = -1/12 and
B = -1/3.  On a triple of one L_mu and two G's whose indices sum to zero the
graded Leibniz residual is +-(2A + B/2)(m^3 - m) c, with m the embedded mu
and the sign fixed by the kind order; on every other triple, and whenever
mu = 0, it is zero.  Graded Jacobi therefore holds exactly when B = -4A,
which the table does not meet.

A and B are copied from PAPER.md, never read from the engine, so a sign
changed in the bracket code shows up as a departure from this closed form.
"""

from fractions import Fraction

from svir.algebra import CENTRAL

A = Fraction(-1, 12)
B = Fraction(-1, 3)
DEFECT = 2 * A + B / 2

# [L,[G,G]] - [[L,G],G] - [G,[L,G]] = DEFECT (m^3 - m) c; graded
# antisymmetry moves the L and flips the sign once per transposition
ORDER_SIGN = {"LGG": 1, "GLG": -1, "GGL": 1}


def kind_order(x, y, z):
    """'LGG', 'GLG', 'GGL' for the one-L-two-G orders, else 'other'."""
    order = "".join(e.letter for e in (x, y, z))
    return order if order in ORDER_SIGN else "other"


def expected_jacobi_residual(config, x, y, z):
    """Terms of the graded Jacobi residual on the basis triple (x, y, z)."""
    sign = ORDER_SIGN.get(kind_order(x, y, z))
    if sign is None or not (x.index + y.index + z.index).is_zero():
        return {}
    mu = next(e.index for e in (x, y, z) if e.letter == "L")
    if mu.is_zero():
        return {}
    m = config.embed(mu)
    return {CENTRAL: (m ** 3 - m) * (sign * DEFECT)}
