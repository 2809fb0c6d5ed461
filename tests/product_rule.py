"""The product of two basis monomials by case analysis on their kinds, an
independent reference for the structure constants that `Algebra` builds
from its four families.  Not a test module; the test files import it.

Named apart from `bench/reference.py`, which the benchmark imports by the
bare name `reference`, so one pytest run over both suites finds each.
"""

from fractions import Fraction

from hhdeform.algebra import ARROW, BAR, LOOP, VERTEX, z


def product_rule(alg, x, y):
    """x . y for basis monomials of alg as (monomial, coefficient), or None
    if it is zero."""
    m = alg.m
    if x.terminus(m) != y.origin(m):
        return None
    if x.kind == VERTEX:
        return y, Fraction(1)
    if y.kind == VERTEX:
        return x, Fraction(1)
    # socle kills the radical on both sides
    if x.kind == LOOP or y.kind == LOOP:
        return None
    if x.kind == ARROW and y.kind == BAR:
        # a_i abar_i = z_i (composability forces the indices to agree)
        return z(x.index), Fraction(1)
    if x.kind == BAR and y.kind == ARROW:
        # abar_j a_j = q_{j+1} z_{j+1}
        j1 = (x.index + 1) % m
        return z(j1), alg.q[j1]
    # a_i a_{i+1} and abar_i abar_{i-1} are relations
    return None
