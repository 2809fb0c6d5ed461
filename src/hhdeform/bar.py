"""Independent cohomology oracle via a reduced bar-type cochain complex.

The complex is taken relative to the (separable) span of the vertices:
cochains are vertex-bimodule maps from tensor powers of the radical --
tensor over the vertex span, so tuples of radical monomials with matching
endpoints -- into the algebra.  This computes the same Ext groups as the
resolution-based complex, but through a construction that shares no code
with the resolution, which is the whole point.

Sizes explode with the degree, so a hard cap is enforced rather than any
silent truncation.
"""

from fractions import Fraction

from . import linalg
from .algebra import ARROW, BAR, LOOP, AlgebraElement, memoised


class DegreeCapExceeded(Exception):
    pass


def _radical_monomials(alg):
    return [mono for mono in alg.basis if mono.kind in (ARROW, BAR, LOOP)]


@memoised
def _tuples(n, alg):
    """All endpoint-compatible n-tuples of radical monomials."""
    m = alg.m
    rad = _radical_monomials(alg)
    if n == 0:
        result = [()]
    else:
        result = [(mono,) for mono in rad]
        for _ in range(n - 1):
            result = [
                tup + (mono,)
                for tup in result
                for mono in rad
                if mono.origin(m) == tup[-1].terminus(m)
            ]
    return result


@memoised
def bar_basis(n, alg):
    """Basis of the degree-n cochain space: (tuple, corner monomial).

    Degree 0 is maps out of the vertex span itself, one diagonal corner
    per vertex.
    """
    m = alg.m
    basis = []
    if n == 0:
        for i in range(m):
            for mono in alg.corner_basis(i, i):
                basis.append(((i,), mono))
    else:
        for tup in _tuples(n, alg):
            o = tup[0].origin(m)
            t = tup[-1].terminus(m)
            for mono in alg.corner_basis(o, t):
                basis.append((tup, mono))
    return basis


def bar_cochain_dimension(n, alg):
    return len(bar_basis(n, alg))


@memoised
def _bar_coboundary(n, alg):
    """Matrix of the standard coboundary from degree n to degree n + 1:

    (d f)(r_1 ... r_{n+1}) = r_1 f(r_2 ...)
                             + sum_j (-1)^j f(... r_j r_{j+1} ...)
                             + (-1)^{n+1} f(... r_n) r_{n+1}
    """
    m = alg.m
    source = bar_basis(n, alg)
    target = bar_basis(n + 1, alg)
    mat = linalg.Matrix(len(target), len(source))
    # column-oriented: for each basis cochain, expand d(f) over all
    # (n+1)-tuples and read off corner coordinates
    target_index = {item: k for k, item in enumerate(target)}
    for col, (tup0, mono0) in enumerate(source):
        mono_elt = AlgebraElement.of(mono0)
        for big in _tuples(n + 1, alg):
            acc = alg.zero()
            if n == 0:
                r1 = big[0]
                # r . f(e at terminus) - f(e at origin) . r
                if (r1.terminus(m),) == tup0:
                    acc = acc + alg.multiply(AlgebraElement.of(r1), mono_elt)
                if (r1.origin(m),) == tup0:
                    acc = acc - alg.multiply(mono_elt, AlgebraElement.of(r1))
            else:
                if big[1:] == tup0:
                    acc = acc + alg.multiply(AlgebraElement.of(big[0]), mono_elt)
                for j in range(1, n + 1):
                    prod = alg.monomial_multiply(big[j - 1], big[j])
                    sign = Fraction((-1) ** j)
                    for mono, c in prod.coeffs.items():
                        contracted = big[: j - 1] + (mono,) + big[j + 1 :]
                        if contracted == tup0:
                            acc = acc + mono_elt.scale(sign * c)
                if big[:-1] == tup0:
                    acc = acc + alg.multiply(
                        mono_elt, AlgebraElement.of(big[-1])
                    ).scale((-1) ** (n + 1))
            for mono, c in acc.coeffs.items():
                mat.add_to_entry(target_index[(big, mono)], col, c)
    return mat


def bar_cohomology_dimension(n, alg, degree_cap=3, m_cap=3):
    """dim of the n-th cohomology of the reduced bar complex."""
    if n > degree_cap or alg.m > m_cap:
        raise DegreeCapExceeded(
            f"bar oracle capped at n <= {degree_cap}, m <= {m_cap}"
        )
    dn = _bar_coboundary(n, alg)
    ker = dn.cols - linalg.rank(dn)
    im = linalg.rank(_bar_coboundary(n - 1, alg)) if n >= 1 else 0
    return ker - im
