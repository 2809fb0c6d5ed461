"""Independent cohomology oracle via a reduced bar-type cochain complex.

The complex is taken relative to the (separable) span of the vertices:
cochains are vertex-bimodule maps from tensor powers of the radical --
tensor over the vertex span, so tuples of radical monomials with matching
endpoints -- into the algebra.  This computes the same Ext groups as the
resolution-based complex, but through a construction that shares no code
with the resolution, which is the whole point.

The coboundary is assembled in one walk over the (n+1)-tuples: each of a
tuple's n+2 faces (the outer factor split off at either end, or two
neighbours contracted to their product, read from the structure-constant
table `Algebra._table`) feeds only the columns of the cochains on that
face's n-tuple.

Sizes explode with the degree, so a hard cap is enforced rather than any
silent truncation.
"""

from . import linalg
from .algebra import ARROW, BAR, LOOP, memoised


class DegreeCapExceeded(Exception):
    pass


def _radical_monomials(alg):
    return [mono for mono in alg.basis if mono.kind in (ARROW, BAR, LOOP)]


@memoised
def _tuples(n, alg):
    """All endpoint-compatible n-tuples of radical monomials, each extended
    by the radical monomials starting where its last factor ends."""
    rad = _radical_monomials(alg)
    if n < 0:
        raise ValueError(f"the bar complex is defined for n >= 0, got degree {n}")
    if n == 0:
        return [()]
    ends = alg.endpoints
    starting = {v: [] for v in range(alg.m)}
    for mono in rad:
        starting[ends[mono][0]].append(mono)
    result = [(mono,) for mono in rad]
    for _ in range(n - 1):
        result = [tup + (mono,) for tup in result for mono in starting[ends[tup[-1]][1]]]
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


def _bar_coboundary(n, alg):
    """Matrix of the standard coboundary from degree n to degree n + 1:

    (d f)(r_1 ... r_{n+1}) = r_1 f(r_2 ...)
                             + sum_j (-1)^j f(... r_j r_{j+1} ...)
                             + (-1)^{n+1} f(... r_n) r_{n+1}

    At n = 0 a cochain is a value at each vertex, and the two outer faces
    of (r_1,) are the vertices r_1 ends and starts at.  Every entry is a
    structure constant, negated on the odd inner faces and, for even n, on
    the last face, so the walk multiplies no Fractions: signed[1] is the
    product table with each constant negated once per call.
    """
    m = alg.m
    signed = (alg._table, {pair: (mono, -c) for pair, (mono, c) in alg._table.items()})
    columns = {}
    for col, (tup0, mono0) in enumerate(bar_basis(n, alg)):
        columns.setdefault(tup0, []).append((col, mono0))
    target_index = {item: k for k, item in enumerate(bar_basis(n + 1, alg))}
    mat = linalg.Matrix(len(target_index), bar_cochain_dimension(n, alg))
    last_face = signed[1 - n % 2].get
    for big in _tuples(n + 1, alg):
        if n == 0:
            first, last = (big[0].terminus(m),), (big[0].origin(m),)
        else:
            first, last = big[1:], big[:-1]
        for col, mono0 in columns.get(first, ()):
            value = signed[0].get((big[0], mono0))
            if value is not None:
                mat.add_to_entry(target_index[(big, value[0])], col, value[1])
        for j in range(1, n + 1):
            prod = signed[j % 2].get((big[j - 1], big[j]))
            if prod is None:
                continue
            face = big[: j - 1] + (prod[0],) + big[j + 1 :]
            for col, mono0 in columns.get(face, ()):
                mat.add_to_entry(target_index[(big, mono0)], col, prod[1])
        for col, mono0 in columns.get(last, ()):
            value = last_face((mono0, big[-1]))
            if value is not None:
                mat.add_to_entry(target_index[(big, value[0])], col, value[1])
    return mat


@memoised
def _bar_rank(n, alg):
    """Rank of the degree-n coboundary, eliminated on its short side: a
    tall matrix (more rows than columns) through its transpose, which
    replaces it so that the two are not held at once."""
    mat = _bar_coboundary(n, alg)
    if mat.rows > mat.cols:
        mat = mat.transpose()
    return linalg.rank(mat)


def bar_cohomology_dimension(n, alg, degree_cap=3, m_cap=3):
    """dim of the n-th cohomology of the reduced bar complex."""
    if n > degree_cap or alg.m > m_cap:
        raise DegreeCapExceeded(
            f"bar oracle capped at n <= {degree_cap}, m <= {m_cap}"
        )
    ker = bar_cochain_dimension(n, alg) - _bar_rank(n, alg)
    im = _bar_rank(n - 1, alg) if n >= 1 else 0
    return ker - im
