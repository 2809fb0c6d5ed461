"""The cochain complex Hom(P^n, Algebra) and its cohomology dimensions.

A bimodule map P^n -> Algebra is determined by its value on each
generator, and the value at Generator(n, r, i) must lie in the corner
subspace e_i . Algebra . e_{(i+n-2r) mod m}.  That gives the canonical
basis used everywhere here: generators in their fixed order, corner
monomials in theirs.

Precomposition with a bimodule map g: P^N -> P^n is one matrix,
`pullback_matrix(g)`, built in one walk over the terms of g: the monomial
term (c, left, tgt, right) of the image of a generator of P^N feeds only
the columns of the basis maps at tgt, each with the one monomial
c . left . mono0 . right read from the structure constants
(`Algebra.product`).  The coboundary d^n is the pullback along the
differential d^{n+1}; cup products are pullbacks along chain-map
liftings.  The closed-form dimension tables from the kernel/image
analysis live in the expected_* functions and are used as comparison
data, never as a computation path.
"""

from . import linalg
from .algebra import memoised
from .resolution import differential, generators


@memoised
def hom_space_basis(n, alg):
    """Ordered basis of Hom(P^n, Algebra): (generator, corner monomial)."""
    m = alg.m
    basis = []
    for gen in generators(n, m):
        for mono in alg.corner_basis(gen.i, gen.terminus(m)):
            basis.append((gen, mono))
    return basis


def hom_dimension(n, alg):
    return len(hom_space_basis(n, alg))


def pullback_matrix(g, alg):
    """Matrix of f |-> f o g for a bimodule map g: P^N -> P^n, columns over
    the basis of Hom(P^n, .), rows over the basis of Hom(P^N, .).

    One walk over the terms of g: a term (c, left, tgt, right) of the
    image of gen sends the basis map (tgt, mono0) to c . left . mono0 . right
    at gen, for each corner monomial mono0 of tgt.
    """
    product = alg.product
    columns = {}
    for col, (gen0, mono0) in enumerate(hom_space_basis(g.target_degree, alg)):
        columns.setdefault(gen0, []).append((col, mono0))
    target_index = {item: k for k, item in enumerate(hom_space_basis(g.source_degree, alg))}
    mat = linalg.Matrix(len(target_index), hom_dimension(g.target_degree, alg))
    for gen, terms in g.assignments.items():
        for c, left, tgt, right in terms:
            for col, mono0 in columns.get(tgt, ()):
                inner = product(left, mono0)
                if inner is None:
                    continue
                value = product(inner[0], right)
                if value is not None:
                    v = c
                    if inner[1] != 1 or value[1] != 1:
                        v = v * inner[1] * value[1]
                    mat.add_to_entry(target_index[(gen, value[0])], col, v)
    return mat


@memoised
def coboundary_matrix(n, alg):
    """The coboundary d^n: Hom(P^n, .) -> Hom(P^{n+1}, .), the pullback
    along the differential d^{n+1}."""
    return pullback_matrix(differential(n + 1, alg), alg)


def kernel_image_dims(n, alg):
    """(dim ker d^n, dim im d^{n-1}) by exact rank computation."""
    dn = coboundary_matrix(n, alg)
    ker = dn.cols - linalg.rank(dn)
    im = linalg.rank(coboundary_matrix(n - 1, alg)) if n >= 1 else 0
    return ker, im


def cohomology_dimension(n, alg, allow_non_generic=False):
    """dim HH^n = dim ker d^n - dim im d^{n-1}."""
    alg.require_generic(allow_non_generic)
    ker, im = kernel_image_dims(n, alg)
    return ker - im


def kernel_basis(n, alg):
    """Reduced-echelon basis of ker d^n, as vectors over hom_space_basis."""
    return linalg.kernel_basis(coboundary_matrix(n, alg))


def image_basis(n, alg):
    """Echelon basis of im d^{n-1} inside Hom(P^n, .); empty for n = 0."""
    if n == 0:
        return []
    reduced = linalg.rref(coboundary_matrix(n - 1, alg).transpose())
    return reduced.to_lists()


# --- closed-form dimension tables, used as comparison data ------------------


def expected_hom_dimension(n, m):
    """Piecewise closed form for dim Hom(P^n, Algebra)."""
    if m <= 2:
        return 4 * (n + 1)
    p, t = divmod(n, m)
    return (4 * p + 4) * m if t == m - 1 else (4 * p + 2) * m


def expected_kernel_dim(n, m):
    """Closed form for dim ker d^n in the generic regime; m >= 2."""
    if m < 2:
        raise ValueError("no closed-form kernel table for m = 1")
    if m == 2:
        if n <= 1:
            return 3
        p = n // 2
        return 2 * (2 * p + 1)
    if n <= 1:
        return m + 1
    p = n // m
    return (2 * p + 1) * m


def expected_image_dim(n, m):
    """Closed form for dim im d^{n-1} in the generic regime; m >= 2."""
    if m < 2:
        raise ValueError("no closed-form image table for m = 1")
    if n == 0:
        return 0
    if m == 2:
        if n == 1:
            return 1
        if n == 2:
            return 5
        k = n - 1
        p = k // 2
        return 2 * (2 * p + 3) if k % 2 == 1 else 2 * (2 * p + 1)
    if n in (1, 2):
        return m - 1
    p = n // m
    return (2 * p + 1) * m


def expected_cohomology_dim(n, m):
    """dim HH^n in the generic regime: m+1, 2, 1, then 0; total m+4."""
    if n == 0:
        return m + 1
    if n == 1:
        return 2
    if n == 2:
        return 1
    return 0
