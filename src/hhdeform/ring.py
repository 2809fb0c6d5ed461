"""Ring structure of the Hochschild cohomology: generators, liftings and
cup products.

Classes are represented by cochains on the resolution, each a vector over
the Hom-basis `hom_space_basis(n)`.  Coordinates of a class are taken
relative to a deterministic complement of im d^{n-1} inside ker d^n: the
image is extended greedily by the reduced-echelon kernel basis vectors,
in their canonical order, until the kernel is spanned; the coefficients
along the added vectors are the class coordinates.  Both are found in
kernel coordinates, a cocycle's entries at the free columns of d^n, by
one elimination per degree: it picks the complement, and its rows there
give each coordinate as a fixed linear form in those entries, so a class
is read with no solve.

Every cup product takes one path, in every degree: f . g is the class of
f o L, where L is the level-(deg f) chain-map lifting of g, and f o L is
the pullback matrix of L applied to the vector of f.  The lifting is read
off the Koszul diagonal in closed form (`lift_cocycle`): no linear system
is solved, and every right factor is a vertex.
"""

from collections import namedtuple

from . import linalg
from .algebra import a, abar, e, memoised, z
from .freepaths import split_coefficient
from .homcomplex import (
    coboundary_matrix, expected_cohomology_dim, hom_dimension, hom_space_basis, pullback_matrix
)
# differential is not called here; bench/tests/test_bench.py checks that
# the tracer rebinds the by-name import ring.differential
from .resolution import BimoduleMap, Generator, differential, generators  # noqa: F401


class Cochain(namedtuple("Cochain", "degree vector")):
    """An element of Hom(P^n, Algebra): its vector over hom_space_basis(n)."""

    __slots__ = ()

    @classmethod
    def of(cls, degree, values, alg):
        """The cochain with coefficient values[(gen, mono)] on each Hom-basis
        map (gen, mono), zero on the others; each value must be an exact
        rational (TypeError otherwise)."""
        basis = hom_space_basis(degree, alg)
        if not set(values).issubset(basis):
            raise ValueError(f"values off the Hom-basis of degree {degree}")
        return cls(degree, [linalg.exact(values.get(item, 0)) for item in basis])

    def is_cocycle(self, alg):
        return not any(coboundary_matrix(self.degree, alg).mul_vector(self.vector))


class CohomologyClass(namedtuple("CohomologyClass", "degree representative coordinates")):
    """A class of degree n: a representing Cochain and its coordinates."""

    __slots__ = ()

    def is_zero(self):
        return not any(self.coordinates)


@memoised
def _cohomology_space(n, alg):
    """(free, columns, positions, readers) for degree n, in kernel
    coordinates.

    The reduced-echelon kernel vector of a free column f of d^n is 1 at f
    and 0 at the other free columns, so a cocycle's kernel coordinates are
    its entries at free.  Row k of columns is row free[k] of d^{n-1} (the
    image columns, width of them), then a 1 at width + k (the kernel
    basis).  Its pivot columns from width on are the greedy complement,
    positions.  The echelon rows leading there lie in the identity block;
    reduced among themselves they are the reduced form's rows there, whose
    identity block is the inverse of the row operations, so the solution
    of columns against kernel coordinates with free variables zero (the
    class coordinates) is their dot products with those coordinates.
    readers[k] holds the row at positions[k] as (free[j], entry at
    width + j) pairs.  The pivots of d^n and the rank of d^{n-1} are those
    kept on the memoised coboundaries, so only columns is eliminated here
    once the cohomology table has read them.
    """
    prev = coboundary_matrix(n - 1, alg) if n else linalg.Matrix(hom_dimension(0, alg), 0)
    dn = coboundary_matrix(n, alg)
    bound = set(linalg.pivot_columns(dn))
    free = [f for f in range(dn.cols) if f not in bound]
    width = prev.cols
    rows = [{**prev._rows[f], width + k: linalg.F1} for k, f in enumerate(free)]
    columns = linalg.Matrix(len(rows), width + len(rows), rows)
    pivots, echelon = linalg._echelon(columns)
    image = sum(c < width for c in pivots)
    # im d^{n-1} lies in ker d^n, where the free entries are coordinates,
    # so its rank survives there unless an image vector is not a cocycle
    rank = linalg.rank(prev) if n else 0
    if image != rank:
        raise RuntimeError(f"im d^{n - 1} loses rank on the free columns of d^{n}")
    positions, reduced = linalg._reduce(pivots[image:], echelon[image:])
    readers = [[(free[c - width], v) for c, v in row.items()] for row in reduced]
    return free, columns, positions, readers


def class_of(cochain, alg):
    """The cohomology class of a cocycle, with complement coordinates,
    each read as a dot product of the cocycle's entries at the free columns
    of its degree; a nonzero entry there that is not an exact rational
    raises TypeError."""
    alg.require_generic()
    if not cochain.is_cocycle(alg):
        raise ValueError("representative is not a cocycle")
    free, _columns, _positions, readers = _cohomology_space(cochain.degree, alg)
    values = {f: linalg.exact(v) for f in free if (v := cochain.vector[f])}
    coordinates = tuple(
        sum((c * values[f] for f, c in reader if f in values), start=linalg.F0)
        for reader in readers
    )
    return CohomologyClass(cochain.degree, cochain, coordinates)


def canonical_generators(alg):
    """(x classes, u1, u2): the central loops in degree 0 and the two
    degree-1 generators."""
    alg.require_generic()
    m = alg.m
    xs = [class_of(Cochain.of(0, {(Generator(0, 0, i), z(i)): 1}, alg), alg) for i in range(m)]
    u1_cochain = Cochain.of(1, {(Generator(1, 0, i), a(i)): 1 for i in range(m)}, alg)
    u2_cochain = Cochain.of(
        1,
        {
            (Generator(1, 0, (m - 1) % m), a((m - 1) % m)): 1,
            (Generator(1, 1, 0), abar((m - 1) % m)): 1,
        },
        alg,
    )
    return xs, class_of(u1_cochain, alg), class_of(u2_cochain, alg)


def lift_cocycle(f, k, alg):
    """Chain-map liftings L^0, ..., L^k of a cocycle f of any degree.

    L^j maps P^{a+j} -> P^j where a = f.degree; L^0 satisfies
    (multiplication) o L^0 = f and each later level satisfies
    d^j o L^j = L^{j-1} o d^{a+j}.  Each level is read off the Koszul
    diagonal, with no solve: g[a+j][r,i] splits as the sum over s of
    c(a; s, r-s; i) g[a][s,i] . g[j][r-s,i+a-2s] (`split_coefficient`),
    so L^j sends Generator(a+j, r, i) to the sum over s of
    c(a; s, r-s; i) f(Generator(a, s, i)) (x) e_end in the summand of
    Generator(j, r-s, i+a-2s), where end is the terminus of the source.
    """
    if k < 0:
        raise ValueError(f"liftings start at level 0, got level {k}")
    degree, m = f.degree, alg.m
    # the nonzero (coefficient, monomial) pairs of f at each (s, i)
    values = {}
    for (gen, mono), c in zip(hom_space_basis(degree, alg), f.vector):
        if c:
            values.setdefault((gen.r, gen.i), []).append((c, mono))
    lifts = []
    for j in range(k + 1):
        assignments = {}
        for gen in generators(degree + j, m):
            r, i = gen.r, gen.i
            end = e(gen.terminus(m))
            terms = []
            for s in range(max(0, r - j), min(degree, r) + 1):
                if (s, i) in values:
                    c = split_coefficient(alg, degree, s, r - s, i)
                    target = Generator(j, r - s, (i + degree - 2 * s) % m)
                    terms.extend((c * v, mono, target, end) for v, mono in values[s, i])
            if terms:
                assignments[gen] = terms
        lifts.append(BimoduleMap(alg, degree + j, j, assignments))
    return lifts


def cup_product(f, g, alg):
    """The product class of f and g, as f composed with a lifting of g."""
    alg.require_generic()
    return _cup_along(f, lift_cocycle(g.representative, f.degree, alg)[f.degree], alg)


def _cup_along(f, lift, alg):
    """The class of f o lift; when lift is the level-(f.degree) lifting of
    a cocycle g, that is the cup product of f and g."""
    vector = pullback_matrix(lift).mul_vector(f.representative.vector)
    return class_of(Cochain(lift.source_degree, vector), alg)


def ring_report(alg, max_degree=8):
    """Verify the presentation of the cohomology ring and report.

    Checks: degree dimensions (m+1, 2, 1, 0, ..., from
    `expected_cohomology_dim`), vanishing of all
    products of the degree-0 radical generators, u1^2 = u2^2 = 0,
    u1 u2 nonzero and spanning degree 2, u1 u2 + u2 u1 = 0, and the
    annihilation of u1, u2 by every x_i.  Total dimension must be m + 4,
    which is reached at HH^2, so max_degree below 2 raises ValueError.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    alg.require_generic()
    m = alg.m
    failures = []
    verified = []

    def check(name, ok):
        if ok:
            verified.append(name)
        else:
            failures.append(name)

    dims = {n: len(_cohomology_space(n, alg)[2]) for n in range(max_degree + 1)}
    for n, dim in dims.items():
        want = expected_cohomology_dim(n, m)
        check(f"dim HH^{n} = {'m+1' if n == 0 else want}", dim == want)

    xs, u1, u2 = canonical_generators(alg)
    check("u1, u2 independent", _independent(u1, u2))
    # each generator is lifted once: x_j to level 0, u1 and u2 to level 1,
    # whose level-0 part serves the products x_i u
    x_lifts = [lift_cocycle(x.representative, 0, alg)[0] for x in xs]
    for i in range(m):
        for j in range(m):
            check(f"x{i} x{j} = 0", _cup_along(xs[i], x_lifts[j], alg).is_zero())
    lift1 = lift_cocycle(u1.representative, 1, alg)
    lift2 = lift_cocycle(u2.representative, 1, alg)
    u1u1 = _cup_along(u1, lift1[1], alg)
    u2u2 = _cup_along(u2, lift2[1], alg)
    u1u2 = _cup_along(u1, lift2[1], alg)
    u2u1 = _cup_along(u2, lift1[1], alg)
    check("u1 u1 = 0", u1u1.is_zero())
    check("u2 u2 = 0", u2u2.is_zero())
    check("u1 u2 != 0", not u1u2.is_zero())
    check(
        "u1 u2 + u2 u1 = 0",
        all(
            c1 + c2 == 0
            for c1, c2 in zip(u1u2.coordinates, u2u1.coordinates)
        ),
    )
    for i in range(m):
        check(f"x{i} u1 = 0", _cup_along(xs[i], lift1[0], alg).is_zero())
        check(f"x{i} u2 = 0", _cup_along(xs[i], lift2[0], alg).is_zero())

    total = sum(dims.values())
    check("total dimension = m+4", total == m + 4)
    return {
        "generators": [f"x{i}" for i in range(m)] + ["u1", "u2"],
        "relations_verified": verified,
        "failures": failures,
        "total_dim": total,
        "passed": not failures,
    }


def _independent(c1, c2):
    mat = linalg.Matrix.from_rows([list(c1.coordinates), list(c2.coordinates)])
    return linalg.rank(mat) == 2
