"""Ring structure of the Hochschild cohomology: generators, liftings and
cup products.

Classes are represented by cochains on the resolution, each a vector over
the Hom-basis `hom_space_basis(n)`.  Coordinates of a class are taken
relative to a deterministic complement of im d^{n-1} inside ker d^n: the
image is extended greedily by the reduced-echelon kernel basis vectors,
in their canonical order, until the kernel is spanned; the coefficients
along the added vectors are the class coordinates.  Both are found in
kernel coordinates, a cocycle's entries at the free columns of d^n.

Every cup product takes one path, in every degree: f . g is the class of
f o L, where L is the level-(deg f) chain-map lifting of g, found by
exact linear solves, and f o L is the pullback matrix of L applied to the
vector of f.  The system of L^j at a generator depends only on j and the
generator's corner: `_lifting_system` builds it once per algebra.
"""

from dataclasses import dataclass

from . import linalg
from .algebra import a, abar, memoised, z
from .homcomplex import (
    _coboundary_rank,
    coboundary_matrix,
    hom_dimension,
    hom_space_basis,
    pullback_matrix,
)
from .resolution import (
    BimoduleMap,
    Generator,
    _p_basis,
    _p_basis_index,
    augmentation_matrix,
    compose,
    differential,
    generators,
)


class LiftingError(Exception):
    """An inconsistent lifting system; must not happen for actual cocycles."""


@dataclass
class Cochain:
    """An element of Hom(P^n, Algebra): its vector over hom_space_basis(n)."""

    degree: int
    vector: list

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


@dataclass
class CohomologyClass:
    degree: int
    representative: Cochain
    coordinates: tuple

    def is_zero(self):
        return not any(self.coordinates)


@memoised
def _cohomology_space(n, alg):
    """(free, columns, positions) for degree n, in kernel coordinates.

    The reduced-echelon kernel vector of a free column f of d^n is 1 at f
    and 0 at the other free columns, so a cocycle's kernel coordinates are
    its entries at free.  Row k of columns is row free[k] of d^{n-1} (the
    image columns, width of them), then a 1 at width + k (the kernel
    basis).  Its pivot columns from width on are the greedy complement,
    positions; solving kernel coordinates against columns with free
    variables zero leaves the class coordinates there.
    """
    prev = coboundary_matrix(n - 1, alg) if n else linalg.Matrix(hom_dimension(0, alg), 0)
    dn = coboundary_matrix(n, alg)
    bound = set(linalg.pivot_columns(dn))
    free = [f for f in range(dn.cols) if f not in bound]
    width = prev.cols
    rows = [{**prev._rows[f], width + k: linalg.F1} for k, f in enumerate(free)]
    columns = linalg.Matrix(len(rows), width + len(rows), rows)
    pivots = linalg.pivot_columns(columns)
    positions = [c for c in pivots if c >= width]
    # im d^{n-1} lies in ker d^n, where the free entries are coordinates,
    # so its rank survives there unless an image vector is not a cocycle
    rank = _coboundary_rank(n - 1, prev, alg) if n else 0
    if len(pivots) - len(positions) != rank:
        raise RuntimeError(f"im d^{n - 1} loses rank on the free columns of d^{n}")
    return free, columns, positions


def class_of(cochain, alg):
    """The cohomology class of a cocycle, with complement coordinates."""
    alg.require_generic()
    if not cochain.is_cocycle(alg):
        raise ValueError("representative is not a cocycle")
    free, columns, positions = _cohomology_space(cochain.degree, alg)
    x = linalg.solve(columns, [cochain.vector[f] for f in free])
    return CohomologyClass(cochain.degree, cochain, tuple(x[c] for c in positions))


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


@memoised
def _lifting_system(j, start, end, alg):
    """(slots, matrix): the level-j lifting system at a generator with
    corner (start, end).  The slots are the items (target, left, right) of
    `_p_basis(j)` whose left starts at start and whose right ends at end,
    in basis order; column k is the image of slot k under the
    multiplication map (`augmentation_matrix`) at level 0 and under d^j
    later."""
    ends = alg.endpoints
    slots = [s for s in _p_basis(j, alg) if ends[s[1]][0] == start and ends[s[2]][1] == end]
    if j == 0:
        aug, index = augmentation_matrix(alg), _p_basis_index(0, alg)
        positions = [index[s] for s in slots]
        rows = [{col: row[p] for col, p in enumerate(positions) if p in row} for row in aug._rows]
        return slots, linalg.Matrix(aug.rows, len(slots), rows)
    product, d_j = alg.product, differential(j, alg)
    index = _p_basis_index(j - 1, alg)
    matrix = linalg.Matrix(len(index), len(slots))
    for col, (tgt, ml, mr) in enumerate(slots):
        for c, l2, tgt2, r2 in d_j.terms(tgt):
            left, right = product(ml, l2), product(r2, mr)
            if left is not None and right is not None:
                matrix.add_to_entry(index[(tgt2, left[0], right[0])], col, c * left[1] * right[1])
    return slots, matrix


def lift_cocycle(f, k, alg):
    """Chain-map liftings L^0, ..., L^k of a cocycle f of any degree.

    L^j maps P^{a+j} -> P^j where a = f.degree; L^0 satisfies
    (multiplication) o L^0 = f and each later level satisfies
    d^j o L^j = L^{j-1} o d^{a+j}.  Each generator solves the system of its
    corner (`_lifting_system`) exactly, with free variables zero.
    """
    if k < 0:
        raise ValueError(f"liftings start at level 0, got level {k}")
    degree = f.degree
    # the value of f at each generator, in coordinates over the algebra basis
    values = {gen: [linalg.F0] * len(alg.basis) for gen in generators(degree, alg.m)}
    for (gen, mono), c in zip(hom_space_basis(degree, alg), f.vector):
        values[gen][alg.basis_index[mono]] = c
    lifts = []
    for j in range(k + 1):
        if j == 0:
            rhs = values.__getitem__
        else:
            rhs = compose(lifts[-1], differential(degree + j, alg)).value_coords
        assignments = {}
        for gen in generators(degree + j, alg.m):
            slots, matrix = _lifting_system(j, gen.i, gen.terminus(alg.m), alg)
            try:
                x = linalg.solve(matrix, rhs(gen))
            except linalg.InconsistentSystem as exc:
                raise LiftingError(
                    f"inconsistent lifting system at level {j}, generator {gen}"
                ) from exc
            assignments[gen] = [(coeff, ml, tgt, mr) for (tgt, ml, mr), coeff in zip(slots, x)]
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

    Checks: degree dimensions (m+1, 2, 1, 0, ...), vanishing of all
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
    check("dim HH^0 = m+1", dims[0] == m + 1)
    check("dim HH^1 = 2", dims[1] == 2)
    check("dim HH^2 = 1", dims[2] == 1)
    for n in range(3, max_degree + 1):
        check(f"dim HH^{n} = 0", dims[n] == 0)

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
