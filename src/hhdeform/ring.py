"""Ring structure of the Hochschild cohomology: generators, liftings and
cup products.

Classes are represented by cochains on the resolution.  Coordinates of a
class are taken relative to a deterministic complement of im d^{n-1}
inside ker d^n: the echelon basis of the image is extended greedily by
kernel basis vectors, in their canonical order, until the kernel is
spanned; the coefficients along the added vectors are the class
coordinates.

Products of positive-degree classes go through chain-map liftings found
by exact linear solves; a degree-0 class acts by multiplying cochain
values with its central element, which is the same thing but cheaper.
"""

from dataclasses import dataclass

from . import linalg
from .algebra import AlgebraElement, a, abar, memoised, z
from .homcomplex import coboundary_matrix, hom_space_basis, image_basis, kernel_basis
from .resolution import (
    BimoduleMap,
    Generator,
    compose,
    differential,
    generators,
    term_coords,
)


class LiftingError(Exception):
    """An inconsistent lifting system; must not happen for actual cocycles."""


@dataclass
class Cochain:
    """An element of Hom(P^n, Algebra): degree and generator -> value."""

    degree: int
    values: dict

    def value(self, gen):
        return self.values.get(gen, AlgebraElement())

    def to_vector(self, alg):
        basis = hom_space_basis(self.degree, alg)
        return [self.value(gen).coefficient(mono) for gen, mono in basis]

    def is_cocycle(self, alg):
        image = coboundary_matrix(self.degree, alg).mul_vector(self.to_vector(alg))
        return not any(image)


@dataclass
class CohomologyClass:
    degree: int
    representative: Cochain
    coordinates: tuple

    def is_zero(self):
        return not any(self.coordinates)


@memoised
def _cohomology_space(n, alg):
    """(columns, complement positions, complement vectors) for degree n.

    The columns are the echelon basis of im d^{n-1} followed by the
    reduced-echelon basis of ker d^n.  The pivot columns of their RREF
    are the image columns and the greedy complement: each kernel vector
    independent of the columns before it.  Solving a cocycle against the
    columns with free variables zero leaves its class coordinates at the
    complement positions.
    """
    image = image_basis(n, alg)
    kernel = kernel_basis(n, alg)
    vectors = image + kernel
    columns = linalg.Matrix.from_columns(len(hom_space_basis(n, alg)), vectors)
    pivots = linalg.pivot_columns(columns)
    assert pivots[: len(image)] == list(range(len(image)))
    positions = pivots[len(image):]
    return columns, positions, [vectors[c] for c in positions]


def class_of(cochain, alg, allow_non_generic=False):
    """The cohomology class of a cocycle, with complement coordinates."""
    alg.require_generic(allow_non_generic)
    if not cochain.is_cocycle(alg):
        raise ValueError("representative is not a cocycle")
    columns, positions, _ = _cohomology_space(cochain.degree, alg)
    x = linalg.solve(columns, cochain.to_vector(alg))
    return CohomologyClass(cochain.degree, cochain, tuple(x[c] for c in positions))


def cohomology_basis_size(alg, n):
    return len(_cohomology_space(n, alg)[2])


def canonical_generators(alg, allow_non_generic=False):
    """(x classes, u1, u2): the central loops in degree 0 and the two
    degree-1 generators."""
    alg.require_generic(allow_non_generic)
    m = alg.m
    xs = []
    for i in range(m):
        cochain = Cochain(0, {Generator(0, 0, i): AlgebraElement.of(z(i))})
        xs.append(class_of(cochain, alg, allow_non_generic))
    u1_cochain = Cochain(
        1, {Generator(1, 0, i): AlgebraElement.of(a(i)) for i in range(m)}
    )
    u2_cochain = Cochain(
        1,
        {
            Generator(1, 0, (m - 1) % m): AlgebraElement.of(a((m - 1) % m)),
            Generator(1, 1, 0): AlgebraElement.of(abar((m - 1) % m)),
        },
    )
    u1 = class_of(u1_cochain, alg, allow_non_generic)
    u2 = class_of(u2_cochain, alg, allow_non_generic)
    return xs, u1, u2


def _term_basis(alg, src_gen, target_degree):
    """All (target, left monomial, right monomial) term slots available to a
    bimodule map at the given source generator."""
    m = alg.m
    slots = []
    for tgt in generators(target_degree, m):
        lefts = alg.corner_basis(src_gen.i, tgt.i)
        if not lefts:
            continue
        rights = alg.corner_basis(tgt.terminus(m), src_gen.terminus(m))
        for ml in lefts:
            for mr in rights:
                slots.append((tgt, ml, mr))
    return slots


def lift_cocycle(f, k, alg):
    """Chain-map liftings L^0, ..., L^k of a positive-degree cocycle f.

    L^j maps P^{a+j} -> P^j where a = f.degree; L^0 satisfies
    (multiplication) o L^0 = f and each later level satisfies
    d^j o L^j = L^{j-1} o d^{a+j}.  Each source generator gives an
    independent linear system, solved exactly with free variables zero.
    """
    degree = f.degree
    if degree < 1:
        raise ValueError("lift positive-degree cocycles; degree 0 acts by value")
    product = alg.product
    lifts = []
    for j in range(k + 1):
        assignments = {}
        if j >= 1:
            d_j = differential(j, alg)
            carried = compose(lifts[j - 1], differential(degree + j, alg))
        for gen in generators(degree + j, alg.m):
            slots = _term_basis(alg, gen, j)
            if j == 0:
                # target side: coordinates in the algebra itself
                rhs = alg.element_coords(f.value(gen))
                cols = [alg.element_coords(alg.monomial_multiply(ml, mr)) for _, ml, mr in slots]
            else:
                rhs = carried.value_coords(gen)
                cols = []
                for tgt, ml, mr in slots:
                    pushed = []
                    for c, l2, tgt2, r2 in d_j.terms(tgt):
                        left = product(ml, l2)
                        right = product(r2, mr)
                        if left is not None and right is not None:
                            pushed.append((c * left[1] * right[1], left[0], tgt2, right[0]))
                    cols.append(term_coords(pushed, j - 1, alg))
            mat = linalg.Matrix.from_columns(len(rhs), cols)
            try:
                x = linalg.solve(mat, rhs)
            except linalg.InconsistentSystem as exc:
                raise LiftingError(
                    f"inconsistent lifting system at level {j}, generator {gen}"
                ) from exc
            assignments[gen] = [(coeff, ml, tgt, mr) for (tgt, ml, mr), coeff in zip(slots, x)]
        lifts.append(BimoduleMap(alg, degree + j, j, assignments))
    return lifts


def cup_product(f, g, alg, allow_non_generic=False):
    """The product class of f and g, as f composed with a lifting of g."""
    alg.require_generic(allow_non_generic)
    if f.degree == 0 or g.degree == 0:
        zero_deg, other = (f, g) if f.degree == 0 else (g, f)
        central = AlgebraElement()
        for gen in generators(0, alg.m):
            central = central + zero_deg.representative.value(gen)
        values = {}
        for gen, val in other.representative.values.items():
            prod = alg.multiply(central, val)
            if not prod.is_zero():
                values[gen] = prod
        return class_of(
            Cochain(other.degree, values), alg, allow_non_generic
        )
    top = lift_cocycle(g.representative, f.degree, alg)[f.degree]
    return _cup_with_lift(f, top, alg, allow_non_generic)


def _cup_with_lift(f, top, alg, allow_non_generic):
    """The class of f o top, where top is the level-(f.degree) lifting of a
    positive-degree cocycle g, so the class is the cup product of f and g."""
    values = {}
    for gen in generators(top.source_degree, alg.m):
        acc = alg.zero()
        for c, left, mid, right in top.terms(gen):
            for mono, cv in f.representative.value(mid).coeffs.items():
                inner = alg.product(left, mono)
                if inner is None:
                    continue
                outer = alg.product(inner[0], right)
                if outer is not None:
                    acc = acc + AlgebraElement.of(outer[0], c * cv * inner[1] * outer[1])
        if not acc.is_zero():
            values[gen] = acc
    return class_of(Cochain(top.source_degree, values), alg, allow_non_generic)


def ring_report(alg, max_degree=8, allow_non_generic=False):
    """Verify the presentation of the cohomology ring and report.

    Checks: degree dimensions (m+1, 2, 1, 0, ...), vanishing of all
    products of the degree-0 radical generators, u1^2 = u2^2 = 0,
    u1 u2 nonzero and spanning degree 2, u1 u2 + u2 u1 = 0, and the
    annihilation of u1, u2 by every x_i.  Total dimension must be m + 4.
    """
    alg.require_generic(allow_non_generic)
    m = alg.m
    failures = []
    verified = []

    def check(name, ok):
        if ok:
            verified.append(name)
        else:
            failures.append(name)

    dims = {n: cohomology_basis_size(alg, n) for n in range(max_degree + 1)}
    check("dim HH^0 = m+1", dims[0] == m + 1)
    check("dim HH^1 = 2", dims.get(1, 0) == 2)
    check("dim HH^2 = 1", dims.get(2, 0) == 1)
    for n in range(3, max_degree + 1):
        check(f"dim HH^{n} = 0", dims[n] == 0)

    xs, u1, u2 = canonical_generators(alg, allow_non_generic)
    check("u1, u2 independent", _independent(u1, u2))
    for i in range(m):
        for j in range(m):
            check(
                f"x{i} x{j} = 0",
                cup_product(xs[i], xs[j], alg, allow_non_generic).is_zero(),
            )
    # each of u1 and u2 is lifted once and serves both products it enters
    lift1 = lift_cocycle(u1.representative, 1, alg)[1]
    lift2 = lift_cocycle(u2.representative, 1, alg)[1]
    u1u1 = _cup_with_lift(u1, lift1, alg, allow_non_generic)
    u2u2 = _cup_with_lift(u2, lift2, alg, allow_non_generic)
    u1u2 = _cup_with_lift(u1, lift2, alg, allow_non_generic)
    u2u1 = _cup_with_lift(u2, lift1, alg, allow_non_generic)
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
        check(
            f"x{i} u1 = 0",
            cup_product(xs[i], u1, alg, allow_non_generic).is_zero(),
        )
        check(
            f"x{i} u2 = 0",
            cup_product(xs[i], u2, alg, allow_non_generic).is_zero(),
        )

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
