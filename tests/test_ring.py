from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhdeform import linalg, ring
from hhdeform.algebra import NonGenericParameters, a, abar, algebra, e, z
from hhdeform.resolution import BimoduleMap, Generator, compose, differential, generators
from hhdeform.homcomplex import coboundary_matrix, hom_dimension, hom_space_basis, pullback_matrix
from hhdeform.ring import (
    Cochain,
    _cohomology_space,
    canonical_generators,
    class_of,
    cup_product,
    lift_cocycle,
    ring_report,
)
from test_algebra import add_into
from test_linalg import identity, to_lists
from test_resolution import augment, small_coeffs, term_coords, value_coords

F = Fraction

COPRIME_Q = (F(7, 3), F(-5, 2), F(1, 9), F(3), F(2), F(-1, 7), F(5, 11), F(-13, 4))


def cochain_of_values(degree, values, alg):
    """The Cochain whose value at each generator gen is the combination
    values[gen] = {monomial: coefficient}."""
    coeffs = {(gen, mono): c for gen, val in values.items() for mono, c in val.items()}
    return Cochain.of(degree, coeffs, alg)


def augmented(lift, alg):
    """(multiplication) o lift for a lift into P^0, as a Cochain."""
    return cochain_of_values(lift.source_degree, augment(lift), alg)


def value_at(cochain, gen, alg):
    """The value of a cochain at one generator, as {monomial: coefficient}."""
    value = {}
    for (g, mono), c in zip(hom_space_basis(cochain.degree, alg), cochain.vector):
        if g == gen:
            add_into(value, {mono: c})
    return value


@pytest.fixture(scope="module")
def alg3():
    return algebra(3, (2, 1, 1))


def test_generators_are_cocycles(alg3):
    xs, u1, u2 = canonical_generators(alg3)
    for cls in xs + [u1, u2]:
        assert cls.representative.is_cocycle(alg3)


def test_u1_u2_independent(alg3):
    _, u1, u2 = canonical_generators(alg3)
    assert not u1.is_zero()
    assert not u2.is_zero()
    assert len(u1.coordinates) == 2  # dim HH^1
    assert u1.coordinates != u2.coordinates


def test_m1_degree_zero():
    alg = algebra(1, (2,))
    xs, u1, u2 = canonical_generators(alg)
    assert len(xs) == 1
    assert len(xs[0].coordinates) == 2  # dim HH^0 = m + 1


def test_non_generic_refused():
    with pytest.raises(NonGenericParameters):
        canonical_generators(algebra(2, (1, 1)))


def test_cochain_of_refuses_inexact_values(alg3):
    key = (Generator(0, 0, 0), z(0))
    with pytest.raises(TypeError, match="not an exact rational"):
        Cochain.of(0, {key: 0.5}, alg3)
    vector = Cochain.of(0, {key: 2}, alg3).vector
    assert vector[hom_space_basis(0, alg3).index(key)] == 2
    assert all(type(v) is F for v in vector)


def test_lift_cocycle_refuses_a_negative_level(alg3):
    _, u1, _ = canonical_generators(alg3)
    with pytest.raises(ValueError, match="level -1"):
        lift_cocycle(u1.representative, -1, alg3)


def test_lift_of_zero_cochain_is_zero(alg3):
    zero = Cochain.of(1, {}, alg3)
    lifts = lift_cocycle(zero, 1, alg3)
    assert all(not lift.assignments for lift in lifts)


def test_lifting_commutation(alg3):
    xs, _, u2 = canonical_generators(alg3)
    # u2 in degree 1 and each x_i in degree 0
    for cls in [u2] + xs:
        f = cls.representative
        lifts = lift_cocycle(f, 2, alg3)
        # multiplication o L^0 = f
        assert augmented(lifts[0], alg3) == f
        # d^j o L^j = L^{j-1} o d^{a+j}
        for j in (1, 2):
            lhs = compose(differential(j, alg3), lifts[j])
            rhs = compose(lifts[j - 1], differential(f.degree + j, alg3))
            for gen in generators(f.degree + j, alg3.m):
                assert value_coords(lhs, gen) == value_coords(rhs, gen)


def term_basis(alg, src_gen, target_degree):
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


def slot_lifts(f, k, alg):
    """Solve-based reference lifting: one exact linear system per generator
    and level, the unknowns listed by `term_basis`, the level-0 columns
    read from the {monomial: coefficient} dicts that
    `Algebra.monomial_multiply` returns, and free variables zero.  Unlike
    `lift_cocycle`, its right factors are not all vertices."""
    degree = f.degree
    product = alg.product
    values = {gen: [F(0)] * len(alg.basis) for gen in generators(degree, alg.m)}
    for (gen, mono), c in zip(hom_space_basis(degree, alg), f.vector):
        values[gen][alg.basis_index[mono]] = c
    lifts = []
    for j in range(k + 1):
        assignments = {}
        if j >= 1:
            d_j = differential(j, alg)
            carried = compose(lifts[j - 1], differential(degree + j, alg))
        for gen in generators(degree + j, alg.m):
            slots = term_basis(alg, gen, j)
            if j == 0:
                rhs = values[gen]
                cols = []
                for _, ml, mr in slots:
                    prod = alg.monomial_multiply(ml, mr)
                    cols.append([prod.get(mono, F(0)) for mono in alg.basis])
            else:
                rhs = value_coords(carried, gen)
                cols = []
                for tgt, ml, mr in slots:
                    pushed = []
                    for c, l2, tgt2, r2 in d_j.terms(tgt):
                        left = product(ml, l2)
                        right = product(r2, mr)
                        if left is not None and right is not None:
                            pushed.append((c * left[1] * right[1], left[0], tgt2, right[0]))
                    cols.append(term_coords(pushed, j - 1, alg))
            rows = [
                {c: linalg.exact(col[r]) for c, col in enumerate(cols) if col[r]}
                for r in range(len(rhs))
            ]
            x = linalg.solve(linalg.Matrix(len(rhs), len(cols), rows), rhs)
            assignments[gen] = [(coeff, ml, tgt, mr) for (tgt, ml, mr), coeff in zip(slots, x)]
        lifts.append(BimoduleMap(alg, degree + j, j, assignments))
    return lifts


def assert_chain_map(f, lifts, alg):
    """multiplication o L^0 = f and d^j o L^j = L^{j-1} o d^{a+j} at every
    level, exactly, with every coefficient a Fraction."""
    assert augmented(lifts[0], alg) == f
    for j in range(1, len(lifts)):
        lhs = compose(differential(j, alg), lifts[j])
        rhs = compose(lifts[j - 1], differential(f.degree + j, alg))
        for gen in generators(f.degree + j, alg.m):
            assert value_coords(lhs, gen) == value_coords(rhs, gen), (j, gen)
    assert all(type(c) is F for lift in lifts for terms in lift.assignments.values() for c, *_ in terms)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_lift_cocycle_is_a_chain_map(m):
    # liftings need no genericity, so zeta = 1 and -1 are in the grid; up
    # to six kernel vectors of d^n for n <= 3, each lifted to level 3
    for q0 in (F(2), F(-5, 2), F(1, 3), F(1), F(-1)):
        alg = algebra(m, (q0,) + (F(1),) * (m - 1))
        for n in range(4):
            for vec in linalg.kernel_basis(coboundary_matrix(n, alg))[:6]:
                f = Cochain(n, vec)
                assert_chain_map(f, lift_cocycle(f, 3, alg), alg)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_lift_cocycle_gives_the_slot_reference_classes(m):
    # two liftings of the same cocycle g are homotopic, so f o L(g) has the
    # same class along both; up to six kernel vectors f, g of degree <= 2
    alg = algebra(m, COPRIME_Q[:m])
    kernels = {n: linalg.kernel_basis(coboundary_matrix(n, alg))[:6] for n in range(3)}
    for q, g_vecs in kernels.items():
        for g_vec in g_vecs:
            g = Cochain(q, g_vec)
            diagonal, slot = lift_cocycle(g, 2, alg), slot_lifts(g, 2, alg)
            for p, f_vecs in kernels.items():
                for f_vec in f_vecs:
                    got, ref = (
                        class_of(Cochain(p + q, pullback_matrix(lifts[p]).mul_vector(f_vec)), alg)
                        for lifts in (diagonal, slot)
                    )
                    assert got.coordinates == ref.coordinates, (p, q)


@st.composite
def random_specs(draw):
    """m <= 4 and q drawn from a few rationals, the last one sometimes
    chosen so that zeta = 1 or -1."""
    m = draw(st.integers(1, 4))
    q = draw(st.lists(st.sampled_from([F(2), F(-5, 2), F(1, 3), F(7, 3), F(1), F(-1)]), min_size=m, max_size=m))
    zeta = draw(st.sampled_from([None, F(1), F(-1)]))
    if zeta is not None:
        q[-1] = zeta / prod(q[:-1])
    return algebra(m, q)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_cocycles_lift_to_chain_maps(data):
    alg = data.draw(random_specs())
    n = data.draw(st.integers(0, 3))
    kernel = linalg.kernel_basis(coboundary_matrix(n, alg))
    scales = data.draw(st.lists(small_coeffs | st.just(F(0)), min_size=len(kernel), max_size=len(kernel)))
    vec = [sum((c * v[k] for c, v in zip(scales, kernel)), F(0)) for k in range(hom_dimension(n, alg))]
    f = Cochain(n, vec)
    assert f.is_cocycle(alg)
    assert_chain_map(f, lift_cocycle(f, 3, alg), alg)


def explicit_lifts(alg):
    """The explicit lifting pair for u2 given in closed form."""
    m = alg.m
    lift0 = BimoduleMap(
        alg,
        1,
        0,
        {
            Generator(1, 0, (m - 1) % m): [
                (F(1), a((m - 1) % m), Generator(0, 0, 0), e(0))
            ],
            Generator(1, 1, 0): [
                (F(1), abar((m - 1) % m), Generator(0, 0, (m - 1) % m), e((m - 1) % m))
            ],
        },
    )
    g10m1 = Generator(1, 0, (m - 1) % m)
    g110 = Generator(1, 1, 0)
    g11m1 = Generator(1, 1, (m - 1) % m)
    # at m = 1, G(2;1,m-1) and G(2;1,0) are one generator: its terms add up,
    # in the order the diagonal lifting gives them
    level1 = {}
    for gen, terms in [
        (
            Generator(2, 0, (m - 1) % m),
            [(F(1), a((m - 1) % m), Generator(1, 0, 0), e(Generator(1, 0, 0).terminus(m)))],
        ),
        (
            Generator(2, 1, (m - 1) % m),
            [(-alg.q[(m - 1) % m], a((m - 1) % m), g110, e(g110.terminus(m)))],
        ),
        (Generator(2, 1, 0), [(F(1), abar((m - 1) % m), g10m1, e(g10m1.terminus(m)))]),
        (Generator(2, 2, 0), [(F(-1), abar((m - 1) % m), g11m1, e(g11m1.terminus(m)))]),
    ]:
        level1.setdefault(gen, []).extend(terms)
    lift1 = BimoduleMap(alg, 2, 1, level1)
    return lift0, lift1


@pytest.mark.parametrize("m,q", [(3, (2, 1, 1)), (2, (3, 1)), (4, (2, 1, 1, 1)), (1, (2,))])
def test_explicit_lifting_satisfies_commutation(m, q):
    alg = algebra(m, q)
    _, _, u2 = canonical_generators(alg)
    lift0, lift1 = explicit_lifts(alg)
    assert augmented(lift0, alg) == u2.representative
    lhs = compose(differential(1, alg), lift1)
    rhs = compose(lift0, differential(2, alg))
    for gen in generators(2, m):
        assert value_coords(lhs, gen) == value_coords(rhs, gen)


@pytest.mark.parametrize("m,q", [(3, (2, 1, 1)), (2, (3, 1)), (4, (2, 1, 1, 1)), (1, (2,))])
def test_lift_cocycle_of_u2_is_the_explicit_lifting(m, q):
    alg = algebra(m, q)
    _, _, u2 = canonical_generators(alg)
    got = lift_cocycle(u2.representative, 1, alg)
    assert [lift.assignments for lift in got] == [lift.assignments for lift in explicit_lifts(alg)]


def test_u1u2_class_matches_explicit_lift(alg3):
    # composing u1 with the explicit lifting gives the stated cocycle,
    # and the diagonal lifting lands in the same class
    m = alg3.m
    _, u1, u2 = canonical_generators(alg3)
    _, lift1 = explicit_lifts(alg3)
    values = {}
    for gen in generators(2, m):
        acc = {}
        for c, left, mid, right in lift1.terms(gen):
            value = value_at(u1.representative, mid, alg3)
            add_into(acc, alg3.multiply(alg3.multiply({left: c}, value), {right: 1}))
        if acc:
            values[gen] = acc
    # the only nonzero value is at (r=1, i=0): abar_{m-1} a_{m-1} = q_0 z_0
    assert set(values) == {Generator(2, 1, 0)}
    assert values[Generator(2, 1, 0)] == {z(0): alg3.q[0]}
    explicit = class_of(cochain_of_values(2, values, alg3), alg3)
    generic = cup_product(u1, u2, alg3)
    assert explicit.coordinates == generic.coordinates
    assert not generic.is_zero()


def test_exterior_relations(alg3):
    xs, u1, u2 = canonical_generators(alg3)
    assert cup_product(u1, u1, alg3).is_zero()
    assert cup_product(u2, u2, alg3).is_zero()
    u1u2 = cup_product(u1, u2, alg3)
    u2u1 = cup_product(u2, u1, alg3)
    assert not u1u2.is_zero()
    assert all(c1 + c2 == 0 for c1, c2 in zip(u1u2.coordinates, u2u1.coordinates))


def test_degree_zero_annihilates(alg3):
    xs, u1, u2 = canonical_generators(alg3)
    for x in xs:
        for other in list(xs) + [u1, u2]:
            assert cup_product(x, other, alg3).is_zero()


def act_by_value(x, u, alg):
    """The class of z . u for x the class of the central element z: each
    value of u multiplied by z, with no lifting."""
    central = {}
    for (_, mono), c in zip(hom_space_basis(0, alg), x.representative.vector):
        add_into(central, {mono: c})
    values = {}
    for (gen, mono), c in zip(hom_space_basis(u.degree, alg), u.representative.vector):
        add_into(values.setdefault(gen, {}), alg.multiply(central, {mono: c}))
    return class_of(cochain_of_values(u.degree, values, alg), alg)


def test_degree_zero_action_matches_lifting():
    # x o L^0(u) and u o L^1(x) go through different liftings; both agree
    # with multiplying the values of u by the central element of x
    for m in (1, 2, 3, 4):
        alg = algebra(m, (2,) + (1,) * (m - 1))
        xs, u1, u2 = canonical_generators(alg)
        for x in xs:
            for u in (u1, u2):
                via_lift_of_u = cup_product(x, u, alg)
                via_lift_of_x = cup_product(u, x, alg)
                assert via_lift_of_u.representative.degree == via_lift_of_x.representative.degree == 1
                assert via_lift_of_u.coordinates == via_lift_of_x.coordinates
                assert via_lift_of_u.coordinates == act_by_value(x, u, alg).coordinates


@pytest.mark.parametrize("m,q", [(2, (3, 1)), (3, (2, 1, 1)), (4, (2, 1, 1, 1)), (5, (2, 1, 1, 1, 1))])
def test_ring_report(m, q):
    report = ring_report(algebra(m, q))
    assert report["passed"], report["failures"]
    assert report["total_dim"] == m + 4


def test_ring_report_m1():
    report = ring_report(algebra(1, (2,)))
    assert report["passed"], report["failures"]
    assert report["total_dim"] == 5


def test_ring_report_lifts_u1_and_u2_once_each(monkeypatch):
    calls = []

    def counted(f, k, alg):
        calls.append((f.degree, k))
        return lift_cocycle(f, k, alg)

    monkeypatch.setattr(ring, "lift_cocycle", counted)
    report = ring_report(algebra(2, (3, 1)))
    assert report["passed"], report["failures"]
    assert calls == [(0, 0), (0, 0), (1, 1), (1, 1)]


@pytest.mark.parametrize("max_degree", [0, 1])
def test_ring_report_needs_max_degree_two(max_degree):
    # below HH^2 the report would count the dimensions it never computed
    # as failures
    with pytest.raises(ValueError, match="max_degree must be at least 2"):
        ring_report(algebra(2, (3, 1)), max_degree=max_degree)


@pytest.fixture
def solves(monkeypatch):
    """The matrix of each linalg.solve call, in call order."""
    calls = []
    solve = linalg.solve

    def recorded_solve(a, b):
        calls.append(a)
        return solve(a, b)

    monkeypatch.setattr(linalg, "solve", recorded_solve)
    return calls


def test_ring_report_lifts_without_a_solve(solves):
    # neither the liftings of x0, x1, x2, u1 and u2 (a solver-based lifting
    # made 39 solves here) nor the class coordinates (one solve per class
    # before they were read off the reduced rows) solve anything
    report = ring_report(algebra(3, (2, 1, 1)))
    assert report["passed"], report["failures"]
    assert solves == []
    # the patch is live: a direct call is seen
    one = identity(1)
    assert linalg.solve(one, [F(3)]) == [F(3)]
    assert solves == [one]


def greedy_complement(alg, n):
    """Extend the echelon image basis by each kernel vector that raises the
    rank, in kernel order."""
    span = to_lists(linalg.rref(coboundary_matrix(n - 1, alg).transpose())) if n else []
    chosen = []
    for vec in linalg.kernel_basis(coboundary_matrix(n, alg)):
        if linalg.rank(linalg.Matrix.from_rows(span + [vec])) > len(span):
            span.append(vec)
            chosen.append(vec)
    return chosen


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("zeta", [2, 1, -1])
def test_complement_is_the_greedy_choice(m, zeta):
    alg = algebra(m, (zeta,) + (1,) * (m - 1))
    for n in range(7):
        free, columns, positions, _readers = _cohomology_space(n, alg)
        kernel = linalg.kernel_basis(coboundary_matrix(n, alg))
        offset = columns.cols - len(free)
        assert [kernel[p - offset] for p in positions] == greedy_complement(alg, n)


def hom_class_coordinates(vector, n, alg):
    """Reference class coordinates in Hom coordinates: the echelon basis of
    im d^{n-1} and the reduced-echelon basis of ker d^n as the columns of
    one matrix over hom_space_basis(n), the complement at its pivot columns
    after the image, and one solve with free variables zero."""
    image = to_lists(linalg.rref(coboundary_matrix(n - 1, alg).transpose())) if n else []
    vectors = image + linalg.kernel_basis(coboundary_matrix(n, alg))
    rows = [{c: v[r] for c, v in enumerate(vectors) if v[r]} for r in range(hom_dimension(n, alg))]
    columns = linalg.Matrix(len(rows), len(vectors), rows)
    pivots = linalg.pivot_columns(columns)
    assert pivots[: len(image)] == list(range(len(image)))
    x = linalg.solve(columns, vector)
    return tuple(x[c] for c in pivots[len(image):])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8])
def test_class_coordinates_match_the_hom_coordinate_reference(m):
    # every kernel basis vector of d^n, n <= 5, as a class
    for q0 in (F(2), F(-5, 2), F(1, 3), None):
        q = COPRIME_Q[:m] if q0 is None else (q0,) + (F(1),) * (m - 1)
        alg = algebra(m, q)
        for n in range(6):
            for vec in linalg.kernel_basis(coboundary_matrix(n, alg)):
                got = class_of(Cochain(n, vec), alg).coordinates
                assert got == hom_class_coordinates(vec, n, alg), (q, n)
                assert all(type(c) is F for c in got)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_class_coordinates_are_the_solve_of_the_complement_system(m):
    # the reduced rows at positions give what one solve per class gave:
    # columns against the free entries, with free variables zero
    for q0 in (F(2), F(-5, 2), F(1, 3), None):
        q = COPRIME_Q[:m] if q0 is None else (q0,) + (F(1),) * (m - 1)
        alg = algebra(m, q)
        for n in range(6):
            free, columns, positions, _readers = _cohomology_space(n, alg)
            for vec in linalg.kernel_basis(coboundary_matrix(n, alg)):
                x = linalg.solve(columns, [vec[f] for f in free])
                expected = tuple(x[c] for c in positions)
                # int entries where the vector is integral read the same
                ints = [int(v) if v.denominator == 1 else v for v in vec]
                for entries in (vec, ints):
                    got = class_of(Cochain(n, entries), alg).coordinates
                    assert got == expected, (q, n)
                    assert all(type(c) is F for c in got)


def test_class_of_refuses_inexact_entries(alg3, monkeypatch):
    _xs, u1, _u2 = canonical_generators(alg3)
    inexact = Cochain(1, [float(c) for c in u1.representative.vector])
    # the cocycle test multiplies through `exact`, so it refuses the floats
    with pytest.raises(TypeError, match="is not an exact rational"):
        inexact.is_cocycle(alg3)
    with pytest.raises(TypeError, match="is not an exact rational"):
        class_of(inexact, alg3)
    # and class_of reads the free entries through `exact` on its own
    monkeypatch.setattr(Cochain, "is_cocycle", lambda self, alg: True)
    with pytest.raises(TypeError, match="1.0 is not an exact rational"):
        class_of(inexact, alg3)


def test_ring_report_runs_no_rref_kernel_basis_or_transpose(monkeypatch):
    def refused(*args):
        raise AssertionError("ring_report must not eliminate a Hom-space basis")

    monkeypatch.setattr(linalg, "rref", refused)
    monkeypatch.setattr(linalg, "kernel_basis", refused)
    monkeypatch.setattr(linalg.Matrix, "transpose", refused)
    report = ring_report(algebra(3, (2, 1, 1)))
    assert report["passed"], report["failures"]


def test_image_that_loses_rank_on_the_free_columns_is_refused(monkeypatch):
    # a column of d^0 moved onto a pivot column of d^1 is not a cocycle: it
    # is zero at the free columns of d^1, so the image loses rank there
    alg = algebra(3, (2, 1, 1))
    d0 = coboundary_matrix(0, alg)
    moved = min(c for row in d0._rows for c in row)
    rows = [{c: v for c, v in row.items() if c != moved} for row in d0._rows]
    rows[linalg.pivot_columns(coboundary_matrix(1, alg))[0]][moved] = F(1)
    broken = linalg.Matrix(d0.rows, d0.cols, rows)
    monkeypatch.setattr(
        ring, "coboundary_matrix", lambda n, alg: broken if n == 0 else coboundary_matrix(n, alg)
    )
    with pytest.raises(RuntimeError, match="loses rank on the free columns of d\\^1"):
        _cohomology_space(1, alg)
