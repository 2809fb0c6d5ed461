import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhdeform import linalg, resolution
from hhdeform.algebra import Table, a, abar, algebra, e, memoised, z
from hhdeform.resolution import (
    BimoduleMap,
    Generator,
    augmentation_matrix,
    check_complex,
    compose,
    differential,
    generator_rows,
    generators,
    underlying_matrix,
    verify_exactness,
)
from test_algebra import add_into
from test_freepaths import q_product

F = Fraction


def zero_map(alg, source_degree, target_degree):
    return BimoduleMap(alg, source_degree, target_degree, {})


def identity_map(n, alg):
    m = alg.m
    assignments = {gen: [(F(1), e(gen.i), gen, e(gen.terminus(m)))] for gen in generators(n, m)}
    return BimoduleMap(alg, n, n, assignments)


def augment(f):
    """The multiplication map P^0 -> Algebra composed with f: P^n -> P^0,
    as {generator: {monomial: coefficient}}."""
    alg = f.alg
    out = {}
    for gen, terms in f.assignments.items():
        acc = out[gen] = {}
        for c, left, _target, right in terms:
            prod = alg.product(left, right)
            if prod is not None:
                add_into(acc, {prod[0]: prod[1]}, c)
    return out


@memoised
def _p_basis(n, alg):
    """Reference basis of the underlying vector space of P^n, as a list:
    per generator, (left monomial into the origin) x (right monomial out
    of the terminus)."""
    m = alg.m
    basis = []
    for gen in generators(n, m):
        for ml in alg.monomials_into(gen.i):
            for mr in alg.monomials_from(gen.terminus(m)):
                basis.append((gen, ml, mr))
    return basis


@memoised
def _p_basis_index(n, alg):
    return {item: k for k, item in enumerate(_p_basis(n, alg))}


def term_coords(terms, n, alg):
    """Coordinates over `_p_basis(n)` of a list of (c, left, target, right)
    monomial terms."""
    index = _p_basis_index(n, alg)
    coords = [F(0)] * len(index)
    for c, ml, target, mr in terms:
        coords[index[(target, ml, mr)]] += c
    return coords


def value_coords(f, gen):
    """Coordinates of the image of gen under f over `_p_basis`."""
    return term_coords(f.terms(gen), f.target_degree, f.alg)


def coords_zero(f):
    """Reference zero test: every value has zero coordinates."""
    return not any(any(value_coords(f, gen)) for gen in generators(f.source_degree, f.alg.m))


def p_dimension(alg, n):
    """16 m (n+1): each of the m(n+1) summands contributes 4 x 4."""
    return len(_p_basis(n, alg))


def test_generator_counts():
    for m in (1, 2, 3):
        for n in range(6):
            assert len(generators(n, m)) == m * (n + 1)


def test_generator_offset_unreduced():
    g = Generator(5, 1, 0)
    assert g.offset == 3
    assert g.terminus(3) == 0


def test_generator_bad_r():
    with pytest.raises(ValueError):
        Generator(2, 3, 0)
    with pytest.raises(ValueError):
        Generator(2, -1, 0)


def test_generators_are_immutable_and_slot_only():
    g = Generator(2, 1, 0)
    with pytest.raises(AttributeError):
        g.r = 0
    with pytest.raises(AttributeError):
        g.extra = 1
    assert not hasattr(g, "__dict__")
    assert g == Generator(2, 1, 0) and g.r == 1


def fresh_rows(monkeypatch):
    """Give resolution a fresh, empty table of generator rows."""
    monkeypatch.setattr(resolution, "_generators", Table(resolution._rows_of))


def test_generators_are_assembled_from_the_shared_rows(monkeypatch):
    fresh_rows(monkeypatch)
    n, m = 4, 3
    table = generator_rows(n, m)
    assert generator_rows(n, m) is table and not table
    rows = [table[r] for r in range(n + 1)]
    assert rows[2] == tuple(Generator(n, 2, i) for i in range(m))
    assert all(table[r] is rows[r] for r in range(n + 1))
    gens = generators(n, m)
    # i outer, r inner: the very objects of the rows built first
    assert len(gens) == m * (n + 1)
    for i in range(m):
        for r in range(n + 1):
            assert gens[i * (n + 1) + r] is rows[r][i]
    # and a row read after the degree is the same row again
    assert generator_rows(n, m)[1] is rows[1]


@pytest.mark.parametrize("r", [-1, 3, 7])
def test_generator_row_outside_the_degree_refused(monkeypatch, r):
    fresh_rows(monkeypatch)
    with pytest.raises(ValueError) as want:
        Generator(2, r, 0)
    with pytest.raises(ValueError) as got:
        generator_rows(2, 4)[r]
    assert str(got.value) == str(want.value) == f"r must be in 0..n, got {r} at degree 2"
    assert not generator_rows(2, 4)


def test_generators_are_built_once():
    gens = generators(4, 3)
    assert type(gens) is tuple
    # every call hands out the very objects of the rows, built once
    rows = generator_rows(4, 3)
    for again in (gens, generators(4, 3)):
        assert all(gen is rows[gen.r][gen.i] for gen in again)
    # a fresh Generator equals and hashes like the shared one, so lookups
    # with fresh keys hit (canonical_generators builds its keys afresh)
    table = {gen: k for k, gen in enumerate(gens)}
    for k, gen in enumerate(gens):
        fresh = Generator(gen.n, gen.r, gen.i)
        assert fresh is not gen
        assert fresh == gen and hash(fresh) == hash(gen)
        assert table[fresh] == k
    assert len(set(gens)) == len(gens)


def test_differential_degree_1():
    alg = algebra(3, (2, 1, 1))
    d1 = differential(1, alg)
    terms = d1.terms(Generator(1, 0, 0))
    assert terms == [
        (F(1), e(0), Generator(0, 0, 0), a(0)),
        (F(-1), a(0), Generator(0, 0, 1), e(1)),
    ]
    terms = d1.terms(Generator(1, 1, 0))
    assert terms == [
        (F(-1), e(0), Generator(0, 0, 0), abar(2)),
        (F(1), abar(2), Generator(0, 0, 2), e(2)),
    ]


def test_differential_degree_2_middle_coefficients():
    alg = algebra(3, (2, 3, 5))
    d2 = differential(2, alg)
    n, r, i = 2, 1, 1
    terms = d2.terms(Generator(n, r, i))
    by_target = {t: (c, l, rr) for c, l, t, rr in terms}
    # e_1 (x)_1 a_0
    c, l, rr = by_target[Generator(1, 1, 1)]
    assert (c, l, rr) == (1, e(1), a(0))
    # (-1)^2 q_1 e_1 (x)_0 abar_1
    c, l, rr = by_target[Generator(1, 0, 1)]
    assert (c, l, rr) == (alg.q[1], e(1), abar(1))
    # (-1)^{2+1} q_1 a_1 (x)_1 e
    c, l, rr = by_target[Generator(1, 1, 2)]
    assert (c, l) == (-alg.q[1], a(1))
    # (-1)^{2+1} abar_0 (x)_0 e
    c, l, rr = by_target[Generator(1, 0, 0)]
    assert (c, l) == (-1, abar(0))


@pytest.mark.parametrize("m,q", [(3, (2, 1, 1)), (2, (3, 1)), (1, (2,))])
def test_complex_property(m, q):
    alg = algebra(m, q)
    assert check_complex(10, alg)


def test_compose_with_identity():
    alg = algebra(3, (2, 1, 1))
    d1 = differential(1, alg)
    assert not compose(d1, identity_map(1, alg)).is_zero()
    lhs = compose(d1, identity_map(1, alg))
    for gen in generators(1, 3):
        assert value_coords(lhs, gen) == value_coords(d1, gen)


def test_compose_degree_mismatch():
    alg = algebra(2, (3, 1))
    with pytest.raises(ValueError, match="degree mismatch"):
        compose(differential(1, alg), differential(3, alg))


def test_compose_refuses_maps_over_different_algebras():
    f = differential(1, algebra(2, (3, 1)))
    g = differential(2, algebra(2, (5, 1)))
    with pytest.raises(ValueError, match="different algebras"):
        compose(f, g)
    # equal specs are the same algebra
    assert compose(f, differential(2, algebra(2, (3, 1)))).is_zero()


def test_compose_d1_d2_zero():
    alg = algebra(3, (2, 1, 1))
    assert compose(differential(1, alg), differential(2, alg)).is_zero()
    alg2 = algebra(2, (3, 1))
    assert compose(differential(2, alg2), differential(3, alg2)).is_zero()


def test_vertex_compatibility_enforced():
    alg = algebra(3, (2, 1, 1))
    with pytest.raises(ValueError, match="left factor"):
        BimoduleMap(
            alg,
            1,
            0,
            {Generator(1, 0, 0): [(F(1), a(1), Generator(0, 0, 0), e(1))]},
        )


def test_right_factor_outside_its_corner_refused():
    # the right factor of G(1;0,0) -> G(0;0,0) lies in e_0 . Algebra . e_1
    alg = algebra(3, (2, 1, 1))
    BimoduleMap(alg, 1, 0, {Generator(1, 0, 0): [(F(1), e(0), Generator(0, 0, 0), a(0))]})
    with pytest.raises(ValueError, match="right factor"):
        BimoduleMap(
            alg, 1, 0, {Generator(1, 0, 0): [(F(1), e(0), Generator(0, 0, 0), a(1))]}
        )


def test_generators_outside_the_declared_degrees_refused():
    alg = algebra(3, (2, 1, 1))
    # corner-compatible, but the target is a generator of P^3, not P^1
    with pytest.raises(ValueError, match="not a generator of P\\^1"):
        BimoduleMap(alg, 2, 1, {Generator(2, 0, 0): [(F(1), e(0), Generator(3, 1, 0), a(1))]})
    # a source key of P^1 in a map out of P^2
    with pytest.raises(ValueError, match="not a generator of P\\^2"):
        BimoduleMap(alg, 2, 1, {Generator(1, 0, 0): [(F(1), e(0), Generator(1, 0, 0), e(1))]})
    # vertex indices outside 0..m-1, on the key and on the target
    with pytest.raises(ValueError, match="not a generator"):
        BimoduleMap(alg, 1, 0, {Generator(1, 0, 3): [(F(1), e(0), Generator(0, 0, 0), a(0))]})
    with pytest.raises(ValueError, match="not a generator"):
        BimoduleMap(alg, 1, 0, {Generator(1, 0, 0): [(F(1), e(0), Generator(0, 0, 3), a(0))]})
    # a tuple is not a Generator, though it hashes like Generator(1, 0, 0)
    with pytest.raises(ValueError, match="not a generator of P\\^1"):
        BimoduleMap(alg, 1, 0, {(1, 0, 0): [(F(1), e(0), Generator(0, 0, 0), a(0))]})
    with pytest.raises(ValueError, match="not a generator of P\\^0"):
        BimoduleMap(alg, 1, 0, {Generator(1, 0, 0): [(F(1), e(0), (0, 0, 0), a(0))]})


def test_monomials_outside_the_algebra_refused():
    # e_3 does not exist at m = 3, though it agrees with e_0 mod 3
    alg = algebra(3, (2, 1, 1))
    with pytest.raises(ValueError, match="left factor"):
        BimoduleMap(alg, 1, 0, {Generator(1, 0, 0): [(F(1), e(3), Generator(0, 0, 0), a(0))]})
    with pytest.raises(ValueError, match="right factor"):
        BimoduleMap(alg, 1, 0, {Generator(1, 0, 0): [(F(1), e(0), Generator(0, 0, 0), a(3))]})


def test_integer_coefficients_give_fraction_entries():
    alg = algebra(2, (3, 1))
    gen, target = Generator(1, 0, 0), Generator(0, 0, 0)
    f = BimoduleMap(alg, 1, 0, {gen: [(2, e(0), target, a(0))]})
    assert f.terms(gen) == [(F(2), e(0), target, a(0))]
    assert_fraction_entries(underlying_matrix(f))
    assert underlying_matrix(f) == multiply_underlying(f)


def test_opposite_terms_leave_no_stored_entry():
    # two opposite terms on each of two (left, target, right) triples
    alg = algebra(3, (2, 1, 1))
    gen = Generator(1, 0, 0)
    triples = [(e(0), Generator(0, 0, 0), a(0)), (a(0), Generator(0, 0, 1), e(1))]
    terms = [(s * F(5, 3), *t) for t in triples for s in (1, -1)]
    f = BimoduleMap(alg, 1, 0, {gen: terms})
    assert len(f.terms(gen)) == 4
    assert f.is_zero() and coords_zero(f)
    mat = underlying_matrix(f)
    assert (mat.rows, mat.cols) == (48, 96)
    assert all(row == {} for row in mat._rows)
    assert compose(identity_map(0, alg), f).assignments == {}
    assert compose(f, identity_map(1, alg)).assignments == {}
    assert compose(f, differential(2, alg)).assignments == {}
    # a fifth term keeps exactly its own entries and its own term
    rest = [(F(2), *triples[1])]
    g = BimoduleMap(alg, 1, 0, {gen: terms + rest})
    h = BimoduleMap(alg, 1, 0, {gen: rest})
    assert not g.is_zero() and not coords_zero(g)
    assert underlying_matrix(g) == underlying_matrix(h)
    assert compose(identity_map(0, alg), g).assignments == h.assignments


@pytest.mark.parametrize("m", [1, 2])
def test_equal_factors_into_two_targets_are_not_like_terms(m):
    # at m = 1, 2 the summands of G(2;0,0) and G(2;1,0) share the corner
    # (e_0, e_0), so one (left, right) pair can go into either
    alg = algebra(m, (F(2),) + (F(1),) * (m - 1))
    gen, one, other = Generator(2, 0, 0), Generator(2, 0, 0), Generator(2, 1, 0)
    for left, right in [(e(0), e(0)), (e(0), z(0)), (z(0), e(0))]:
        for target, zero in [(one, True), (other, False)]:
            f = BimoduleMap(
                alg, 2, 2, {gen: [(F(3), left, one, right), (F(-3), left, target, right)]}
            )
            assert f.is_zero() == coords_zero(f) == zero


def test_inexact_coefficients_refused():
    alg = algebra(3, (2, 1, 1))
    gen, target = Generator(1, 0, 0), Generator(0, 0, 0)
    for c in (0.1, 2.0, complex(1, 0), 0.0, complex(0, 0)):
        with pytest.raises(TypeError, match="not an exact rational"):
            BimoduleMap(alg, 1, 0, {gen: [(c, e(0), target, a(0))]})
    f = BimoduleMap(alg, 1, 0, {gen: [(True, e(0), target, a(0))]})
    assert f.terms(gen) == [(F(1), e(0), target, a(0))]


def test_zero_coefficient_terms_dropped():
    alg = algebra(3, (2, 1, 1))
    gen, target = Generator(1, 0, 0), Generator(0, 0, 0)
    f = BimoduleMap(alg, 1, 0, {gen: [(F(0), e(0), target, a(0)), (F(2), e(0), target, a(0))]})
    assert f.terms(gen) == [(F(2), e(0), target, a(0))]
    assert BimoduleMap(alg, 1, 0, {gen: [(F(0), e(0), target, a(0))]}).assignments == {}


def test_minimality_no_unit_terms():
    # every term of the differential has left or right factor in the radical
    alg = algebra(4, (2, 1, 1, 1))
    for n in range(1, 8):
        d = differential(n, alg)
        for gen in generators(n, 4):
            for _c, left, _t, right in d.terms(gen):
                left_radical = left.kind != "e"
                right_radical = right.kind != "e"
                assert left_radical or right_radical


def eager_differential(n, alg):
    """Reference closed form: the images of all m(n+1) generators of P^n,
    built up front in generator order, as {generator: terms}."""
    m = alg.m
    E, A, B = alg.basis[:m], alg.basis[m : 2 * m], alg.basis[2 * m : 3 * m]
    targets = generators(n - 1, m)

    def to(r, i):
        return targets[i % m * n + r]

    one, minus_one = F(1), F(-1)
    odd = n % 2
    sign_n = minus_one if odd else one
    assignments = {}
    for gen in generators(n, m):
        r, i = gen.r, gen.i
        if r == 0:
            terms = [
                (one, E[i], to(0, i), A[(i + n - 1) % m]),
                (sign_n, A[i], to(0, i + 1), E[(i + n) % m]),
            ]
        elif r == n:
            terms = [
                (sign_n, E[i], to(n - 1, i), B[(i - n) % m]),
                (one, B[(i - 1) % m], to(n - 1, i - 1), E[(i - n) % m]),
            ]
        else:
            flip = (n + r) % 2
            k = (i + n - 2 * r) % m
            q_n = q_product(alg, i - r + 1, n - r)
            q_r = q_product(alg, i - r + 1, r)
            terms = [
                (one, E[i], to(r, i), A[(k - 1) % m]),
                (-q_n if odd else q_n, E[i], to(r - 1, i), B[k]),
                (-q_r if flip else q_r, A[i], to(r, i + 1), E[k]),
                (minus_one if flip else one, B[(i - 1) % m], to(r - 1, i - 1), E[k]),
            ]
        assignments[gen] = terms
    return assignments


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 16])
def test_lazy_differential_matches_the_eager_reference(m):
    # unequal parameters, so every q-run coefficient shows
    alg = algebra(m, (F(7, 3),) + (F(-5, 2),) * (m - 1))
    for n in range(1, 2 * m + 7):
        d = differential(n, alg)
        gens = generators(n, m)
        if n % 2:
            # read some images first, out of order: assignments still
            # lists every generator in generator order
            for gen in gens[::-3]:
                d.terms(gen)
        ref = BimoduleMap(alg, n, n - 1, eager_differential(n, alg)).assignments
        assert list(d.assignments.items()) == list(ref.items()), n
        assert all(d.terms(gen) is d.assignments[gen] for gen in ref)
        for terms in d.assignments.values():
            assert all(type(c) is F for c, *_ in terms)


def test_lazy_differential_checks_what_it_reads():
    alg = algebra(3, (2, 1, 1))
    d = differential(2, alg)
    with pytest.raises(ValueError, match="not a generator of P\\^2"):
        d.terms(Generator(3, 0, 0))
    with pytest.raises(ValueError, match="not a generator of P\\^2"):
        d.terms(Generator(2, 0, 3))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 16])
def test_a_read_builds_the_images_of_its_whole_row(m):
    alg = algebra(m, (F(7, 3),) + (F(-5, 2),) * (m - 1))
    n = 3
    d = differential(n, alg)
    rows = generator_rows(n, m)
    for r in (0, 1, n):
        before = dict(d._terms)
        got = d.terms(Generator(n, r, m - 1))
        added = {gen: terms for gen, terms in d._terms.items() if gen not in before}
        assert list(added) == list(rows[r]), r
        assert all(gen is rows[r][gen.i] for gen in added)
        assert got is added[rows[r][m - 1]]
        # the rest of the row is read without a rebuild
        assert all(d.terms(gen) is added[gen] for gen in rows[r])
        assert len(d._terms) == len(before) + m


def test_a_broken_image_refuses_every_read_of_its_row():
    # a_0 and a_1 trade places in the basis the closed form reads, so the
    # images of G(1;0,0) and G(1;0,1) are wrong and that of G(1;0,3) is not
    alg = algebra(5, (2, 1, 1, 1, 1))
    basis = list(alg.basis)
    basis[5], basis[6] = basis[6], basis[5]
    alg.basis = basis
    d = differential(1, alg)
    for _ in range(2):
        with pytest.raises(ValueError, match="right factor a1 of G\\(1;0,0\\)"):
            d.terms(Generator(1, 0, 3))
    assert d._terms == {}
    # row r = 1 reads no a_i, so it is built and kept
    assert d.terms(Generator(1, 1, 3))
    assert set(d._terms) == set(generator_rows(1, 5)[1])


def test_refusing_a_non_generator_builds_nothing(monkeypatch):
    fresh_rows(monkeypatch)
    alg = algebra(3, (2, 1, 1))
    d = differential(2, alg)
    for bad in (Generator(3, 0, 0), Generator(2, 0, 3), Generator(1, 0, 0), (2, 0, 0)):
        with pytest.raises(ValueError, match="not a generator of P\\^2"):
            d.terms(bad)
    assert d._terms == {}
    assert not generator_rows(2, 3) and not generator_rows(1, 3)



def test_terms_refuses_a_non_generator_on_a_hit_as_on_a_miss():
    # the plain tuple (2, 0, 0) equals G(2;0,0), so once that row is stored
    # it finds the stored key; a dict map has no row to build
    alg = algebra(3, (2, 1, 1))
    d = differential(2, alg)
    bad = ((2, 0, 0), "junk", Generator(5, 0, 0), Generator(2, 0, 3), Generator(1, 0, 0))
    gen, absent = Generator(2, 0, 0), Generator(2, 1, 0)
    for stage in ("fresh", "row built", "all built", "dict"):
        if stage == "row built":
            d.terms(gen)
        elif stage == "all built":
            d.assignments
        elif stage == "dict":
            d = BimoduleMap(alg, 2, 1, {gen: d.terms(gen)})
        for key in bad:
            with pytest.raises(ValueError, match="not a generator of P\\^2"):
                d.terms(key)
        assert d.terms(gen), stage
    # a generator with no stored image reads no terms
    assert d.terms(absent) == []
    assert d.terms(Generator(2, 2, 1)) == []

COPRIME_Q = (F(7, 3), F(-5, 2), F(1, 9), F(3), F(2))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_differential_matches_g_recursion_coefficients(m):
    # the right face carries the right recursion's coefficients and the left
    # face (-1)^n times the left recursion's: (-1)^r q_{i-r+1} ... q_i at a_i
    # and (-1)^r at abar_{i-1}.  Terms are keyed by (target, left factor), as
    # at m <= 2 the left-face targets can equal the right-face ones.
    zetas = (F(2), F(1), F(-1))
    spread = [(z,) if m == 1 else (3 * z, F(1, 3)) + (F(1),) * (m - 2) for z in zetas]
    for q in spread + [COPRIME_Q[:m]]:
        check_differential_against_g_recursions(algebra(m, q))


def check_differential_against_g_recursions(alg):
    m = alg.m
    for n in range(1, 7):
        d = differential(n, alg)
        for gen in generators(n, m):
            r, i = gen.r, gen.i
            k = (i + n - 2 * r) % m
            by_key = {}
            for c, l, t, rr in d.terms(gen):
                assert (t, l) not in by_key
                by_key[t, l] = (c, rr)
            want = {}
            if r <= n - 1:
                want[Generator(n - 1, r, i), e(i)] = (1, a((k - 1) % m))
            if r >= 1:
                coeff = F((-1) ** n) * q_product(alg, i - r + 1, n - r)
                want[Generator(n - 1, r - 1, i), e(i)] = (coeff, abar(k))
            if r <= n - 1:
                coeff = F((-1) ** (n + r)) * q_product(alg, i - r + 1, r)
                want[Generator(n - 1, r, (i + 1) % m), a(i)] = (coeff, e(k))
            if r >= 1:
                j = (i - 1) % m
                want[Generator(n - 1, r - 1, j), abar(j)] = (F((-1) ** (n + r)), e(k))
            assert by_key == want


def test_underlying_dimensions():
    alg = algebra(1, (2,))
    assert p_dimension(alg, 0) == 16
    assert p_dimension(alg, 1) == 32
    mat = underlying_matrix(differential(1, alg))
    assert (mat.rows, mat.cols) == (16, 32)


def test_zero_map_matrix_is_zero():
    alg = algebra(2, (3, 1))
    assert underlying_matrix(zero_map(alg, 2, 1)).is_zero()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rank_sum_exactness(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    m1 = underlying_matrix(differential(1, alg))
    m2 = underlying_matrix(differential(2, alg))
    assert linalg.rank(m1) + linalg.rank(m2) == p_dimension(alg, 1)


def test_map_and_matrix_complex_checks_agree():
    alg = algebra(2, (3, 1))
    d1 = differential(1, alg)
    d2 = differential(2, alg)
    assert compose(d1, d2).is_zero()
    assert underlying_matrix(d1).matmul(underlying_matrix(d2)).is_zero()


def traced_underlying(monkeypatch):
    """Wrap `resolution.underlying_matrix`.  Per call, record a weak
    reference to its result and whether that is the very object the call
    before returned; the wrapper holds no matrix, so it keeps none alive."""
    real = resolution.underlying_matrix
    calls = []

    def wrapper(f):
        mat = real(f)
        calls.append((weakref.ref(mat), bool(calls) and calls[-1][0]() is mat))
        return mat

    monkeypatch.setattr(resolution, "underlying_matrix", wrapper)
    return calls


@pytest.mark.parametrize("m,N", [(1, 5), (3, 8)])
def test_check_complex_flattens_each_differential_once(m, N, monkeypatch):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    calls = traced_underlying(monkeypatch)
    assert check_complex(N, alg)
    # d^n o d^{n+1} for 1 <= n < N: two calls each, and the left factor
    # d^n is the object the call before returned as the right factor
    repeats = [again for _, again in calls]
    assert len(calls) == 2 * (N - 1)
    assert repeats == [False, False] + [True, False] * (N - 2)
    assert repeats.count(False) == N


def test_check_complex_leaves_no_flattened_matrix_alive(monkeypatch):
    alg = algebra(3, (2, 1, 1))
    calls = traced_underlying(monkeypatch)
    assert check_complex(8, alg)
    gc.collect()
    assert calls and all(ref() is None for ref, _ in calls)


def test_a_rebuilt_flattening_equals_the_first():
    alg = algebra(3, (F(7, 3), F(-5, 2), F(1, 9)))
    d = differential(4, alg)
    first = underlying_matrix(d)
    assert underlying_matrix(d) is first
    snapshot = (first.rows, first.cols, [list(row.items()) for row in first._rows])
    ref = weakref.ref(first)
    del first
    gc.collect()
    assert ref() is None
    again = underlying_matrix(d)
    assert again == multiply_underlying(d)
    assert (again.rows, again.cols, [list(row.items()) for row in again._rows]) == snapshot
    assert_fraction_entries(again)


def test_augmentation_composite_vanishes():
    alg = algebra(3, (2, 1, 1))
    for gen, val in augment(differential(1, alg)).items():
        assert val == {}


@pytest.mark.parametrize(
    "m,q",
    [
        pytest.param(m, (zeta,) + (1,) * (m - 1), id=f"{m}" if zeta == 2 else f"{m}-zeta={zeta}")
        for zeta in (2, 1, -1)
        for m in (1, 2, 3, 5)
    ],
)
def test_augmentation_check_catches_a_broken_d1(m, q, monkeypatch):
    # with N = 1 there is no d o d to compose: only the augmentation check
    # runs, on d^1 with only the first term of each image kept
    alg = algebra(m, q)
    d1 = differential(1, alg)
    bad = BimoduleMap(alg, 1, 0, {gen: d1.terms(gen)[:1] for gen in generators(1, m)})
    assert any(augment(bad).values())
    assert check_complex(1, alg)
    replace_differential(monkeypatch, 1, bad)
    assert not check_complex(1, alg)


def test_augmentation_matrix_surjective():
    alg = algebra(3, (2, 1, 1))
    assert linalg.rank(augmentation_matrix(alg)) == 4 * alg.m


@pytest.mark.parametrize("zeta", [F(2), F(1), F(-1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_augmentation_matrix_columns_follow_the_p0_basis(m, zeta):
    # the columns are the reference basis of P^0, in its order, so the
    # matrix composes with the flattened d^1 to zero
    q = (zeta,) if m == 1 else (3 * zeta, F(1, 3)) + (F(1),) * (m - 2)
    alg = algebra(m, q)
    ref = linalg.Matrix(len(alg.basis), p_dimension(alg, 0))
    for col, (_gen, bl, br) in enumerate(_p_basis(0, alg)):
        prod = alg._monomial_product(bl, br)
        if prod is not None:
            ref.add_to_entry(alg.basis_index[prod[0]], col, prod[1])
    mat = augmentation_matrix(alg)
    assert mat == ref
    assert mat.matmul(underlying_matrix(differential(1, alg))).is_zero()


@pytest.mark.parametrize(
    "m,q,N",
    [(2, (3, 1), 5), (3, (2, 1, 1), 4), (1, (1,), 4), (8, (2,) + (1,) * 7, 22)],
)
def test_exactness_desk_scale(m, q, N):
    # valid for every nonzero q, including zeta a root of unity
    alg = algebra(m, q)
    ok, rows = verify_exactness(N, alg)
    assert ok, rows
    assert [row["degree"] for row in rows] == list(range(N))


def replace_differential(monkeypatch, degree, bad):
    """Make `resolution.differential` return bad in the given degree."""
    real = resolution.differential
    monkeypatch.setattr(
        resolution, "differential", lambda n, alg: bad if n == degree else real(n, alg)
    )


def flip_one_sign(d, alg):
    gen = next(iter(d.assignments))
    assignments = {g: list(ts) for g, ts in d.assignments.items()}
    c, left, target, right = assignments[gen][0]
    assignments[gen][0] = (-c, left, target, right)
    return BimoduleMap(alg, d.source_degree, d.target_degree, assignments)


def test_fault_injection_breaks_complex(monkeypatch):
    alg = algebra(3, (2, 1, 1))
    bad = flip_one_sign(differential(2, alg), alg)
    replace_differential(monkeypatch, 2, bad)
    # check_complex raises if the map and matrix paths disagree, so a False
    # result means both of them found d o d != 0
    assert not check_complex(2, alg)


def rule_multiply(alg):
    """Reference product of combinations {monomial: coefficient}, from the
    product rule of two basis monomials rather than the structure-constant
    table."""
    rule = {}
    for x in alg.basis:
        for y in alg.basis:
            prod = alg._monomial_product(x, y)
            rule[x, y] = {} if prod is None else {prod[0]: prod[1]}

    def multiply(x, y):
        out = {}
        for mx, cx in x.items():
            for my, cy in y.items():
                add_into(out, rule[mx, my], cx * cy)
        return out

    return multiply


def multiply_underlying(f):
    """Reference assembly: for every source column (gen, bl, br) and every
    term, multiply whole combinations."""
    alg = f.alg
    multiply = rule_multiply(alg)
    source = _p_basis(f.source_degree, alg)
    target_index = _p_basis_index(f.target_degree, alg)
    mat = linalg.Matrix(len(target_index), len(source))
    for col, (gen, bl, br) in enumerate(source):
        for c, left, target, right in f.terms(gen):
            new_left = multiply({bl: 1}, {left: c})
            new_right = multiply({right: 1}, {br: 1})
            for ml, cl in new_left.items():
                for mr, cr in new_right.items():
                    mat.add_to_entry(target_index[(target, ml, mr)], col, cl * cr)
    return mat


def multiply_compose(f, g):
    """Reference composite f after g, as {gen: {(target, ml, mr): coeff}}."""
    multiply = rule_multiply(f.alg)
    out = {}
    for gen, terms in g.assignments.items():
        acc = {}
        for c1, l1, mid, r1 in terms:
            for c2, l2, target, r2 in f.terms(mid):
                left = multiply({l1: c1}, {l2: c2})
                right = multiply({r2: 1}, {r1: 1})
                for ml, cl in left.items():
                    for mr, cr in right.items():
                        key = (target, ml, mr)
                        acc[key] = acc.get(key, F(0)) + cl * cr
        acc = {key: c for key, c in acc.items() if c}
        if acc:
            out[gen] = acc
    return out


def fraction_compose(f, g):
    """Reference composite f after g, as {gen: terms}: the loop of `compose`
    in Fraction arithmetic.  Each (left, target, right) key is stored on
    first touch and deleted when its sum reaches zero, so a later touch
    puts it last."""
    product = f.alg.product
    out = {}
    for gen, terms in g.assignments.items():
        acc = {}
        for c1, l1, mid, r1 in terms:
            for c2, l2, target, r2 in f.terms(mid):
                left, right = product(l1, l2), product(r2, r1)
                if left is None or right is None:
                    continue
                key = (left[0], target, right[0])
                s = acc.get(key, F(0)) + c1 * c2 * left[1] * right[1]
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        if acc:
            out[gen] = [(c, ml, target, mr) for (ml, target, mr), c in acc.items()]
    return out


def assert_matches_fraction_compose(f, g):
    """compose(f, g) has the reference's terms, in the same order, each
    with a nonzero Fraction coefficient."""
    fg = compose(f, g)
    assert list(fg.assignments.items()) == list(fraction_compose(f, g).items())
    for terms in fg.assignments.values():
        for c, *_ in terms:
            assert type(c) is F and c


def collected(f):
    """The terms of a map, as in `multiply_compose`."""
    out = {}
    for gen, terms in f.assignments.items():
        acc = {}
        for c, ml, target, mr in terms:
            key = (target, ml, mr)
            assert key not in acc
            acc[key] = c
        out[gen] = acc
    return out


def assert_fraction_entries(mat):
    for row in mat._rows:
        for v in row.values():
            assert type(v) is F and v


def entry_stencil(left, right, alg):
    """The stencil of (left, right) one product at a time, from the product
    rule rather than the structure-constant table: (column offset, row
    offset, coefficient) triples in (bl, br) order."""
    m = alg.m
    lefts = alg.monomials_into(left.terminus(m))
    rights = alg.monomials_from(right.origin(m))
    triples = []
    for k, bl in enumerate(alg.monomials_into(left.origin(m))):
        for j, br in enumerate(alg.monomials_from(right.terminus(m))):
            new_left, new_right = alg._monomial_product(bl, left), alg._monomial_product(right, br)
            if new_left is not None and new_right is not None:
                row = 4 * lefts.index(new_left[0]) + rights.index(new_right[0])
                triples.append((4 * k + j, row, new_left[1] * new_right[1]))
    return triples


def flat_underlying(f):
    """Reference flattening, as the row dicts of `underlying_matrix`: each
    term walks its per-entry stencil and adds c times each coefficient, a
    key is stored on first touch and deleted when its sum reaches zero."""
    alg = f.alg
    m, n = alg.m, f.target_degree
    rows = [{} for _ in range(16 * m * (n + 1))]
    for gen in generators(f.source_degree, m):
        col = 16 * (gen.i * (f.source_degree + 1) + gen.r)
        for c, left, target, right in f.terms(gen):
            base = 16 * (target.i * (n + 1) + target.r)
            for dc, dr, coeff in entry_stencil(left, right, alg):
                row = rows[base + dr]
                s = row.get(col + dc, F(0)) + c * coeff
                if s:
                    row[col + dc] = s
                else:
                    del row[col + dc]
    return rows


def assert_flattened_in_entry_order(f):
    """underlying_matrix(f) has the reference's rows, with their keys in
    the same order, and every entry a Fraction."""
    mat = underlying_matrix(f)
    assert [list(row.items()) for row in mat._rows] == [
        list(row.items()) for row in flat_underlying(f)
    ]
    assert_fraction_entries(mat)


@pytest.mark.parametrize("zeta", [F(2), F(1, 3), F(1), F(-1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_assembly_matches_the_multiply_reference(m, zeta):
    # spread zeta over unequal parameters, so every q-run coefficient shows
    q = (zeta,) if m == 1 else (3 * zeta, F(1, 3)) + (F(1),) * (m - 2)
    alg = algebra(m, q)
    for n in range(1, 2 * m + 7):
        d = differential(n, alg)
        mat = underlying_matrix(d)
        assert mat == multiply_underlying(d), n
        assert_flattened_in_entry_order(d)
        assert not any(0 in row.values() for row in mat._rows), n
        if n > 1:
            prev = differential(n - 1, alg)
            assert collected(compose(prev, d)) == multiply_compose(prev, d), n
            assert_matches_fraction_compose(prev, d)
            assert_matches_fraction_compose(d, identity_map(n, alg))
            for h in (compose(prev, d), compose(d, identity_map(n, alg))):
                assert h.is_zero() == coords_zero(h), n
            # d o d = 0: every product cancels and none is stored
            assert all(row == {} for row in underlying_matrix(prev).matmul(mat)._rows), n


@pytest.mark.parametrize(
    "q",
    [(F(2),), (F(-1),), (F(2), F(1, 3)), (F(-1), F(1, 3), F(-5, 2))],
    ids=lambda q: ",".join(map(str, q)),
)
def test_stencils_group_products_by_coefficient(q):
    alg = algebra(len(q), q)
    scaled = 0
    for left in alg.basis:
        for right in alg.basis:
            groups = resolution._stencil(left, right, alg)
            keys = [coeff for coeff, _ in groups]
            assert len(set(keys)) == len(keys) and 1 not in keys
            flat = [
                (dc, dr, F(1) if coeff is None else coeff)
                for coeff, offsets in groups
                for dc, dr in offsets
            ]
            reference = entry_stencil(left, right, alg)
            assert len(flat) == len(reference)
            assert set(flat) == set(reference)
            # one product per row offset, so grouping keeps each row's key order
            assert len({dr for _, dr, _ in flat}) == len(flat)
            scaled += any(coeff is not None for coeff in keys)
    assert scaled


def loop_stencil(left, right, alg):
    """`_stencil` as a double loop over (bl, br): both products taken for
    every pair, their coefficients always multiplied, the groups keyed by
    the Fraction."""
    m = alg.m
    lefts = alg.monomials_into(left.terminus(m))
    rights = alg.monomials_from(right.origin(m))
    out_of = alg.monomials_from(right.terminus(m))
    groups = {}
    for k, bl in enumerate(alg.monomials_into(left.origin(m))):
        for j, br in enumerate(out_of):
            new_left, new_right = alg.product(bl, left), alg.product(right, br)
            if new_left is not None and new_right is not None:
                coeff = new_left[1] * new_right[1]
                row = 4 * lefts.index(new_left[0]) + rights.index(new_right[0])
                groups.setdefault(None if coeff == 1 else coeff, []).append((4 * k + j, row))
    return list(groups.items())


STENCIL_Q = (F(7, 3), F(-5, 2), F(1, 9), F(3), F(2), F(-1, 7), F(5, 11), F(-13, 4))


def stencil_algebra(m, kind):
    """An algebra at m <= 8 with generic q, with zeta = +1 or -1 reached
    through unequal parameters, or with every q_i = 1."""
    if kind == "ones":
        return algebra(m, (F(1),) * m)
    head = STENCIL_Q[: m - 1]
    last = {"generic": STENCIL_Q[m - 1], "zeta=1": F(1), "zeta=-1": F(-1)}[kind]
    prod = F(1)
    for v in head:
        prod *= v
    return algebra(m, head + (last if kind == "generic" else last / prod,))


STENCIL_CASES = pytest.mark.parametrize("kind", ["generic", "zeta=1", "zeta=-1", "ones"])
STENCIL_MS = pytest.mark.parametrize("m", [1, 2, 3, 8])


@STENCIL_CASES
@STENCIL_MS
def test_stencil_is_the_double_loop_over_every_pair(m, kind):
    alg = stencil_algebra(m, kind)
    if kind != "generic":
        assert alg.zeta == (-1 if kind == "zeta=-1" else 1)
    for left in alg.basis:
        for right in alg.basis:
            got, want = resolution._stencil(left, right, alg), loop_stencil(left, right, alg)
            # equal lists of the same types, in the same order
            assert got == want and repr(got) == repr(want), (left, right)


def test_stencil_table_holds_the_pairs_of_the_differentials():
    N = 7
    alg = algebra(3, (F(2), F(-1, 3), F(5)))
    assert check_complex(N, alg)
    table = resolution._stencils(alg)
    pairs = {
        (left, right)
        for n in range(1, N + 1)
        for gen in generators(n, alg.m)
        for _c, left, _target, right in differential(n, alg).terms(gen)
    }
    assert set(table) == pairs
    for (left, right), groups in table.items():
        assert groups == resolution._stencil(left, right, alg)
    # another q gets its own table, first empty
    other = algebra(3, (F(3), F(-1, 3), F(5)))
    assert resolution._stencils(other) is not table
    assert resolution._stencils(other) == {}
    underlying_matrix(differential(2, other))
    assert set(resolution._stencils(other)) < pairs


def echoed(f):
    """f with each generator's first term appended negated, then once more:
    the keys that only this term reaches cancel and are touched again."""
    assignments = {
        gen: terms + [(-terms[0][0], *terms[0][1:]), terms[0]]
        for gen, terms in f.assignments.items()
    }
    return BimoduleMap(f.alg, f.source_degree, f.target_degree, assignments)


small_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@st.composite
def bimodule_maps(draw, alg, source_degree, target_degree, coeffs=small_coeffs):
    """A random map with several terms per (generator, target); their
    (left, right) pairs may repeat, so like terms need collecting."""
    m = alg.m
    assignments = {}
    for gen in generators(source_degree, m):
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            target = draw(st.sampled_from(generators(target_degree, m)))
            lefts = alg.corner_basis(gen.i, target.i)
            rights = alg.corner_basis(target.terminus(m), gen.terminus(m))
            if not lefts or not rights:
                continue
            for _ in range(draw(st.integers(1, 4))):
                left = draw(st.sampled_from(lefts))
                right = draw(st.sampled_from(rights))
                terms.append((draw(coeffs), left, target, right))
        assignments[gen] = terms
    return BimoduleMap(alg, source_degree, target_degree, assignments)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_assembly_of_random_maps_matches_the_multiply_reference(data):
    m = data.draw(st.integers(1, 3))
    q = data.draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
            min_size=m,
            max_size=m,
        )
    )
    alg = algebra(m, q)
    a_deg, b_deg, c_deg = (data.draw(st.integers(0, 2)) for _ in range(3))
    g = data.draw(bimodule_maps(alg, c_deg, a_deg))
    f = data.draw(bimodule_maps(alg, a_deg, b_deg))
    for h in (f, g):
        assert h.is_zero() == coords_zero(h) == echoed(h).is_zero()
        assert underlying_matrix(h) == multiply_underlying(h)
        assert_flattened_in_entry_order(h)
        assert_flattened_in_entry_order(echoed(h))
    fg = compose(f, g)
    assert collected(fg) == multiply_compose(f, g)
    assert underlying_matrix(fg) == multiply_underlying(f).matmul(multiply_underlying(g))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_matches_the_fraction_reference(data):
    m = data.draw(st.integers(1, 3))
    q = data.draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=10**6).filter(bool),
            min_size=m,
            max_size=m,
        )
    )
    alg = algebra(m, q)
    coeffs = st.one_of(
        small_coeffs,
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12).filter(bool),
    )
    a_deg, b_deg, c_deg = (data.draw(st.integers(0, 2)) for _ in range(3))
    f = data.draw(bimodule_maps(alg, a_deg, b_deg, coeffs))
    g = data.draw(bimodule_maps(alg, c_deg, a_deg, coeffs))
    assert_matches_fraction_compose(f, g)
    assert_matches_fraction_compose(f, echoed(g))
