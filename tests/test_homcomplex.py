from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from hhdeform import cli, homcomplex, linalg, resolution
from hhdeform.algebra import Algebra, NonGenericParameters, algebra, e, z
from hhdeform.homcomplex import (
    _blocks,
    coboundary_matrix,
    cohomology_dimension,
    expected_cohomology_dim,
    expected_hom_dimension,
    expected_image_dim,
    expected_kernel_dim,
    hom_dimension,
    hom_space_basis,
    kernel_image_dims,
    kernel_image_table,
    pullback_matrix,
)
from hhdeform.resolution import (
    BimoduleMap,
    Generator,
    compose,
    differential,
    generator_rows,
    generators,
)
from hhdeform.ring import canonical_generators, ring_report
from test_algebra import add_into
from test_linalg import assert_same_rows, counted_eliminations
from test_resolution import bimodule_maps, fresh_rows, small_coeffs
from test_ring import slot_lifts

F = Fraction


def test_hom_basis_sizes():
    assert hom_dimension(0, algebra(3, (2, 1, 1))) == 6
    assert hom_dimension(1, algebra(2, (3, 1))) == 8
    assert hom_dimension(2, algebra(1, (2,))) == 12


def test_hom_dimension_examples():
    alg = algebra(3, (2, 1, 1))
    assert hom_dimension(4, alg) == 18
    assert hom_dimension(2, alg) == 12
    assert hom_dimension(5, algebra(2, (3, 1))) == 24


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_hom_dimension_closed_form(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    for n in range(3 * m + 3):
        assert hom_dimension(n, alg) == expected_hom_dimension(n, m)


def test_coboundary_ranks():
    assert linalg.rank(coboundary_matrix(0, algebra(3, (2, 1, 1)))) == 2
    assert linalg.rank(coboundary_matrix(1, algebra(2, (3, 1)))) == 5


def test_d_squared_zero():
    for m, q in [(1, (2,)), (2, (3, 1)), (3, (2, 1, 1))]:
        alg = algebra(m, q)
        for n in range(5):
            prod = coboundary_matrix(n + 1, alg).matmul(coboundary_matrix(n, alg))
            assert prod.is_zero()


def test_kernel_image_examples():
    assert kernel_image_dims(2, algebra(3, (2, 1, 1))) == (3, 2)
    assert kernel_image_dims(3, algebra(2, (3, 1))) == (6, 6)
    assert kernel_image_dims(0, algebra(4, (2, 1, 1, 1))) == (5, 0)


def cohomology_table(alg, N):
    for n in range(N + 1):
        kernel_image_dims(n, alg)


def test_each_coboundary_is_ranked_once(monkeypatch):
    calls = counted_eliminations(monkeypatch)
    alg = algebra(3, (2, 1, 1))
    N = 12
    cohomology_table(alg, N)
    assert len(calls) == N + 1
    # a second table over the same algebra eliminates nothing
    cohomology_table(alg, N)
    assert len(calls) == N + 1
    # the ring reads the pivots and ranks kept on d^0..d^8: it eliminates
    # only its 9 complement matrices and the independence check of u1, u2
    ring_report(alg, 8)
    assert len(calls) == N + 1 + 10
    # whichever comes first eliminates each coboundary: ring then table
    # is 9 coboundaries, 9 complements and one check, then d^9..d^12
    calls.clear()
    alg = algebra(3, (2, 1, 1))
    ring_report(alg, 8)
    assert len(calls) == 19
    cohomology_table(alg, N)
    assert len(calls) == 19 + 4


def test_coboundary_read_order_is_unchanged(monkeypatch):
    # the coboundaries are still read twice per degree, d^n then d^{n-1}:
    # the ranks are memoised below those reads, not instead of them
    degrees = []
    read = homcomplex.coboundary_matrix

    def recorded(n, alg):
        degrees.append(n)
        return read(n, alg)

    monkeypatch.setattr(homcomplex, "coboundary_matrix", recorded)
    N = 10
    cli.degree_rows(algebra(4, (2, 1, 1, 1)), N)
    # [0, 1, 0, 2, 1, 3, 2, ...]
    assert degrees == [0] + [d for n in range(1, N + 1) for d in (n, n - 1)]


@pytest.mark.parametrize("zeta", [F(2), F(1), F(-1)])
@pytest.mark.parametrize("m", range(1, 7))
def test_the_table_equals_the_per_degree_reads(m, zeta):
    q = (zeta,) + (1,) * (m - 1)
    top = 2 * m + 6
    reads = algebra(m, q)
    want = [(hom_dimension(n, reads), *kernel_image_dims(n, reads)) for n in range(top + 1)]
    assert kernel_image_table(top, algebra(m, q)) == want


def memo_degrees(alg):
    """{function name: sorted degrees} of the per-degree entries in alg.cache."""
    held = {}
    for fn, args in alg.cache:
        if args:
            held.setdefault(fn.__name__, []).append(args[0])
    return {name: sorted(degrees) for name, degrees in held.items()}


@pytest.mark.parametrize("m, N", [(1, 6), (3, 12), (5, 16)])
def test_a_table_keeps_only_what_a_later_degree_reads(m, N):
    alg = algebra(m, (F(7, 3),) + (1,) * (m - 1))
    cli.degree_rows(alg, N)
    held = memo_degrees(alg)
    assert held["coboundary_matrix"] == [N]
    assert held["_blocks"] == [N, N + 1]
    assert "differential" not in held


def test_a_forgotten_coboundary_is_rebuilt_equal():
    alg = algebra(3, (F(7, 3), F(-5, 2), 1))
    dropped = coboundary_matrix(3, alg)
    kernel_image_table(8, alg)
    assert memo_degrees(alg)["coboundary_matrix"] == [8]
    assert cohomology_dimension(3, alg) == expected_cohomology_dim(3, 3)
    rebuilt = coboundary_matrix(3, alg)
    assert rebuilt is not dropped
    assert_same_rows(rebuilt, dropped)


def test_forgetting_an_absent_entry_is_a_no_op():
    alg = algebra(2, (3, 1))
    coboundary_matrix.forget(4, alg)
    differential.forget(5, alg)
    _blocks.forget(0, alg)
    assert alg.cache == {}
    d2 = coboundary_matrix(2, alg)
    held = dict(alg.cache)
    coboundary_matrix.forget(4, alg)
    _blocks.forget(7, alg)
    assert alg.cache == held
    coboundary_matrix.forget(2, alg)
    coboundary_matrix.forget(2, alg)
    assert coboundary_matrix(2, alg) is not d2


def fresh_kernel_image_dims(n, m, q):
    """(dim ker d^n, dim im d^{n-1}) ranked on an algebra built for this
    call alone, so no rank is memoised."""
    alg = algebra(m, q)
    dn = coboundary_matrix(n, alg)
    im = linalg.rank(coboundary_matrix(n - 1, alg)) if n >= 1 else 0
    return dn.cols - linalg.rank(dn), im


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_memoised_ranks_match_fresh_ranks(m):
    # the three zeta interleave degree by degree, so a rank table shared
    # between algebras hands one algebra the ranks of another
    qs = [(zeta,) + (1,) * (m - 1) for zeta in (F(2), F(1), F(-1))]
    algs = [algebra(m, q) for q in qs]
    for n in range(2 * m + 7):
        for q, alg in zip(qs, algs):
            ker, im = fresh_kernel_image_dims(n, m, q)
            assert kernel_image_dims(n, alg) == (ker, im), (n, q)
            assert cohomology_dimension(n, alg, allow_non_generic=True) == ker - im


@pytest.mark.parametrize("read", [hom_space_basis, hom_dimension, kernel_image_dims])
def test_negative_degrees_are_refused(read):
    with pytest.raises(ValueError, match="degree -1"):
        read(-1, algebra(3, (2, 1, 1)))


def test_kernel_basis_structure_degree_0():
    # sigma coordinates all equal, tau coordinates free
    m = 3
    alg = algebra(m, (2, 1, 1))
    basis = hom_space_basis(0, alg)
    vectors = linalg.kernel_basis(coboundary_matrix(0, alg))
    assert len(vectors) == m + 1
    e_positions = [k for k, (g, mono) in enumerate(basis) if mono.kind == "e"]
    z_positions = [k for k, (g, mono) in enumerate(basis) if mono.kind == "z"]
    for vec in vectors:
        sigmas = {vec[k] for k in e_positions}
        assert len(sigmas) == 1  # propagation forces all sigma equal
    # the tau-only standard vectors are in the kernel
    d0 = coboundary_matrix(0, alg)
    for k in z_positions:
        vec = [F(0)] * d0.cols
        vec[k] = F(1)
        assert not any(d0.mul_vector(vec))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_kernel_image_closed_forms(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    for n in range(2 * m + 5):
        ker, im = kernel_image_dims(n, alg)
        assert ker == expected_kernel_dim(n, m)
        assert im == expected_image_dim(n, m)



@pytest.mark.parametrize("m", [6, 8, 16])
def test_the_dimension_table_matches_every_closed_form(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    top = 2 * m + 6
    want = [
        (expected_hom_dimension(n, m), expected_kernel_dim(n, m), expected_image_dim(n, m))
        for n in range(top + 1)
    ]
    assert kernel_image_table(top, alg) == want

def test_kernel_image_closed_forms_m2():
    alg = algebra(2, (3, 1))
    for n in range(10):
        ker, im = kernel_image_dims(n, alg)
        assert ker == expected_kernel_dim(n, 2)
        assert im == expected_image_dim(n, 2)


def test_cohomology_dimensions():
    alg = algebra(3, (2, 1, 1))
    assert [cohomology_dimension(n, alg) for n in range(5)] == [4, 2, 1, 0, 0]
    assert cohomology_dimension(0, algebra(2, (3, 1))) == 3
    alg1 = algebra(1, (2,))
    assert sum(cohomology_dimension(n, alg1) for n in range(3)) == 5


def test_non_generic_refused():
    alg = algebra(2, (1, 1))
    with pytest.raises(NonGenericParameters):
        cohomology_dimension(0, alg)
    with pytest.raises(NonGenericParameters):
        cohomology_dimension(3, alg)
    # override allowed, and the raw dimensions diverge from the generic table
    assert cohomology_dimension(3, alg, allow_non_generic=True) > 0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_generic_cohomology_table(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    dims = [cohomology_dimension(n, alg) for n in range(9)]
    assert dims == [expected_cohomology_dim(n, m) for n in range(9)]
    assert sum(dims) == m + 4


def test_zeta_only_dependence():
    tables = []
    for q in [(2, 1, 1), (1, 2, 1), (F(1, 2), 4, 1)]:
        alg = algebra(3, q)
        assert alg.zeta == 2
        tables.append(
            [
                (hom_dimension(n, alg),) + kernel_image_dims(n, alg)
                for n in range(9)
            ]
        )
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16, 32])
def test_hom_basis_matches_the_walk_over_every_generator(m):
    # reference: every generator of P^n in `generators` order, each
    # followed by its corner monomials, empty corners included
    alg = algebra(m, (2,) + (1,) * (m - 1))
    for n in range(2 * m + 7):
        walk = [
            (gen, mono)
            for gen in generators(n, m)
            for mono in alg.corner_basis(gen.i, (gen.i + n - 2 * gen.r) % m)
        ]
        assert hom_space_basis(n, alg) == walk, n


def test_cochain_value_lands_in_corner():
    alg = algebra(3, (2, 1, 1))
    for gen, mono in hom_space_basis(2, alg):
        assert mono.origin(alg.m) == gen.i
        assert mono.terminus(alg.m) == gen.terminus(alg.m)


def scan_coboundary(n, alg):
    """Reference assembly: for each source column (gen0, mono0), scan every
    generator of P^{n+1} and keep the terms of d^{n+1} that land on gen0."""
    source = hom_space_basis(n, alg)
    target_index = {item: k for k, item in enumerate(hom_space_basis(n + 1, alg))}
    d = differential(n + 1, alg)
    mat = linalg.Matrix(len(target_index), len(source))
    for col, (gen0, mono0) in enumerate(source):
        for gen in generators(n + 1, alg.m):
            acc = {}
            for c, left, tgt, right in d.terms(gen):
                if tgt == gen0:
                    add_into(acc, alg.multiply(alg.multiply({left: c}, {mono0: 1}), {right: 1}))
            for mono, c in acc.items():
                mat.add_to_entry(target_index[(gen, mono)], col, c)
    return mat


@pytest.mark.parametrize("zeta", [F(2), F(1, 3), F(1), F(-1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_coboundary_matches_the_scan_reference(m, zeta):
    # spread zeta over unequal parameters, so every q-run coefficient shows
    q = (zeta,) if m == 1 else (3 * zeta, F(1, 3)) + (F(1),) * (m - 2)
    alg = algebra(m, q)
    for n in range(7):
        assert coboundary_matrix(n, alg) == scan_coboundary(n, alg), n


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pullback_is_functorial(m):
    # (f o g)^* = g^* f^*, for pairs of differentials (a zero composite)
    # and for each lifting level of x_0, u1 and u2 before and after a
    # differential
    alg = algebra(m, (2,) + (1,) * (m - 1))
    pairs = [(differential(n, alg), differential(n + 1, alg)) for n in range(1, 6)]
    xs, u1, u2 = canonical_generators(alg)
    for cls in (xs[0], u1, u2):
        for lift in slot_lifts(cls.representative, 2, alg):
            pairs.append((lift, differential(lift.source_degree + 1, alg)))
            if lift.target_degree:
                pairs.append((differential(lift.target_degree, alg), lift))
    for f, g in pairs:
        composite = pullback_matrix(compose(f, g))
        assert composite == pullback_matrix(g).matmul(pullback_matrix(f))
        assert composite.rows == hom_dimension(g.source_degree, alg)
        assert composite.cols == hom_dimension(f.target_degree, alg)
    assert pullback_matrix(differential(3, alg)) == coboundary_matrix(2, alg)


def test_pullback_reads_the_algebra_of_its_map():
    alg_q5, alg_q3 = algebra(2, (5, 1)), algebra(2, (3, 1))
    mat = pullback_matrix(differential(2, alg_q5))
    assert mat == coboundary_matrix(1, alg_q5)
    assert mat != coboundary_matrix(1, alg_q3)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 16])
def test_coboundary_equals_the_pullback_of_a_dict_built_differential(m):
    alg = algebra(m, (F(7, 3),) + (F(-5, 2),) * (m - 1))
    for n in range(2 * m + 6):
        mat = coboundary_matrix(n, alg)  # reads the closed form lazily
        d = differential(n + 1, alg)
        ref = pullback_matrix(BimoduleMap(alg, n + 1, n, d.assignments))
        assert mat == ref, n
        assert [list(row.items()) for row in mat._rows] == [list(row.items()) for row in ref._rows]


def test_coboundary_checks_the_closed_form_terms_it_reads():
    # a_0 and a_1 trade places in the basis the closed form reads, so the
    # image of G(1;0,0), which has a corner block, ends in a_1 instead
    alg = algebra(16, (2,) + (1,) * 15)
    basis = list(alg.basis)
    basis[16], basis[17] = basis[17], basis[16]
    alg.basis = basis
    assert _blocks(1, alg)[1].get(Generator(1, 0, 0)) is not None
    differential(1, alg)  # nothing is built yet, so nothing is refused yet
    with pytest.raises(ValueError, match="right factor a1 of G\\(1;0,0\\)"):
        coboundary_matrix(0, alg)


def generators_made():
    return sum(len(row) for rows in resolution._generators.values() for row in rows.values())


def test_coboundaries_read_only_the_generators_with_a_corner_block(monkeypatch):
    # fresh row tables, so that every generator counted below was made here
    fresh_rows(monkeypatch)
    # and no whole degree is assembled on the way
    assembled = []
    for module in (resolution, homcomplex):
        monkeypatch.setattr(module, "generators", lambda *args: assembled.append(args))
    # m: (generators read, generators made, m(n+1) summed over degrees 1..2m+7)
    want = {16: (2544, 4192, 13104), 64: (28608, 47488, 596160)}
    for m, (want_read, want_made, total) in want.items():
        alg = algebra(m, (F(7, 3),) + (F(-5, 2),) * (m - 1))
        made = -generators_made()
        for n in range(2 * m + 7):
            coboundary_matrix(n, alg)
        made += generators_made()
        read = 0
        for n in range(1, 2 * m + 8):
            d = differential(n, alg)
            # whole rows are built, so only the set of images is pinned
            assert set(d._terms) == set(_blocks(n, alg)[1]), n
            read += len(d._terms)
        assert sum(m * (n + 1) for n in range(1, 2 * m + 8)) == total
        assert (read, made) == (want_read, want_made), m
        assert 3 * made < total
        assert assembled == []


@pytest.mark.parametrize("m", range(1, 7))
def test_hom_basis_starts_and_dimension_are_read_from_the_block_table(m):
    alg = algebra(m, (F(7, 3),) + (F(-5, 2),) * (m - 1))
    for n in range(2 * m + 7):
        blocks, starts, dimension = _blocks(n, alg)
        # one block per generator with a nonempty corner, in generators
        # order, each generator the very object of its row
        assert [(gen, list(corner)) for gen, corner in blocks] == [
            (gen, alg.corner_basis(gen.i, gen.terminus(m)))
            for gen in generators(n, m)
            if alg.corner_basis(gen.i, gen.terminus(m))
        ], n
        assert all(gen is generator_rows(n, m)[gen.r][gen.i] for gen, _corner in blocks)
        expanded = [(gen, mono) for gen, corner in blocks for mono in corner]
        assert hom_space_basis(n, alg) == expanded, n
        first = {}
        for k, (gen, _mono) in enumerate(expanded):
            first.setdefault(gen, k)
        assert list(starts.items()) == list(first.items()), n
        assert hom_dimension(n, alg) == dimension == len(expanded), n
        assert dimension == expected_hom_dimension(n, m), n


def test_a_compute_table_expands_no_hom_basis(monkeypatch):
    built = []

    def build_algebra(spec):
        built.append(Algebra(spec))
        return built[-1]

    monkeypatch.setattr(cli, "build_algebra", build_algebra)
    result = CliRunner().invoke(cli.main, ["compute", "--m", "5", "--q", "7/3,-5/2,1/9,3,2"])
    assert result.exit_code == 0, result.output
    (alg,) = built
    cached = {fn.__name__ for fn, _args in alg.cache}
    assert "_blocks" in cached and "coboundary_matrix" in cached
    assert "hom_space_basis" not in cached


def product_pullback(g, alg):
    """Reference pullback: the per-term loop over the corner monomials of
    each target, reading left . mono0 . right from two products of the
    structure constants and its row from an index of the Hom basis."""
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
                    mat.add_to_entry(target_index[(gen, value[0])], col, c * inner[1] * value[1])
    return mat


def assert_matches_product_pullback(g, alg):
    """pullback_matrix(g) equals the reference, entry order and types included."""
    assert_same_rows(pullback_matrix(g), product_pullback(g, alg))


@pytest.mark.parametrize("zeta", [F(2), F(1, 3), F(1), F(-1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_pullback_matches_the_product_reference(m, zeta):
    # m = 1, 2 have enlarged corners, m >= 3 has empty ones
    q = (zeta,) if m == 1 else (3 * zeta, F(1, 3)) + (F(1),) * (m - 2)
    alg = algebra(m, q)
    # the coboundaries d^0..d^{2m+6} at least
    for n in range(1, 3 * m + 7):
        assert_matches_product_pullback(differential(n, alg), alg)
    if alg.generic:
        xs, u1, u2 = canonical_generators(alg)
        for cls in xs + [u1, u2]:
            for lift in slot_lifts(cls.representative, 2, alg):
                assert_matches_product_pullback(lift, alg)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pullback_of_random_maps_matches_the_product_reference(data):
    m = data.draw(st.integers(1, 4))
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
    source, target = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    assert_matches_product_pullback(data.draw(bimodule_maps(alg, source, target, coeffs)), alg)
