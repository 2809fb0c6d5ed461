import re
from fractions import Fraction

import pytest

from hhdeform.algebra import (
    AlgebraSpec,
    BasisMonomial,
    Table,
    a,
    abar,
    algebra,
    build_algebra,
    e,
    memoised,
    z,
)
from product_rule import product_rule

F = Fraction


def add_into(acc, terms, scale=1):
    """Add scale times the combination `terms` into the dict `acc` in
    place, deleting each entry whose sum reaches zero; returns acc."""
    for mono, c in terms.items():
        s = acc.get(mono, 0) + scale * c
        if s:
            acc[mono] = s
        else:
            acc.pop(mono, None)
    return acc


def test_zero_parameter_rejected():
    with pytest.raises(ValueError, match="zero deformation parameter"):
        AlgebraSpec(2, (1, 0))


def test_inexact_parameters_rejected():
    for bad in (0.5, 2.0, "2"):
        with pytest.raises(TypeError, match="not an exact rational"):
            AlgebraSpec(2, (bad, 1))
    assert AlgebraSpec(2, (2, F(1, 3))).q == (F(2), F(1, 3))
    assert all(type(v) is F for v in AlgebraSpec(2, (2, 1)).q)


def test_wrong_parameter_count_rejected():
    with pytest.raises(ValueError):
        AlgebraSpec(3, (1, 1))


def test_spec_needs_parameters():
    with pytest.raises(TypeError):
        AlgebraSpec(2)


def test_spec_refuses_an_m_that_is_not_an_int():
    # 2.0 once passed and failed later in Algebra; True built an algebra with m True
    for bad, q in ((2.0, (2, 2)), (F(2), (2, 2)), (True, (2,))):
        with pytest.raises(ValueError, match=re.escape(f"m must be an int, got {bad!r}")):
            AlgebraSpec(bad, q)


def test_spec_validation_order():
    # a float q entry is a TypeError before any ValueError about m, length or zero
    for m, q in ((0, (0.5,)), (2.0, (0.5, 1)), (3, (0.5, 1)), (2, (0, 0.5))):
        with pytest.raises(TypeError, match="not an exact rational"):
            AlgebraSpec(m, q)
    # then m, then the length, then a zero entry
    for m, q, message in (
        (2.0, (1,), "m must be an int"),
        (0, (), "m must be at least 1"),
        (0, (0,), "m must be at least 1"),
        (3, (0, 1), "q must have exactly m entries"),
    ):
        with pytest.raises(ValueError, match=message):
            AlgebraSpec(m, q)


def test_spec_fields_repr_and_immutability():
    spec = AlgebraSpec(2, (F(1, 2), 4))
    assert spec._fields == ("m", "q")
    assert repr(spec) == "AlgebraSpec(m=2, q=(Fraction(1, 2), Fraction(4, 1)))"
    assert AlgebraSpec(m=2, q=[F(1, 2), 4]) == spec and hash(AlgebraSpec(2, (F(1, 2), 4))) == hash(spec)
    for field in ("m", "q", "zeta"):
        with pytest.raises(AttributeError):
            setattr(spec, field, 1)
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert not hasattr(spec, "__dict__")


def test_basis_monomials_are_immutable_and_slot_only():
    mono = a(1)
    with pytest.raises(AttributeError):
        mono.index = 0
    with pytest.raises(AttributeError):
        mono.extra = 1
    assert not hasattr(mono, "__dict__")
    assert mono == BasisMonomial("a", 1) and repr(mono) == "a1"


def test_zeta_and_generic_flag():
    assert algebra(3, (2, 1, 1)).zeta == 2
    assert algebra(3, (2, 1, 1)).generic
    assert not algebra(2, (1, 1)).generic
    assert not algebra(2, (-1, 1)).generic
    assert algebra(3, (F(1, 2), 4, 1)).generic  # zeta = 2


def test_deformed_relation():
    alg = algebra(3, (2, 1, 1))
    # abar_0 a_0 = q_1 z_1
    assert alg.monomial_multiply(abar(0), a(0)) == {z(1): alg.q[1]}


def test_arrow_squares_vanish():
    for m in (1, 2, 3, 4):
        alg = algebra(m, (2,) + (1,) * (m - 1))
        assert alg.monomial_multiply(a(0), a(1 % m)) == {}
        assert alg.monomial_multiply(abar(0), abar((0 - 1) % m)) == {}


def test_idempotent_action():
    alg = algebra(3, (2, 1, 1))
    assert alg.monomial_multiply(e(0), a(0)) == {a(0): 1}
    assert alg.monomial_multiply(a(0), e(1)) == {a(0): 1}
    assert alg.monomial_multiply(e(1), a(0)) == {}


def test_multiply_bilinear():
    alg = algebra(2, (3, 1))
    assert alg.multiply({e(0): 1, a(0): 1}, {e(1): 1}) == {a(0): 1}


def test_socle_annihilates_radical():
    for m in (1, 2, 3):
        alg = algebra(m, (2,) + (1,) * (m - 1))
        radical = [mono for mono in alg.basis if mono.kind != "e"]
        for i in range(m):
            for r in radical:
                assert alg.monomial_multiply(z(i), r) == {}
                assert alg.monomial_multiply(r, z(i)) == {}


def test_m1_products():
    alg = algebra(1, (2,))
    assert alg.monomial_multiply(abar(0), a(0)) == {z(0): 2}
    assert alg.monomial_multiply(a(0), abar(0)) == {z(0): 1}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_associativity_all_basis_triples(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    elems = [{mono: F(1)} for mono in alg.basis]
    for x in elems:
        for y in elems:
            xy = alg.multiply(x, y)
            for w in elems:
                assert alg.multiply(xy, w) == alg.multiply(x, alg.multiply(y, w))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_unit(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    one = {e(i): F(1) for i in range(m)}
    for mono in alg.basis:
        elt = {mono: F(1)}
        assert alg.multiply(one, elt) == elt
        assert alg.multiply(elt, one) == elt


def test_corner_bases():
    alg = algebra(3, (2, 1, 1))
    assert alg.corner_basis(0, 0) == [e(0), z(0)]
    assert alg.corner_basis(0, 1) == [a(0)]
    assert alg.corner_basis(1, 0) == [abar(0)]
    assert alg.corner_basis(0, 2) == [abar(2)]

    alg2 = algebra(2, (3, 1))
    assert alg2.corner_basis(0, 1) == [a(0), abar(1)]

    alg1 = algebra(1, (2,))
    assert alg1.corner_basis(0, 0) == [e(0), a(0), abar(0), z(0)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_corner_bases_are_the_monomials_between_their_vertices(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    # the canonical order: vertices, arrows, backward arrows, loops
    assert alg.basis == [mono(i) for mono in (e, a, abar, z) for i in range(m)]
    empty = 0
    for i in range(m):
        for j in range(m):
            corner = [mono for mono in alg.basis if (mono.origin(m), mono.terminus(m)) == (i, j)]
            assert alg.corner_basis(i, j) == sorted(corner, key=alg.basis_index.get)
            empty += not corner
    # only (i, i), (i, i+1) and (i+1, i) are not empty; the rest read []
    assert empty == max(0, m * m - 3 * m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_corners_outside_the_vertices_refused(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    for i, j, bad in ((m, 0, m), (0, m, m), (-1, 0, -1)):
        with pytest.raises(ValueError, match=f"vertex {bad} is not in 0..{m - 1} at m = {m}"):
            alg.corner_basis(i, j)
    # a refused read stores nothing, and every empty corner still reads []
    assert all(0 <= i < m and 0 <= j < m for i, j in alg._corners)
    empty = [(i, j) for i in range(m) for j in range(m) if not alg.corner_basis(i, j)]
    assert len(empty) == max(0, m * m - 3 * m)
    assert all(alg.corner_basis(i, j) == [] for i, j in empty)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_monomials_at_a_vertex_outside_refused(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    for read in (alg.monomials_into, alg.monomials_from):
        for bad in (-1, m):
            with pytest.raises(ValueError, match=f"vertex {bad} is not in 0..{m - 1} at m = {m}"):
                read(bad)
    # a refused read stores nothing, and every vertex keeps its rows in basis order
    assert sorted(alg._into) == sorted(alg._from) == list(range(m))
    for v in range(m):
        assert alg.monomials_into(v) == [mono for mono in alg.basis if mono.terminus(m) == v]
        assert alg.monomials_from(v) == [mono for mono in alg.basis if mono.origin(m) == v]


@pytest.mark.parametrize("bad", [0.5, 1.5, F(1, 2)], ids=["0.5", "1.5", "1/2"])
def test_a_vertex_that_is_not_an_int_refused(bad):
    # each lies in the range 0..m-1 but names no vertex
    alg = algebra(3, (2, 1, 1))
    stored = (dict(alg._into), dict(alg._from), dict(alg._corners))
    reads = (
        alg.monomials_into,
        alg.monomials_from,
        lambda v: alg.corner_basis(v, 2),
        lambda v: alg.corner_basis(0, v),
    )
    for read in reads:
        with pytest.raises(ValueError, match=f"vertex {bad} is not in 0..2 at m = 3"):
            read(bad)
    assert (alg._into, alg._from, alg._corners) == stored


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_corner_bases_partition_the_basis(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    assert len(alg.basis) == 4 * m
    total = sum(
        len(alg.corner_basis(i, j)) for i in range(m) for j in range(m)
    )
    assert total == 4 * m


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_center_dimension(m):
    # the centralizer of all basis monomials is spanned by 1 and the loops
    from hhdeform import linalg

    alg = algebra(m, (2,) + (1,) * (m - 1))
    # columns: candidate basis monomial x; rows: coords of [x, b] for each b
    cols = []
    for x in alg.basis:
        col = []
        for b in alg.basis:
            comm = add_into(alg.monomial_multiply(x, b), alg.monomial_multiply(b, x), -1)
            col.extend(comm.get(mono, F(0)) for mono in alg.basis)
        cols.append(col)
    mat = linalg.Matrix.from_rows(cols).transpose()
    assert len(linalg.kernel_basis(mat)) == m + 1


@pytest.mark.parametrize("c", [0.1, 2.0, 0.0, complex(1, 0)])
def test_multiply_refuses_inexact_coefficients(c):
    # a float would be made exact silently: 0.1 is 3602879701896397 / 2^55
    alg = algebra(3, (2, 1, 1))
    # a_0 . a_1 and e_0 . a_1 vanish, so no product has to be formed first
    for x, y in [
        ({a(0): c}, {a(1): 1}),
        ({a(0): 1}, {a(1): c}),
        ({e(0): c}, {a(1): 1}),
        ({e(0): c}, {}),
        ({}, {e(0): c}),
        ({e(0): c}, {a(0): 1}),
    ]:
        with pytest.raises(TypeError, match="not an exact rational"):
            alg.multiply(x, y)


@pytest.mark.parametrize("c", [2, True, F(2, 4)])
def test_multiply_gives_fraction_coefficients(c):
    alg = algebra(3, (2, 3, 1))
    for prod, want in [
        (alg.multiply({a(0): c}, {e(1): c}), {a(0): F(c) * F(c)}),
        # abar_0 a_0 = q_1 z_1
        (alg.multiply({abar(0): c}, {a(0): c}), {z(1): 3 * F(c) * F(c)}),
        (alg.monomial_multiply(abar(0), a(0)), {z(1): F(3)}),
        # a zero input coefficient leaves no entry
        (alg.multiply({a(0): c, e(0): 0}, {e(1): 1, a(1): c}), {a(0): F(c)}),
    ]:
        assert prod == want
        assert all(type(v) is F for v in prod.values())


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_cancelling_product_is_empty(m):
    # (q_0 a_0 - abar_{m-1}) . (abar_0 + a_{m-1}) = q_0 z_0 - q_0 z_0
    alg = algebra(m, tuple(F(k + 2, k + 1) for k in range(m)))
    x = {a(0): alg.q[0], abar(m - 1): -1}
    y = {abar(0): 1, a(m - 1): 1}
    assert alg.multiply(x, y) == {}
    assert alg.multiply({a(0): alg.q[0]}, {abar(0): 1}) == {z(0): alg.q[0]}
    assert alg.multiply({abar(m - 1): 1}, {a(m - 1): 1}) == {z(0): alg.q[0]}


def test_build_algebra_from_spec():
    spec = AlgebraSpec(2, (F(1, 2), 4))
    alg = build_algebra(spec)
    assert alg.zeta == 2
    assert alg.generic


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_product_is_the_product_rule(m):
    # unequal parameters, so the abar . a coefficient differs per vertex
    alg = algebra(m, tuple(F(k + 2, k + 1) for k in range(m)))
    for x in alg.basis:
        for y in alg.basis:
            rule = product_rule(alg, x, y)
            prod = alg.product(x, y)
            if rule is None:
                assert prod is None, (x, y)
            else:
                assert prod == rule, (x, y)
                assert type(prod[1]) is F and prod[1]


@pytest.mark.parametrize("result", [None, 0, (), "value"])
def test_memoised_runs_once_per_algebra(result):
    calls = []

    @memoised
    def probe(n, alg):
        calls.append((n, alg))
        return result

    first, second = algebra(2, (2, 1)), algebra(2, (2, 1))
    for alg in (first, first, second, first, second):
        assert probe(3, alg) is result
    assert probe(4, first) is result
    assert calls == [(3, first), (3, second), (4, first)]


def test_a_table_builds_a_missing_entry_once():
    calls = []

    def build(key):
        calls.append(key)
        return [key]

    table = Table(build)
    first = table[3]
    assert first == [3] and table[3] is first and table[3] is first
    assert table.get(4) is None and 4 not in table
    assert table[4] == [4]
    assert calls == [3, 4]
    assert table == {3: [3], 4: [4]}


def test_a_build_that_raises_stores_nothing():
    def build(key):
        if key < 0:
            raise ValueError(f"negative key {key}")
        return key

    table = Table(build)
    table[1]
    for _ in range(2):
        with pytest.raises(ValueError, match="negative key -2"):
            table[-2]
    assert table == {1: 1}


def test_a_memo_build_that_raises_stores_nothing():
    from hhdeform import bar, homcomplex, resolution

    alg = algebra(3, (2, 1, 1))
    for read, degree in ((homcomplex._blocks, -1), (resolution.differential, 0), (bar._tuples, -1)):
        with pytest.raises(ValueError):
            read(degree, alg)
        assert alg.cache == {}, read
    assert isinstance(alg.cache, Table)


def test_forget_pops_one_memo_entry():
    def build(n, alg):
        return [n]

    probe = memoised(build)
    alg = algebra(2, (2, 1))
    kept, dropped = probe(1, alg), probe(2, alg)
    # the memo key is (fn, args without alg)
    assert list(alg.cache) == [(build, (1,)), (build, (2,))]
    probe.forget(2, alg)
    assert list(alg.cache) == [(build, (1,))]
    assert probe(1, alg) is kept
    assert probe(2, alg) == dropped and probe(2, alg) is not dropped


def parameter_choices(m):
    """Generic q with unequal entries, q with zeta = 1 and zeta = -1 that is
    not all ones (for m > 1), and all-ones q."""
    choices = [tuple(F(k + 2, k + 1) for k in range(m)), (F(1),) * m]
    for zeta in (F(1), F(-1)):
        choices.append((zeta,) if m == 1 else (3 * zeta, F(1, 3)) + (F(1),) * (m - 2))
    return choices


@pytest.mark.parametrize("m", range(1, 10))
def test_product_table_is_the_all_pairs_table(m):
    # the rows by either factor hold exactly the nonzero products of the
    # case-analysis rule over every pair, with the same coefficients
    for q in parameter_choices(m):
        alg = algebra(m, q)
        table = {}
        for x in alg.basis:
            for y in alg.basis:
                if (p := product_rule(alg, x, y)) is not None:
                    table[x, y] = p
        by_left = {(x, y): p for x, row in alg.by_left.items() for y, p in row.items()}
        by_right = {(x, y): p for y, row in alg.by_right.items() for x, p in row.items()}
        assert by_left == by_right == table, q
        assert set(alg.by_left) == set(alg.by_right) == set(alg.basis)
        assert all(type(c) is F for _mono, c in table.values())


@pytest.mark.parametrize("q", [F(-5, 2), F(1), F(-1)])
def test_m1_is_the_local_algebra_of_bgms(q):
    # k<a, abar> / (a^2, abar^2, q a abar - abar a), basis 1, a, abar, z = a abar
    alg = algebra(1, (q,))
    one, x, y, s = e(0), a(0), abar(0), z(0)
    want = {(one, u): (u, 1) for u in (one, x, y, s)}
    want.update({(u, one): (u, 1) for u in (x, y, s)})
    want.update({(x, y): (s, 1), (y, x): (s, q)})
    got = {(u, v): p for u, row in alg.by_left.items() for v, p in row.items()}
    assert got == want
    assert alg.multiply({x: 1, y: 2}, {x: 1, y: 1}) == {s: 1 + 2 * q}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_a_factor_outside_the_basis_refused(m):
    alg = algebra(m, tuple(F(k + 2, k + 1) for k in range(m)))
    for bad in (e(m), a(-1), BasisMonomial("x", 0)):
        message = re.escape(f"{bad!r} is not a basis monomial at m = {m}")
        for good in (e(0), a(0), z(m - 1)):
            for x, y in ((bad, good), (good, bad), (bad, bad)):
                with pytest.raises(ValueError, match=message):
                    alg.product(x, y)
                with pytest.raises(ValueError, match=message):
                    alg.monomial_multiply(x, y)
                with pytest.raises(ValueError, match=message):
                    alg.multiply({x: 1}, {y: 1})
        # also when the other side is empty, or every product is zero
        with pytest.raises(ValueError, match=message):
            alg.multiply({bad: 1}, {})
        with pytest.raises(ValueError, match=message):
            alg.multiply({}, {bad: 1})
        with pytest.raises(ValueError, match=message):
            alg.multiply({z(0): 1}, {z(0): 1, bad: 2})
    # nothing refused is kept in the rows
    assert set(alg.by_left) == set(alg.by_right) == set(alg.basis)
