from fractions import Fraction

import pytest

from hhdeform import linalg
from hhdeform.algebra import algebra
from hhdeform.bar import (
    DegreeCapExceeded,
    _bar_coboundary,
    _bar_rank,
    _tuples,
    bar_basis,
    bar_cochain_dimension,
    bar_cohomology_dimension,
)
from hhdeform.homcomplex import cohomology_dimension
from test_algebra import add_into
from test_linalg import assert_same_rows
from test_resolution import rule_multiply

F = Fraction


def test_cochain_dimensions():
    # degree 0: one diagonal corner per vertex
    alg2 = algebra(2, (3, 1))
    assert bar_cochain_dimension(0, alg2) == 4
    # m = 1: every corner is the whole 4-dimensional algebra, 3 radical
    # monomials in degree 1
    alg1 = algebra(1, (2,))
    assert bar_cochain_dimension(1, alg1) == 12


@pytest.mark.parametrize("read", [bar_cochain_dimension, bar_cohomology_dimension])
def test_negative_degrees_are_refused(read):
    # a negative degree used to be read as degree 1 (12 cochains at m = 2)
    with pytest.raises(ValueError, match="degree -1"):
        read(-1, algebra(2, (2, 1)))


def test_degree_zero_basis_is_diagonal():
    alg = algebra(3, (2, 1, 1))
    basis = bar_basis(0, alg)
    assert len(basis) == 6  # e_i and z_i at each vertex
    for (i,), mono in basis:
        assert mono.origin(alg.m) == i
        assert mono.terminus(alg.m) == i


def test_tuples_are_composable():
    alg = algebra(2, (3, 1))
    for tup, _mono in bar_basis(2, alg):
        assert tup[0].terminus(alg.m) == tup[1].origin(alg.m)


@pytest.mark.parametrize("m,q", [(1, (2,)), (2, (3, 1)), (3, (2, 1, 1))])
def test_d_squared_zero(m, q):
    alg = algebra(m, q)
    for n in range(3):
        prod = _bar_coboundary(n + 1, alg).matmul(_bar_coboundary(n, alg))
        assert prod.is_zero()


@pytest.mark.parametrize(
    "q3", [(2, 1, 1), (3, 1, 1), (1, 1, 5), (7, 11, 13)]
)
def test_oracle_agrees_m3(q3):
    alg = algebra(3, q3)
    for n in range(4):
        assert bar_cohomology_dimension(n, alg) == cohomology_dimension(n, alg)


@pytest.mark.parametrize("zeta", [F(2), F(1), F(-1)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_oracle_agrees_through_a_full_period(m, zeta):
    # n <= m + 1 reaches the n = m - 1 (mod m) wrap of the resolution
    q = (zeta,) if m == 1 else (3 * zeta, F(1, 3)) + (F(1),) * (m - 2)
    alg = algebra(m, q)
    for n in range(m + 2):
        assert bar_cohomology_dimension(n, alg, degree_cap=m + 1, m_cap=4) == (
            cohomology_dimension(n, alg, allow_non_generic=True)
        ), n


@pytest.mark.parametrize("m,q", [(1, (2,)), (1, (5,)), (2, (3, 1)), (2, (1, 7))])
def test_oracle_agrees_small_m(m, q):
    alg = algebra(m, q)
    for n in range(4):
        assert bar_cohomology_dimension(n, alg) == cohomology_dimension(n, alg)


def test_oracle_agrees_off_generic_regime():
    # zeta = 1: the dimensions leave the generic table, and the two
    # independent computations still agree on what they become
    alg = algebra(2, (1, 1))
    resolution_dims = [
        cohomology_dimension(n, alg, allow_non_generic=True) for n in range(4)
    ]
    bar_dims = [bar_cohomology_dimension(n, alg) for n in range(4)]
    assert resolution_dims == bar_dims
    assert resolution_dims[3] > 0  # generic value would be 0


@pytest.mark.parametrize("zeta", [F(2), F(1), F(-1)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_bar_rank_is_the_rank_of_the_untransposed_coboundary(m, zeta):
    # every coboundary here is tall, so each goes through its transpose
    q = (zeta,) if m == 1 else (3 * zeta, F(1, 3)) + (F(1),) * (m - 2)
    alg = algebra(m, q)
    for n in range(4):
        mat = _bar_coboundary(n, alg)
        assert mat.rows > mat.cols
        assert _bar_rank(n, alg) == linalg.rank(mat), n


def test_degree_cap_enforced():
    alg = algebra(2, (3, 1))
    with pytest.raises(DegreeCapExceeded):
        bar_cohomology_dimension(4, alg)
    with pytest.raises(DegreeCapExceeded):
        bar_cohomology_dimension(0, algebra(4, (2, 1, 1, 1)))
    # caps are arguments, not constants
    assert bar_cohomology_dimension(0, algebra(2, (3, 1)), degree_cap=1) == 3


def scan_bar_coboundary(n, alg):
    """Reference assembly: for each source cochain, expand its coboundary
    over every (n+1)-tuple, multiplying whole combinations by the product
    rule of two basis monomials rather than the structure-constant table."""
    m = alg.m
    multiply = rule_multiply(alg)
    source = bar_basis(n, alg)
    target_index = {item: k for k, item in enumerate(bar_basis(n + 1, alg))}
    mat = linalg.Matrix(len(target_index), len(source))
    for col, (tup0, mono0) in enumerate(source):
        mono_elt = {mono0: 1}
        for big in _tuples(n + 1, alg):
            acc = {}
            if n == 0:
                r1 = {big[0]: 1}
                if (big[0].terminus(m),) == tup0:
                    add_into(acc, multiply(r1, mono_elt))
                if (big[0].origin(m),) == tup0:
                    add_into(acc, multiply(mono_elt, r1), -1)
            else:
                if big[1:] == tup0:
                    add_into(acc, multiply({big[0]: 1}, mono_elt))
                for j in range(1, n + 1):
                    for mono, c in multiply({big[j - 1]: 1}, {big[j]: 1}).items():
                        if big[: j - 1] + (mono,) + big[j + 1 :] == tup0:
                            add_into(acc, mono_elt, (-1) ** j * c)
                if big[:-1] == tup0:
                    add_into(acc, multiply(mono_elt, {big[-1]: 1}), (-1) ** (n + 1))
            for mono, c in acc.items():
                mat.add_to_entry(target_index[(big, mono)], col, c)
    return mat


def face_bar_coboundary(n, alg):
    """Reference in the walk's write order: per (n+1)-tuple, the first
    face, the inner faces j = 1..n, then the last face, each face's
    cochains in column order, every sign applied to the structure
    constant as the face is written.  The scan reference writes each row
    in column order instead, so only its entries, not their key order,
    are comparable."""
    m = alg.m
    columns = {}
    for col, (tup0, mono0) in enumerate(bar_basis(n, alg)):
        columns.setdefault(tup0, []).append((col, mono0))
    target_index = {item: k for k, item in enumerate(bar_basis(n + 1, alg))}
    mat = linalg.Matrix(len(target_index), bar_cochain_dimension(n, alg))
    for big in _tuples(n + 1, alg):
        if n == 0:
            first, last = (big[0].terminus(m),), (big[0].origin(m),)
        else:
            first, last = big[1:], big[:-1]
        for col, mono0 in columns.get(first, ()):
            if (value := alg.product(big[0], mono0)) is not None:
                mat.add_to_entry(target_index[(big, value[0])], col, value[1])
        for j in range(1, n + 1):
            if (prod := alg.product(big[j - 1], big[j])) is not None:
                face = big[: j - 1] + (prod[0],) + big[j + 1 :]
                for col, mono0 in columns.get(face, ()):
                    mat.add_to_entry(target_index[(big, mono0)], col, (-1) ** j * prod[1])
        for col, mono0 in columns.get(last, ()):
            if (value := alg.product(mono0, big[-1])) is not None:
                mat.add_to_entry(target_index[(big, value[0])], col, (-1) ** (n + 1) * value[1])
    return mat


@pytest.mark.parametrize("zeta", [F(2), F(1, 3), F(1), F(-1)])
@pytest.mark.parametrize("m,top", [(1, 3), (2, 3), (3, 3), (4, 2), (5, 2)])
def test_coboundary_matches_the_scan_reference(m, top, zeta):
    # spread zeta over unequal parameters, so every contraction coefficient shows
    q = (zeta,) if m == 1 else (3 * zeta, F(1, 3)) + (F(1),) * (m - 2)
    alg = algebra(m, q)
    for n in range(top + 1):
        mat = _bar_coboundary(n, alg)
        assert mat == scan_bar_coboundary(n, alg), n
        assert_same_rows(mat, face_bar_coboundary(n, alg))
