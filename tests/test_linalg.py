import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhdeform import linalg
from hhdeform.algebra import algebra
from hhdeform.bar import _bar_coboundary
from hhdeform.homcomplex import coboundary_matrix
from hhdeform.linalg import (
    InconsistentSystem,
    Matrix,
    kernel_basis,
    pivot_columns,
    rank,
    rref,
    solve,
)
from hhdeform.resolution import differential, underlying_matrix

F = Fraction
F0 = F(0)
F1 = F(1)


def test_rank_identity():
    assert rank(Matrix.identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(Matrix(3, 5)) == 0


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(4)) == []


def test_kernel_of_zero_map():
    basis = kernel_basis(Matrix(2, 3))
    assert basis == [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]


def test_solve_identity():
    x = solve(Matrix.identity(2), [F(1), F(2)])
    assert x == [F(1), F(2)]


def test_solve_inconsistent():
    with pytest.raises(InconsistentSystem):
        solve(Matrix(2, 2), [F(1), F(0)])


def test_solve_free_variables_zero():
    # x0 + x1 = 3 has solution (3, 0) with the free variable zeroed
    m = Matrix.from_rows([[1, 1]])
    assert solve(m, [F(3)]) == [F(3), F(0)]


def test_rref_is_canonical():
    m = Matrix.from_rows([[2, 4], [1, 2], [3, 7]])
    r = rref(m)
    assert r.to_lists() == [[F(1), F(0)], [F(0), F(1)]]


rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)
nonzero_rationals = rationals.filter(bool)


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    entries = draw(
        st.lists(rationals, min_size=rows * cols, max_size=rows * cols)
    )
    return Matrix.from_rows([entries[r * cols : (r + 1) * cols] for r in range(rows)])


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_are_annihilated(m):
    for vec in kernel_basis(m):
        assert all(v == 0 for v in m.mul_vector(vec))


def dense_product(m, vec):
    return [sum((a * b for a, b in zip(row, vec)), start=F(0)) for row in m.to_lists()]


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_mul_vector_is_the_dense_fraction_sum(m, data):
    # zeros are skipped, so draw many of them, and int entries beside Fractions
    entries = st.one_of(st.just(0), st.integers(-3, 3), rationals)
    vec = data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols))
    for v in (vec, [0] * m.cols, [F(0)] * m.cols):
        got = m.mul_vector(v)
        assert got == dense_product(m, v)
        assert all(type(x) is F for x in got)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_solves(m, data):
    # build a consistent rhs from a random preimage
    x = data.draw(
        st.lists(rationals, min_size=m.cols, max_size=m.cols)
    )
    b = m.mul_vector([F(v) for v in x])
    sol = solve(m, b)
    assert m.mul_vector(sol) == b


def test_matmul_matches_dense():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, F(1, 2)]])
    assert a.matmul(b).to_lists() == [[F(2), F(2)], [F(4), F(5)]]


@st.composite
def cancelling_products(draw):
    """Dense factors a (rows x inner) and b (inner x cols) with sparse
    entries.  b repeats some of its rows, and some rows of a take the
    difference of two repeated rows' coordinates, so whole rows of the
    product cancel to zero."""
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    sparse = st.one_of(st.just(F0), rationals)
    b = [[draw(sparse) for _ in range(cols)] for _ in range(inner)]
    for k in range(1, inner):
        if draw(st.booleans()):
            b[k] = list(b[draw(st.integers(0, k - 1))])
    repeats = [(j, k) for k in range(inner) for j in range(k) if b[j] == b[k]]
    a = []
    for _ in range(rows):
        row = [draw(sparse) for _ in range(inner)]
        if repeats and draw(st.booleans()):
            j, k = draw(st.sampled_from(repeats))
            row = [F0] * inner
            row[j], row[k] = F1, -F1
        a.append(row)
    return a, b


@settings(max_examples=100, deadline=None)
@given(cancelling_products())
def test_matmul_matches_a_dense_reference(ab):
    a, b = ab
    product = Matrix.from_rows(a).matmul(Matrix.from_rows(b))
    dense = [
        [sum((a[r][k] * b[k][c] for k in range(len(b))), F0) for c in range(len(b[0]))]
        for r in range(len(a))
    ]
    assert product.to_lists() == dense
    for row in product._rows:
        for v in row.values():
            assert type(v) is F and v


def fraction_matmul(a, b):
    """Reference product: every step a Fraction multiply-and-add, each row
    in first-touch order with the zero sums dropped at the end."""
    rows = []
    for row in a._rows:
        acc = {}
        for k, x in row.items():
            for c, y in b._rows[k].items():
                old = acc.get(c)
                acc[c] = x * y if old is None else old + x * y
        rows.append({c: v for c, v in acc.items() if v})
    return rows


wide_rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12)
nonzero_wide_rationals = wide_rationals.filter(bool)


@st.composite
def sparse_factors(draw):
    """Sparse a (rows x inner) and b (inner x cols), any dimension possibly
    0, with small and large co-prime denominators.  Some rows of b are
    scaled copies of earlier ones, and a row of a may weight such a pair so
    that their contributions cancel, before or after its other entries."""
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    entry = st.one_of(st.just(F0), nonzero_rationals, wide_rationals)

    def sparse(n_rows, n_cols):
        return [{c: v for c in range(n_cols) if (v := draw(entry))} for _ in range(n_rows)]

    b = sparse(inner, cols)
    copies = []
    for k in range(1, inner):
        if draw(st.booleans()):
            j, scale = draw(st.integers(0, k - 1)), draw(st.one_of(nonzero_rationals, nonzero_wide_rationals))
            b[k] = {c: scale * v for c, v in b[j].items()}
            copies.append((j, k, scale))
    a = sparse(rows, inner)
    for row in a:
        if copies and draw(st.booleans()):
            j, k, scale = draw(st.sampled_from(copies))
            row[j] = x = draw(st.one_of(nonzero_rationals, nonzero_wide_rationals))
            row[k] = -x / scale
    return Matrix(rows, inner, a), Matrix(inner, cols, b)


@settings(max_examples=200, deadline=None)
@given(sparse_factors())
def test_matmul_matches_the_fraction_reference(ab):
    a, b = ab
    product = a.matmul(b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    expected = fraction_matmul(a, b)
    assert [list(row.items()) for row in product._rows] == [list(row.items()) for row in expected]
    assert_fraction_rows(product._rows)


@pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (2, 3, 2)])
def test_matmul_of_empty_factors(shape):
    rows, inner, cols = shape
    product = Matrix(rows, inner).matmul(Matrix(inner, cols))
    assert (product.rows, product.cols) == (rows, cols)
    assert product._rows == [{} for _ in range(rows)]


def first_primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def test_long_sums_over_coprime_denominators_match_the_fraction_reference():
    # inner dimension 40, most entries over their own primes, so most
    # pairs of terms in a sum have different denominators; the last three
    # columns of b and one row of a keep one denominator each, so some sums
    # run over equal ones.  Rows 20..39 of b are rescaled copies of rows
    # 0..19, and some rows of a weight each such pair to cancel, in full or
    # in part; one row of a is empty.
    inner, cols = 40, 9
    p = first_primes(inner + cols + 8)
    b = [
        {c: F(2 * c - 9, p[k] * p[inner + c]) if c < 6 else F(2 * k - 39, p[inner + c])
         for c in range(cols) if (c + k) % 3}
        for k in range(20)
    ]
    scales = [F(p[k + 20], p[k]) for k in range(20)]
    b += [{c: s * v for c, v in row.items()} for s, row in zip(scales, b)]
    a = []
    for r in range(8):
        row = {k: F((-1) ** k * (r + k + 1), p[(k + r) % inner]) for k in range(inner) if (k + r) % 4}
        if r % 2:
            # cancel the pairs (k, k + 20) for the first 5 + 3r values of k
            for k in range(min(20, 5 + 3 * r)):
                x = F(r + 1, p[inner + cols + r % 8])
                row[k], row[k + 20] = x, -x / scales[k]
        a.append(row)
    a.append({k: F(k + 1, p[-1]) for k in range(inner)})
    a.append({})
    full = {k: F(1, p[k]) for k in range(20)}
    full.update({k + 20: -F(1, p[k]) / scales[k] for k in range(20)})
    a.append(full)
    am, bm = Matrix(len(a), inner, a), Matrix(inner, cols, b)
    product = am.matmul(bm)
    expected = fraction_matmul(am, bm)
    assert [list(row.items()) for row in product._rows] == [list(row.items()) for row in expected]
    assert_fraction_rows(product._rows)
    assert product._rows[-2] == {} and product._rows[-1] == {}
    assert any(len(row) == cols for row in product._rows)


def test_add_to_entry():
    m = Matrix(1, 3)
    m.add_to_entry(0, 1, 2)
    m.add_to_entry(0, 0, 0)
    assert list(m._rows[0].items()) == [(1, F(2))]
    assert type(m._rows[0][1]) is F
    m.add_to_entry(0, 0, F(1, 3))
    m.add_to_entry(0, 2, F(5))
    m.add_to_entry(0, 0, F(-1, 3))
    assert list(m._rows[0].items()) == [(1, F(2)), (2, F(5))]
    # a write after the cancellation puts the entry last
    m.add_to_entry(0, 0, F(7, 2))
    m.add_to_entry(0, 1, 1)
    assert list(m._rows[0].items()) == [(1, F(3)), (2, F(5)), (0, F(7, 2))]
    assert_fraction_rows(m._rows)


@pytest.mark.parametrize(
    "build",
    [
        # dense row-major input: the inexact value first, then last
        lambda v: Matrix.from_rows([[v, F(1)], [F(1), F(1)]]),
        lambda v: Matrix.from_rows([[F(1), F(1)], [F(1), v]]),
        lambda v: Matrix(1, 1).add_to_entry(0, 0, v),
        lambda v: Matrix.identity(2).add_to_entry(1, 1, v),
        lambda v: solve(Matrix.identity(2), [F(1), v]),
        lambda v: Matrix.identity(2).mul_vector([F(1), v]),
    ],
    ids=["dense", "from_rows", "add_to_entry", "add_to_entry_sum", "solve", "mul_vector"],
)
def test_inexact_entries_refused(build):
    # a float would otherwise be made exact as its binary value, and a zero
    # one dropped before it is ever looked at
    for v in (0.1, 3.0, complex(2, 0), 0.0, complex(0, 0)):
        with pytest.raises(TypeError, match="not an exact rational"):
            build(v)
    build(2)
    build(F(1, 3))


def test_fraction_slots_read_by_the_kernels():
    # matmul, _echelon and resolution.compose read these two slots directly
    assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)
    f = F(6, -4)
    assert (f._numerator, f._denominator) == (-3, 2)


@pytest.mark.parametrize(
    "entries",
    [[{0: F(1)}], [], [{}] * 6, [F(1)] * 15, [[F(1)]] * 5, ({},) * 5],
    ids=["one_row", "empty", "six_rows", "dense", "lists", "tuple"],
)
def test_entries_must_be_one_dict_per_row(entries):
    # `rows` is trusted by transpose, matmul and solve, so it must match
    with pytest.raises(ValueError, match="list of 5 row dicts"):
        Matrix(5, 3, entries)


def test_entries_are_stored_as_given():
    rows = [{}, {2: F(1, 3)}]
    m = Matrix(2, 3, rows)
    assert m._rows is rows and m.transpose().to_lists() == [[F0, F0], [F0, F0], [F0, F(1, 3)]]
    assert Matrix(0, 3, []).to_lists() == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: Matrix.from_rows([[1, 2], [3]]),
        lambda: solve(Matrix.identity(2), [1, 2, 3]),
        lambda: Matrix.identity(2).mul_vector([1, 2, 3]),
        lambda: Matrix.identity(2).matmul(Matrix(3, 2)),
    ],
    ids=["from_rows", "solve", "mul_vector", "matmul"],
)
def test_mismatched_shapes_refused(call):
    with pytest.raises(ValueError):
        call()


def test_ragged_rows_refused_under_optimisation():
    # the shape checks are not asserts, so `python -O` keeps them
    code = (
        "from hhdeform.linalg import Matrix\n"
        "try:\n"
        "    Matrix.from_rows([[1, 2], [3]])\n"
        "except ValueError:\n"
        "    print('refused')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "refused\n"


def test_exact_converts_rationals_only():
    assert linalg.exact(3) == F(3) and type(linalg.exact(3)) is F
    assert linalg.exact(F(2, 6)) == F(1, 3)
    with pytest.raises(TypeError):
        linalg.exact("1/3")


def test_matmul_of_rows_that_cancel_stores_nothing():
    a = Matrix.from_rows([[1, -1, 0], [2, 0, 1]])
    b = Matrix.from_rows([[F(1, 2), 3], [F(1, 2), 3], [-1, -6]])
    product = a.matmul(b)
    assert product._rows == [{}, {}]
    assert product.nnz() == 0


def test_transpose_roundtrip():
    a = Matrix.from_rows([[1, 0, 2], [0, 3, 0]])
    assert a.transpose().transpose() == a


def scan_rref(m):
    """Reference elimination: for each column in turn, scan every remaining
    row for the sparsest holder, eliminate below and back-substitute into
    every echelon row at once."""
    rows = [dict(r) for r in m._rows if r]
    pivot_cols = []
    echelon = []
    for col in range(m.cols):
        best = None
        for idx, row in enumerate(rows):
            if col in row and (best is None or len(row) < len(rows[best])):
                best = idx
        if best is None:
            continue
        pivot = rows.pop(best)
        inv = F1 / pivot[col]
        if inv != F1:
            pivot = {c: v * inv for c, v in pivot.items()}
        remaining = []
        for row in rows:
            f = row.get(col)
            if f:
                new = dict(row)
                for c, v in pivot.items():
                    w = new.get(c, F0) - f * v
                    if w:
                        new[c] = w
                    else:
                        new.pop(c, None)
                if new:
                    remaining.append(new)
            else:
                remaining.append(row)
        rows = remaining
        for k, row in enumerate(echelon):
            f = row.get(col)
            if f:
                new = dict(row)
                for c, v in pivot.items():
                    w = new.get(c, F0) - f * v
                    if w:
                        new[c] = w
                    else:
                        new.pop(c, None)
                echelon[k] = new
        pivot_cols.append(col)
        echelon.append(pivot)
        if not rows:
            break
    return pivot_cols, echelon


def assert_fraction_rows(rows):
    for row in rows:
        for v in row.values():
            assert type(v) is F and v


def assert_same_rows(mat, ref):
    """mat and ref hold the same nonzero Fraction entries in the same key
    order, row by row; dict equality alone ignores the order."""
    assert (mat.rows, mat.cols) == (ref.rows, ref.cols)
    assert [list(row.items()) for row in mat._rows] == [list(row.items()) for row in ref._rows]
    assert_fraction_rows(mat._rows)


def assert_matches_scan(m):
    """The echelon form, the RREF and its pivots agree with `scan_rref`."""
    expected_pivots, expected_rows = scan_rref(m)
    pivots, rows = linalg._echelon(m)
    assert pivots == expected_pivots
    assert rank(m) == len(expected_pivots)
    assert pivot_columns(m) == expected_pivots
    for col, row in zip(pivots, rows):
        assert all(type(v) is int and v for v in row.values())
        assert min(row) == col
    normalised = [{c: F(v, row[col]) for c, v in row.items()} for col, row in zip(pivots, rows)]
    echelon = Matrix(len(rows), m.cols, normalised)
    assert scan_rref(echelon) == (expected_pivots, expected_rows)
    pivots, rows = linalg._rref_rows(m)
    assert (pivots, rows) == (expected_pivots, expected_rows)
    assert_fraction_rows(rows)


@st.composite
def sparse_matrices(draw):
    """Up to 12 x 12 and block diagonal after a permutation: each row and
    column gets one of up to four block labels, and only entries joining
    equal labels may be nonzero (a label with rows but no columns leaves
    zero rows, and the other way round zero columns).  Some rows are then
    replaced by scaled copies of others."""
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 12))
    labels = st.integers(0, draw(st.integers(0, 3)))
    row_label = [draw(labels) for _ in range(n_rows)]
    col_label = [draw(labels) for _ in range(n_cols)]
    density = draw(st.integers(1, 9))
    rows = []
    for r in range(n_rows):
        row = {}
        for c in range(n_cols):
            if row_label[r] == col_label[c] and draw(st.integers(0, 9)) < density:
                row[c] = draw(nonzero_rationals)
        rows.append(row)
    for _ in range(draw(st.integers(0, 3))):
        src = draw(st.integers(0, n_rows - 1))
        scale = draw(nonzero_rationals)
        rows[draw(st.integers(0, n_rows - 1))] = {c: scale * v for c, v in rows[src].items()}
    return Matrix(n_rows, n_cols, rows)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), st.data())
def test_elimination_matches_the_scan_reference(m, data):
    assert_matches_scan(m)
    b = m.mul_vector(data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols)))
    if b:
        b[data.draw(st.integers(0, len(b) - 1))] += data.draw(rationals)

    def results():
        try:
            x = solve(m, b)
        except InconsistentSystem:
            x = None
        return rref(m), rank(m), pivot_columns(m), kernel_basis(m), x

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_rref_rows", scan_rref)
        patch.setattr(linalg, "_echelon", scan_rref)
        expected = results()
    assert results() == expected


def counted_eliminations(patch):
    """The list of matrices `linalg._echelon` is called on from now on."""
    calls = []
    echelon = linalg._echelon

    def counted(m):
        calls.append(m)
        return echelon(m)

    patch.setattr(linalg, "_echelon", counted)
    return calls


def test_pivots_are_found_once_and_dropped_by_a_write(monkeypatch):
    calls = counted_eliminations(monkeypatch)
    m = Matrix(2, 2)
    m.add_to_entry(0, 0, 3)
    assert rank(m) == 1 and pivot_columns(m) == [0] and rank(m) == 1
    assert len(calls) == 1
    # a write after the elimination drops the kept pivots
    m.add_to_entry(1, 1, F(1, 2))
    assert rank(m) == 2 and pivot_columns(m) == [0, 1]
    assert len(calls) == 2


def test_pivot_list_is_the_callers_own():
    m = Matrix.from_rows([[1, 2, 0], [2, 4, 1]])
    pivots = pivot_columns(m)
    pivots.append(7)
    pivots[0] = 5
    assert pivot_columns(m) == [0, 2]
    assert rank(m) == 2


def test_kept_pivots_do_not_change_equality():
    ranked = Matrix.from_rows([[1, 2, 0], [0, 0, F(1, 3)]])
    assert rank(ranked) == 2
    unranked = Matrix(2, 3, [dict(row) for row in ranked._rows])
    assert ranked == unranked and unranked == ranked


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_kept_pivots_are_the_echelon_pivots(m):
    expected = linalg._echelon(m)[0]
    for _ in range(2):
        assert rank(m) == len(expected)
        assert pivot_columns(m) == expected


@pytest.mark.parametrize("zeta", [F(2), F(1), F(-1)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_package_matrices_match_the_scan_reference(m, zeta):
    q = (zeta,) if m == 1 else (3 * zeta, F(1, 3)) + (F(1),) * (m - 2)
    alg = algebra(m, q)
    for n in range(5):
        assert_matches_scan(coboundary_matrix(n, alg))
        assert_matches_scan(_bar_coboundary(n, alg))
        if n:
            assert_matches_scan(underlying_matrix(differential(n, alg)))


def fraction_echelon(m):
    """Reference forward elimination on Fraction rows with leading 1s:
    the same index, column order and sparsest-holder pivots as `_echelon`,
    every update a Fraction multiply-and-subtract."""
    rows = {r: dict(row) for r, row in enumerate(m._rows) if row}
    index = {}
    for r, row in rows.items():
        for c in row:
            index.setdefault(c, set()).add(r)
    pivot_cols = []
    pivot_rows = []
    for col in sorted(index):
        holders = index.pop(col)
        if not holders:
            continue
        best = min(holders, key=lambda r: (len(rows[r]), r))
        holders.remove(best)
        pivot = rows.pop(best)
        inv = F1 / pivot[col]
        if inv != F1:
            pivot = {c: v * inv for c, v in pivot.items()}
        others = [(c, v) for c, v in pivot.items() if c != col]
        for c, _ in others:
            index[c].discard(best)
        for r in holders:
            row = rows[r]
            f = row.pop(col)
            for c, v in others:
                w = row.get(c)
                if w is None:
                    row[c] = -f * v
                    index[c].add(r)
                else:
                    w -= f * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
                        index[c].discard(r)
        pivot_cols.append(col)
        pivot_rows.append(pivot)
    return pivot_cols, pivot_rows


def assert_matches_fraction_echelon(m):
    """Each integer pivot row is a multiple of the Fraction reference row
    with the same keys in the same order, and `_rref_rows` returns what it
    returns on the reference rows, key order included."""
    expected_pivots, expected_rows = fraction_echelon(m)
    pivots, rows = linalg._echelon(m)
    assert pivots == expected_pivots
    for col, row, expected in zip(pivots, rows, expected_rows):
        assert list(row) == list(expected)
        assert all(F(v, row[col]) == expected[c] for c, v in row.items())
    pivots, rows = linalg._rref_rows(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_echelon", fraction_echelon)
        expected_pivots, expected_rows = linalg._rref_rows(m)
    assert pivots == expected_pivots
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in expected_rows]
    assert_fraction_rows(rows)


@pytest.mark.parametrize("zeta", [F(2), F(1), F(-1)])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_package_matrices_match_the_fraction_echelon(m, zeta):
    q = (zeta,) if m == 1 else (3 * zeta, F(1, 3)) + (F(1),) * (m - 2)
    alg = algebra(m, q)
    matrices = [coboundary_matrix(n, alg) for n in range(2 * m + 7)]
    matrices += [underlying_matrix(differential(n, alg)) for n in range(1, m + 4)]
    if m <= 2:
        matrices += [_bar_coboundary(n, alg) for n in range(4)]
    for a in matrices:
        assert_matches_fraction_echelon(a)
        assert_matches_fraction_echelon(a.transpose())


wide_entries = st.one_of(
    st.just(F0), st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
)


@st.composite
def wide_systems(draw):
    """A sparse matrix with denominators up to 10**6, some rows scaled
    copies of others, and a right-hand side from a preimage, sometimes
    perturbed out of the column space."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = [{c: v for c in range(n_cols) if (v := draw(wide_entries))} for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 3))):
        scale = draw(nonzero_wide_rationals)
        rows[draw(st.integers(0, n_rows - 1))] = {
            c: scale * v for c, v in rows[draw(st.integers(0, n_rows - 1))].items()
        }
    m = Matrix(n_rows, n_cols, rows)
    b = m.mul_vector([draw(wide_entries) for _ in range(n_cols)])
    if draw(st.booleans()):
        b[draw(st.integers(0, n_rows - 1))] += draw(wide_entries)
    return m, b


@settings(max_examples=100, deadline=None)
@given(wide_systems())
def test_wide_denominators_match_the_fraction_echelon(system):
    m, b = system
    assert_matches_fraction_echelon(m)
    assert rank(m) == len(fraction_echelon(m)[0])

    def solution():
        try:
            return solve(m, b)
        except InconsistentSystem:
            return None

    x = solution()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_echelon", fraction_echelon)
        assert solution() == x
    if x is not None:
        assert m.mul_vector(x) == b
