from fractions import Fraction

import pytest

from hhdeform.algebra import ARROW, BAR, AlgebraElement, a, abar, algebra, e, z
from hhdeform.freepaths import (
    FreePath,
    arrow_path,
    bar_path,
    free_multiply,
    g_generators,
    q_run,
    trivial_path,
    verify_g_recursions,
)

F = Fraction


# The rewriting map from free paths down to the quotient algebra: a
# reference for the structure constants that shares no code with them.


def _reduce_path(path, alg, rightmost=False):
    """Normal form of a single path in the quotient: (coeff, monomial) or
    None when the path reduces to zero.

    Rewrites to fixpoint with
        a_i a_{i+1} -> 0,   abar_i abar_{i-1} -> 0,
        abar_j a_j -> q_{j+1} a_{j+1} abar_{j+1},
    scanning leftmost-first by default (rightmost-first confirms
    confluence at desk scale).
    """
    m = alg.m
    coeff = Fraction(1)
    steps = list(path.steps)
    while True:
        positions = range(len(steps) - 1)
        if rightmost:
            positions = reversed(positions)
        for t in positions:
            k1, i1 = steps[t]
            k2, i2 = steps[t + 1]
            if k1 == ARROW and k2 == ARROW:
                return None
            if k1 == BAR and k2 == BAR:
                return None
            if k1 == BAR and k2 == ARROW:
                j1 = (i1 + 1) % m
                coeff *= alg.q[j1]
                steps[t] = (ARROW, j1)
                steps[t + 1] = (BAR, j1)
                break
        else:
            break
    if not steps:
        return coeff, e(path.origin)
    if len(steps) == 1:
        kind, idx = steps[0]
        return coeff, (a(idx) if kind == ARROW else abar(idx))
    if len(steps) == 2:
        # the only irreducible length-2 shape is a_j abar_j
        return coeff, z(steps[0][1])
    # any longer irreducible word would need an a->abar->a alternation,
    # which the abar a rule always breaks up
    raise AssertionError(f"irreducible path of length {len(steps)}: {steps}")


def reduce_to_algebra(x, alg, rightmost=False):
    """The quotient map: rewrite each path to its normal form and collect."""
    out = AlgebraElement()
    for path, c in x.coeffs.items():
        reduced = _reduce_path(path, alg, rightmost=rightmost)
        if reduced is None:
            continue
        coeff, mono = reduced
        out = out + AlgebraElement.of(mono, c * coeff)
    return out


def elt(path):
    return AlgebraElement.of(path)


def test_trivial_path_is_left_unit():
    m = 3
    assert free_multiply(elt(trivial_path(0)), elt(arrow_path(0, m)), m) == elt(
        arrow_path(0, m)
    )


def test_free_algebra_has_no_relations():
    m = 3
    prod = free_multiply(elt(arrow_path(0, m)), elt(arrow_path(1, m)), m)
    assert prod == elt(FreePath(0, (("a", 0), ("a", 1))))


def test_endpoint_mismatch_gives_zero():
    m = 4
    assert free_multiply(elt(arrow_path(0, m)), elt(arrow_path(2, m)), m).is_zero()


def all_paths(m, length):
    """Every composable path of the given length, at every origin."""
    paths = [trivial_path(i) for i in range(m)]
    for _ in range(length):
        new = []
        for p in paths:
            t = p.terminus(m)
            new.append(FreePath(p.origin, p.steps + (("a", t),)))
            new.append(FreePath(p.origin, p.steps + (("abar", (t - 1) % m),)))
        paths = new
    return paths


def test_g_degree_0_and_1():
    alg = algebra(3, (2, 3, 5))
    g0 = g_generators(0, alg)
    for i in range(3):
        assert g0[(0, i)] == elt(trivial_path(i))
    g1 = g_generators(1, alg)
    for i in range(3):
        assert g1[(0, i)] == elt(arrow_path(i, 3))
        assert g1[(1, i)] == elt(bar_path(i - 1, 3)).scale(-1)


def test_g_degree_2_middle():
    alg = algebra(3, (2, 3, 5))
    g2 = g_generators(2, alg)
    for i in range(3):
        want = free_multiply(
            elt(arrow_path(i, 3)), elt(bar_path(i, 3)), 3
        ).scale(alg.q[i]) - free_multiply(
            elt(bar_path(i - 1, 3)), elt(arrow_path(i - 1, 3)), 3
        )
        assert g2[(1, i)] == want


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_g_uniform_and_homogeneous(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    for n in range(6):
        table = g_generators(n, alg)
        for (r, i), g in table.items():
            assert not g.is_zero()
            for path in g.coeffs:
                assert len(path) == n
                assert path.origin == i
                assert path.terminus(m) == (i + n - 2 * r) % m
                assert path.is_composable(m)


@pytest.mark.parametrize("m,q", [(1, (2,)), (2, (3, 1)), (3, (2, 3, 5)), (3, (2, 1, 1))])
def test_recursion_identity_small_degrees(m, q):
    alg = algebra(m, q)
    for n in (1, 2):
        assert verify_g_recursions(n, alg)


def test_reduce_relation_path():
    alg = algebra(3, (2, 3, 5))
    x = free_multiply(elt(bar_path(0, 3)), elt(arrow_path(0, 3)), 3)
    assert reduce_to_algebra(x, alg) == AlgebraElement.of(z(1), 3)


def test_reduce_zero_paths():
    alg = algebra(3, (2, 3, 5))
    aa = free_multiply(elt(arrow_path(0, 3)), elt(arrow_path(1, 3)), 3)
    assert reduce_to_algebra(aa, alg).is_zero()
    # a_0 abar_0 a_0 abar_0 lies in rad^4 = 0
    loop = free_multiply(elt(arrow_path(0, 3)), elt(bar_path(0, 3)), 3)
    assert reduce_to_algebra(free_multiply(loop, loop, 3), alg).is_zero()


def test_reduce_short_paths():
    alg = algebra(2, (3, 1))
    assert reduce_to_algebra(elt(trivial_path(1)), alg) == AlgebraElement.of(e(1))
    assert reduce_to_algebra(elt(arrow_path(0, 2)), alg) == AlgebraElement.of(a(0))
    assert reduce_to_algebra(elt(bar_path(1, 2)), alg) == AlgebraElement.of(abar(1))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_confluence_at_desk_scale(m):
    alg = algebra(m, (2,) + tuple(F(1, k + 2) for k in range(m - 1)))
    for length in range(7):
        for path in all_paths(m, length):
            assert _reduce_path(path, alg) == _reduce_path(path, alg, rightmost=True)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_reduction_is_multiplicative(m):
    alg = algebra(m, (2,) + (3,) * (m - 1))
    short = [p for length in range(4) for p in all_paths(m, length)]
    for p in short:
        for s in short:
            if len(p) + len(s) > 4:
                continue
            x, y = elt(p), elt(s)
            lhs = reduce_to_algebra(free_multiply(x, y, m), alg)
            rhs = alg.multiply(reduce_to_algebra(x, alg), reduce_to_algebra(y, alg))
            assert lhs == rhs


@pytest.mark.parametrize("m", [1, 2, 5])
def test_q_run_is_the_product_of_consecutive_parameters(m):
    q = tuple(F(k + 2, 2 * k + 1) * (-1) ** k for k in range(m))
    alg = algebra(m, q)
    for start in range(-2 * m - 1, 2 * m + 2):
        for count in range(3 * m + 2):
            naive = F(1)
            for j in range(start, start + count):
                naive *= q[j % m]
            assert q_run(alg, start, count) == naive, (start, count)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_memoised_tables_match_a_from_scratch_loop(m):
    alg = algebra(m, tuple(F(k + 2, k + 1) for k in range(m)))
    assert g_generators(8, alg) is g_generators(8, alg)
    table = {(0, i): elt(trivial_path(i)) for i in range(m)}
    for n in range(9):
        if n:
            prev, table = table, {}
            for i in range(m):
                for r in range(n + 1):
                    acc = AlgebraElement()
                    if r <= n - 1:
                        step = elt(arrow_path(i + n - 2 * r - 1, m))
                        acc = acc + free_multiply(prev[(r, i)], step, m)
                    if r >= 1:
                        coeff = q_run(alg, i - r + 1, n - r) * (-1) ** n
                        step = elt(bar_path(i + n - 2 * r, m))
                        acc = acc + free_multiply(prev[(r - 1, i)], step, m).scale(coeff)
                    table[(r, i)] = acc
        assert g_generators(n, alg) == table, n
