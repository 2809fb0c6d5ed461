import logging
from fractions import Fraction
from math import comb, gcd

import pytest

from hhdeform import freepaths
from hhdeform.algebra import ARROW, BAR, BasisMonomial, a, abar, algebra, e, z
from hhdeform.freepaths import g_generators, signed_runs, split_coefficient, verify_g_recursions
from test_algebra import add_into

F = Fraction


# Free paths on the test side are (origin, steps) pairs, and combinations
# of them are dicts {(origin, steps): coefficient}.


def walk(origin, steps, m):
    """The end vertex of the path, or None when some step does not start
    where the previous one ended."""
    v = origin
    for kind, idx in steps:
        if v != (idx if kind == ARROW else (idx + 1) % m):
            return None
        v = (idx + 1) % m if kind == ARROW else idx
    return v


def arrow(i, m):
    return {(i % m, ((ARROW, i % m),)): F(1)}


def bar(i, m):
    """The backward arrow indexed i, from vertex i+1 to vertex i."""
    return {((i + 1) % m, ((BAR, i % m),)): F(1)}


def multiply(x, y, m):
    """Concatenation product; pairs whose endpoints do not meet contribute
    zero, and so do cancelling sums."""
    out = {}
    for (ox, sx), cx in x.items():
        tx = walk(ox, sx, m)
        for (oy, sy), cy in y.items():
            if oy == tx:
                key = (ox, sx + sy)
                out[key] = out.get(key, 0) + cx * cy
    return {p: c for p, c in out.items() if c}


# The rewriting map from free paths down to the quotient algebra: a
# reference for the structure constants that shares no code with them.


def _reduce_path(path, alg, rightmost=False):
    """Normal form of a single path (origin, steps) in the quotient:
    (coeff, monomial) or None when the path reduces to zero.

    Rewrites to fixpoint with
        a_i a_{i+1} -> 0,   abar_i abar_{i-1} -> 0,
        abar_j a_j -> q_{j+1} a_{j+1} abar_{j+1},
    scanning leftmost-first by default (rightmost-first confirms
    confluence at desk scale).
    """
    m = alg.m
    origin, steps = path
    coeff = Fraction(1)
    steps = list(steps)
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
        return coeff, e(origin)
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
    out = {}
    for path, c in x.items():
        reduced = _reduce_path(path, alg, rightmost=rightmost)
        if reduced is None:
            continue
        coeff, mono = reduced
        add_into(out, {mono: coeff}, c)
    return out


def all_paths(m, length):
    """Every composable path (origin, steps) of the given length, at every
    origin."""
    paths = [(i, ()) for i in range(m)]
    for _ in range(length):
        new = []
        for origin, steps in paths:
            t = walk(origin, steps, m)
            new.append((origin, steps + ((ARROW, t),)))
            new.append((origin, steps + ((BAR, (t - 1) % m),)))
        paths = new
    return paths


def test_g_degree_0_and_1():
    alg = algebra(3, (2, 3, 5))
    g0 = g_generators(0, alg)
    assert set(g0) == {(0, i) for i in range(3)}
    for i in range(3):
        assert g0[(0, i)] == {(): 1}
    g1 = g_generators(1, alg)
    assert set(g1) == {(r, i) for r in range(2) for i in range(3)}
    for i in range(3):
        assert g1[(0, i)] == {((ARROW, i),): 1}
        assert g1[(1, i)] == {((BAR, (i - 1) % 3),): -1}


def test_g_steps_are_arrow_monomials():
    alg = algebra(3, (2, 3, 5))
    g1 = g_generators(1, alg)
    assert g1[(0, 0)] == {(("a", 0),): 1}
    (steps,) = g1[(0, 0)]
    assert steps == (a(0),) and type(steps[0]) is BasisMonomial
    (steps,) = g1[(1, 0)]
    assert steps == (abar(2),) and type(steps[0]) is BasisMonomial


def test_g_degree_2_middle():
    alg = algebra(3, (2, 3, 5))
    g2 = g_generators(2, alg)
    for i in range(3):
        # q_i a_i abar_i - abar_{i-1} a_{i-1}
        want = {
            ((ARROW, i), (BAR, i)): alg.q[i],
            ((BAR, (i - 1) % 3), (ARROW, (i - 1) % 3)): -1,
        }
        assert g2[(1, i)] == want


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_g_uniform_and_homogeneous(m):
    alg = algebra(m, (2,) + (1,) * (m - 1))
    for n in range(6):
        table = g_generators(n, alg)
        assert set(table) == {(r, i) for r in range(n + 1) for i in range(m)}
        for (r, i), g in table.items():
            assert len(g) == comb(n, r)
            for steps, c in g.items():
                assert c != 0
                assert len(steps) == n
                kinds = [kind for kind, _ in steps]
                assert kinds.count(ARROW) == n - r and kinds.count(BAR) == r
                assert walk(i, steps, m) == (i + n - 2 * r) % m
                assert all(0 <= idx < m for _, idx in steps)


@pytest.mark.parametrize("m,q", [(1, (2,)), (2, (3, 1)), (3, (2, 3, 5)), (3, (2, 1, 1))])
def test_recursion_identity_small_degrees(m, q):
    alg = algebra(m, q)
    for n in (1, 2):
        assert verify_g_recursions(n, alg)


# The tuple/Fraction forms of both recursions: the reference that the coded
# tables and the in-place check of `freepaths` are compared against.


def q_product(alg, start, count):
    """q_start q_{start+1} ... of `count` consecutive parameters, indices
    mod m, as a plain Fraction product that does not read `signed_runs`."""
    product = F(1)
    for u in range(count):
        product *= alg.q[(start + u) % alg.m]
    return product


def reference_tables(n, alg):
    """g[n] by the right-multiplication recursion, on step tuples with
    Fraction coefficients."""
    m = alg.m
    if n == 0:
        return {(0, i): {(): F(1)} for i in range(m)}
    prev = reference_tables(n - 1, alg)
    table = {}
    for i in range(m):
        for r in range(n + 1):
            entry = {}
            if r < n:
                step = a((i + n - 2 * r - 1) % m)
                entry.update({p + (step,): c for p, c in prev[(r, i)].items()})
            if r > 0:
                step = abar((i + n - 2 * r) % m)
                coeff = q_product(alg, i - r + 1, n - r) * (-1) ** n
                entry.update({p + (step,): coeff * c for p, c in prev[(r - 1, i)].items()})
            table[(r, i)] = entry
    return table


def g_left_form(n, alg):
    """The left-multiplication form of g[n], built from the decoded table
    g[n-1]:

        (-1)^r (q_{i-r+1} ... q_i) a_i . g[n-1][r,i+1]
        + (-1)^r abar_{i-1} . g[n-1][r-1,i-1]
    """
    m = alg.m
    prev = g_generators(n - 1, alg)
    table = {}
    for i in range(m):
        for r in range(n + 1):
            entry = {}
            sign = (-1) ** r
            if r < n:
                coeff = q_product(alg, i - r + 1, r) * sign
                entry.update({(a(i),) + p: coeff * c for p, c in prev[(r, (i + 1) % m)].items()})
            if r > 0:
                j = (i - 1) % m
                entry.update({(abar(j),) + p: sign * c for p, c in prev[(r - 1, j)].items()})
            table[(r, i)] = entry
    return table


def reference_mismatches(n, alg):
    """The keys (r, i) where the decoded g[n] and its left form differ."""
    table, left = g_generators(n, alg), g_left_form(n, alg)
    return [key for key in table if table[key] != left[key]]


RECURSION_SPECS = [
    (1, (F(2),)),
    (1, (F(-1),)),
    (1, (F(1),)),
    (2, (F(7, 3), F(-5, 2))),
    (3, (F(-1), F(1), F(1))),
    (3, (F(7, 3), F(-5, 2), F(1, 9))),
    (4, (F(7, 3), F(-5, 2), F(1, 9), F(3))),
    (4, (F(1), F(1), F(1), F(1))),
]


def perturb(monkeypatch, n, key, change):
    """Make `freepaths._g_codes(n)` return a copy whose entry `key` is
    change(copy of the entry); other degrees are left as built."""
    real = freepaths._g_codes

    def perturbed(degree, alg):
        table = real(degree, alg)
        if degree != n:
            return table
        table = dict(table)
        table[key] = change(dict(table[key]))
        return table

    monkeypatch.setattr(freepaths, "_g_codes", perturbed)


def scale_a_branch(entry):
    code = next(c for c in entry if not c & 1 << (N_MUTANT - 1))
    x, y = entry[code]
    entry[code] = (2 * x, y)
    return entry


def negate_abar_branch(entry):
    code = next(c for c in entry if c & 1 << (N_MUTANT - 1))
    x, y = entry[code]
    entry[code] = (-x, y)
    return entry


def drop_a_path(entry):
    del entry[next(reversed(entry))]
    return entry


def add_a_path(entry):
    # a code with one backward step too many lies in no entry of the key
    entry[(1 << N_MUTANT) - 1] = (1, 1)
    return entry


N_MUTANT = 4
MUTANTS = [scale_a_branch, negate_abar_branch, drop_a_path, add_a_path]


@pytest.mark.parametrize("m,q", RECURSION_SPECS)
def test_coded_tables_decode_to_the_reference(m, q):
    alg = algebra(m, q)
    for n in range(11):
        got, want = g_generators(n, alg), reference_tables(n, alg)
        assert list(got) == list(want), n
        for key, entry in want.items():
            assert list(got[key].items()) == list(entry.items()), (n, key)
            assert all(type(c) is Fraction for c in got[key].values())


@pytest.mark.parametrize("m,q", RECURSION_SPECS)
def test_coded_check_agrees_with_the_reference(m, q, caplog):
    alg = algebra(m, q)
    with caplog.at_level(logging.WARNING, logger="hhdeform.freepaths"):
        for n in range(1, 10):
            assert verify_g_recursions(n, alg)
            assert g_left_form(n, alg) == reference_tables(n, alg), n
    assert not caplog.records


@pytest.mark.parametrize("mutant", MUTANTS)
@pytest.mark.parametrize("m,q", RECURSION_SPECS)
def test_each_branch_mutant_fails_once_as_in_the_reference(m, q, mutant, monkeypatch, caplog):
    alg = algebra(m, q)
    key = (2, 1 % m)
    entry = freepaths._g_codes(N_MUTANT, alg)[key]
    perturb(monkeypatch, N_MUTANT, key, mutant)
    assert freepaths._g_codes(N_MUTANT, alg)[key] != entry
    with caplog.at_level(logging.WARNING, logger="hhdeform.freepaths"):
        assert not verify_g_recursions(N_MUTANT, alg)
    assert [r.getMessage() for r in caplog.records] == [
        f"g recursion at n={N_MUTANT}, (r,i)={key}: the two forms differ"
    ]
    assert reference_mismatches(N_MUTANT, alg) == [key]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="hhdeform.freepaths"):
        assert verify_g_recursions(N_MUTANT - 1, alg)
    assert not caplog.records


def test_recursion_check_compares_pairs_by_value(monkeypatch, caplog):
    # the coded coefficients are unnormalised: (2x, 2y) is the same number
    alg = algebra(3, (F(7, 3), F(-5, 2), F(1, 9)))

    def double_both(entry):
        return {c: (2 * x, 2 * y) for c, (x, y) in entry.items()}

    perturb(monkeypatch, N_MUTANT, (2, 1), double_both)
    with caplog.at_level(logging.WARNING, logger="hhdeform.freepaths"):
        assert verify_g_recursions(N_MUTANT, alg)
    assert not caplog.records


def test_recursions_start_at_degree_1():
    alg = algebra(3, (2, 3, 5))
    for n in (0, -1):
        with pytest.raises(ValueError, match="the recursions start at degree 1"):
            verify_g_recursions(n, alg)
    assert verify_g_recursions(1, alg)


def test_recursion_check_reports_a_perturbed_entry(monkeypatch, caplog):
    alg = algebra(3, (2, 3, 5))
    n, key = 4, (2, 1)

    def double_first(entry):
        code = next(iter(entry))
        x, y = entry[code]
        entry[code] = (2 * x, y)
        return entry

    perturb(monkeypatch, n, key, double_first)
    with caplog.at_level(logging.WARNING, logger="hhdeform.freepaths"):
        assert not verify_g_recursions(n, alg)
    assert [r.getMessage() for r in caplog.records] == [
        f"g recursion at n={n}, (r,i)={key}: the two forms differ"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="hhdeform.freepaths"):
        assert verify_g_recursions(n - 1, alg)
    assert not caplog.records


def test_reduce_relation_path():
    alg = algebra(3, (2, 3, 5))
    x = multiply(bar(0, 3), arrow(0, 3), 3)
    assert reduce_to_algebra(x, alg) == {z(1): 3}


def test_reduce_zero_paths():
    alg = algebra(3, (2, 3, 5))
    aa = multiply(arrow(0, 3), arrow(1, 3), 3)
    assert reduce_to_algebra(aa, alg) == {}
    # a_0 abar_0 a_0 abar_0 lies in rad^4 = 0
    loop = multiply(arrow(0, 3), bar(0, 3), 3)
    assert reduce_to_algebra(multiply(loop, loop, 3), alg) == {}


def test_reduce_short_paths():
    alg = algebra(2, (3, 1))
    assert reduce_to_algebra({(1, ()): F(1)}, alg) == {e(1): 1}
    assert reduce_to_algebra(arrow(0, 2), alg) == {a(0): 1}
    assert reduce_to_algebra(bar(1, 2), alg) == {abar(1): 1}


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
            if len(p[1]) + len(s[1]) > 4:
                continue
            x, y = {p: F(1)}, {s: F(1)}
            lhs = reduce_to_algebra(multiply(x, y, m), alg)
            rhs = alg.multiply(reduce_to_algebra(x, alg), reduce_to_algebra(y, alg))
            assert lhs == rhs


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_q_run_is_the_product_of_consecutive_parameters(m):
    # the longest run is asked for first, on a fresh algebra
    longest = 1500 if m == 3 else 3 * m + 1
    q = tuple(F(k + 2, 2 * k + 1) * (-1) ** k for k in range(m))
    alg = algebra(m, q)
    for start in range(-2 * m - 1, 2 * m + 2):
        runs = [signed_runs(alg)[start % m, count][0] for count in range(longest, -1, -1)]
        naive = F(1)
        for count, run in enumerate(reversed(runs)):
            assert run == naive, (start, count)
            naive *= q[(start + count) % m]


def test_q_run_refuses_a_negative_count():
    # a negative count would read the memoised run from its end, so the
    # answer would depend on how far earlier calls had extended it
    alg = algebra(3, (2, 3, 5))
    runs = signed_runs(alg)
    assert runs[0, 2][0] == 6
    for count in (-1, -3):
        with pytest.raises(ValueError, match=f"count {count}"):
            runs[0, count][0]
    assert runs[0, 0][0] == 1


COPRIME_Q = (F(7, 3), F(-5, 2), F(1, 9), F(3), F(2), F(-1, 7))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 6])
def test_signed_runs_are_normalised_fraction_products(m):
    # co-prime parameters, and zeta = 1 and -1 spread over unequal entries
    spreads = [COPRIME_Q[:m]] + [
        (z,) if m == 1 else (F(-3, 2) * z, F(-2, 3)) + (F(1),) * (m - 2) for z in (F(1), F(-1))
    ]
    for q in spreads:
        alg = algebra(m, q)
        runs = freepaths.signed_runs(alg)
        for start in range(m):
            # longest first, so the shorter runs are read off a built prefix
            for count in range(3 * m, -1, -1):
                plain = F(1)
                for u in range(count):
                    plain *= q[(start + u) % m]
                pair = runs[start, count]
                assert pair == (plain, -plain), (q, start, count)
                for v in pair:
                    assert type(v) is F and v.denominator > 0, (q, start, count)
                    assert gcd(v.numerator, v.denominator) == 1, (q, start, count)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_memoised_tables_match_a_from_scratch_loop(m):
    alg = algebra(m, tuple(F(k + 2, k + 1) for k in range(m)))
    assert g_generators(8, alg) is g_generators(8, alg)
    table = {(0, i): {(i, ()): F(1)} for i in range(m)}
    for n in range(9):
        if n:
            prev, table = table, {}
            for i in range(m):
                for r in range(n + 1):
                    acc = {}
                    if r <= n - 1:
                        acc.update(multiply(prev[(r, i)], arrow(i + n - 2 * r - 1, m), m))
                    if r >= 1:
                        coeff = q_product(alg, i - r + 1, n - r) * (-1) ** n
                        product = multiply(prev[(r - 1, i)], bar(i + n - 2 * r, m), m)
                        for path, c in product.items():
                            acc[path] = acc.get(path, 0) + coeff * c
                    table[(r, i)] = {p: c for p, c in acc.items() if c}
        got = {key: {(key[1], steps): c for steps, c in g.items()}
               for key, g in g_generators(n, alg).items()}
        assert got == table, n


def split(alg, p, q, r, i):
    """The sum over s of c(p; s, r-s; i) g[p][s,i] . g[q][r-s,i+p-2s], as
    concatenated steps."""
    m = alg.m
    left, right = g_generators(p, alg), g_generators(q, alg)
    out = {}
    for s in range(max(0, r - q), min(p, r) + 1):
        c = split_coefficient(alg, p, s, r - s, i)
        for steps, c1 in left[(s, i)].items():
            for more, c2 in right[(r - s, (i + p - 2 * s) % m)].items():
                out[steps + more] = out.get(steps + more, 0) + c * c1 * c2
    return {steps: c for steps, c in out.items() if c}


@pytest.mark.parametrize(
    "m,q",
    [
        (1, (F(-5, 2),)),
        (1, (F(-1),)),
        (2, (F(3), F(1, 3))),
        (2, (F(7, 3), F(-5, 2))),
        (3, (F(-1), F(1), F(1))),
        (3, (F(7, 3), F(-5, 2), F(1, 9))),
        (4, (F(2), F(3), F(-1, 7), F(5, 11))),
    ],
)
def test_split_coefficients_rebuild_every_table(m, q):
    # the Koszul diagonal: g[p+q] lies in g[p] (x) g[q], term by term
    alg = algebra(m, q)
    for n in range(10):
        table = g_generators(n, alg)
        for p in range(n + 1):
            for (r, i), entry in table.items():
                assert split(alg, p, n - p, r, i) == entry, (n, p, r, i)
