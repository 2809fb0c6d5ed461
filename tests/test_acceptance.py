"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Every equality is exact: all arithmetic is over the rationals and the
comparisons carry no tolerance.
"""

from fractions import Fraction

from click.testing import CliRunner

from hhdeform import cli, homcomplex, resolution
from hhdeform.algebra import algebra
from hhdeform.bar import bar_cohomology_dimension
from hhdeform.freepaths import verify_g_recursions
from hhdeform.homcomplex import (
    cohomology_dimension,
    expected_hom_dimension,
    expected_image_dim,
    expected_kernel_dim,
    hom_dimension,
    kernel_image_dims,
)
from hhdeform.resolution import (
    BimoduleMap,
    check_complex,
    differential,
    verify_exactness,
)
from hhdeform.ring import ring_report

F = Fraction


def flip_one_sign(d, alg):
    gen = next(iter(d.assignments))
    assignments = {g: list(ts) for g, ts in d.assignments.items()}
    c, left, target, right = assignments[gen][0]
    assignments[gen][0] = (-c, left, target, right)
    return BimoduleMap(alg, d.source_degree, d.target_degree, assignments)


def report(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def standard_q(m, zeta=2):
    return (F(zeta),) + (F(1),) * (m - 1)


def test_criterion_01_headline_dimensions():
    ok = True
    for m in range(1, 7):
        alg = algebra(m, standard_q(m))
        dims = [cohomology_dimension(n, alg) for n in range(9)]
        want = [m + 1, 2, 1] + [0] * 6
        ok = ok and dims == want and sum(dims) == m + 4
    report("criterion 1: dim HH^* = (m+1, 2, 1, 0, ...), total m+4, m = 1..6", ok)


def test_criterion_02_hom_dimensions():
    ok = True
    for m in range(1, 7):
        alg = algebra(m, standard_q(m))
        for n in range(2 * m + 7):
            ok = ok and hom_dimension(n, alg) == expected_hom_dimension(n, m)
    report("criterion 2: Hom-space dimensions match the closed forms, m = 1..6", ok)


def test_criterion_03_complex_property():
    ok = True
    for m in range(1, 6):
        alg = algebra(m, standard_q(m))
        ok = ok and check_complex(10, alg)
    report("criterion 3: d o d = 0 through degree 10 (maps and matrices), m = 1..5", ok)


def test_criterion_04_recursion_identity():
    ok = True
    q_vectors = {
        1: [(F(2),), (F(3),), (F(1, 2),)],
        2: [(F(2), F(1)), (F(3), F(5)), (F(1, 2), F(1, 3))],
        3: [(F(2), F(1), F(1)), (F(2), F(3), F(5)), (F(1, 2), F(7), F(1))],
        4: [
            (F(2), F(1), F(1), F(1)),
            (F(2), F(3), F(5), F(7)),
            (F(1, 2), F(4), F(1), F(3)),
        ],
    }
    for m, qs in q_vectors.items():
        for q in qs:
            alg = algebra(m, q)
            for n in range(1, 9):
                ok = ok and verify_g_recursions(n, alg)
    report("criterion 4: left and right recursions agree through degree 8, m = 1..4", ok)


def test_criterion_05_exactness():
    ok = True
    for m in range(1, 5):
        alg = algebra(m, standard_q(m))
        passed, _rows = verify_exactness(5, alg)
        ok = ok and passed
    report("criterion 5: resolution exact through degree 5, m = 1..4", ok)


def test_criterion_06_kernel_image_tables():
    ok = True
    for m in (3, 4, 5):
        alg = algebra(m, standard_q(m))
        for n in range(2 * m + 5):
            ker, im = kernel_image_dims(n, alg)
            ok = ok and (ker, im) == (
                expected_kernel_dim(n, m),
                expected_image_dim(n, m),
            )
    alg2 = algebra(2, standard_q(2))
    for n in range(10):
        ker, im = kernel_image_dims(n, alg2)
        ok = ok and (ker, im) == (expected_kernel_dim(n, 2), expected_image_dim(n, 2))
    report("criterion 6: kernel and image dimension tables, m = 2..5", ok)


def test_criterion_07_ring_structure():
    ok = True
    for m in range(2, 6):
        rep = ring_report(algebra(m, standard_q(m)))
        ok = ok and rep["passed"] and rep["total_dim"] == m + 4
    report("criterion 7: cohomology ring relations and total dimension, m = 2..5", ok)


def test_criterion_08_oracle_equivalence():
    ok = True
    q_vectors = {
        1: [(F(2),), (F(5),), (F(1, 3),)],
        2: [(F(3), F(1)), (F(2), F(5)), (F(1, 2), F(1, 3))],
        3: [(F(2), F(1), F(1)), (F(7), F(11), F(13)), (F(1, 2), F(1), F(1))],
    }
    for m, qs in q_vectors.items():
        for q in qs:
            alg = algebra(m, q)
            for n in range(4):
                ok = ok and bar_cohomology_dimension(n, alg) == cohomology_dimension(
                    n, alg
                )
    # regime contrast: at zeta = 1 both engines still agree, and HH^3 is
    # no longer zero
    degenerate = algebra(2, (F(1), F(1)))
    for n in range(4):
        ok = ok and bar_cohomology_dimension(n, degenerate) == cohomology_dimension(
            n, degenerate, allow_non_generic=True
        )
    ok = ok and bar_cohomology_dimension(3, degenerate) > 0
    report("criterion 8: bar oracle agrees with the resolution engine", ok)


def test_criterion_09_zeta_invariance():
    tables = []
    for q in [(F(2), F(1), F(1)), (F(1), F(2), F(1)), (F(1, 2), F(4), F(1))]:
        alg = algebra(3, q)
        tables.append(
            [
                (hom_dimension(n, alg),)
                + kernel_image_dims(n, alg)
                + (cohomology_dimension(n, alg),)
                for n in range(9)
            ]
        )
    ok = tables[0] == tables[1] == tables[2]
    report("criterion 9: degree table depends only on zeta (m = 3)", ok)


def test_criterion_10_fault_injection(monkeypatch):
    alg = algebra(3, standard_q(3))
    bad = flip_one_sign(differential(2, alg), alg)
    real_d = resolution.differential
    with monkeypatch.context() as patch:
        patch.setattr(resolution, "differential", lambda n, a: bad if n == 2 else real_d(n, a))
        broken_complex = not check_complex(2, alg)

    real = homcomplex.expected_cohomology_dim

    def wrong(n, m):
        return real(n, m) + (1 if n == 0 else 0)

    monkeypatch.setattr(homcomplex, "expected_cohomology_dim", wrong)
    result = CliRunner().invoke(
        cli.main, ["compute", "--m", "2", "--q", "3,1", "--max-degree", "3"]
    )
    ok = broken_complex and result.exit_code == 1
    report("criterion 10: injected faults are detected", ok)
