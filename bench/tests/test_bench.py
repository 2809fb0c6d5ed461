"""The benchmark's own tests: runner, tracer, reference and digest guard,
on the `smoke` workload, in seconds.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

import pace
import reference
import tracer as tracer_mod
import workloads
from worker import BENCH, ROOT, guard, load_cli, load_data, run_pass, traced_pass

SMOKE_SEED = 1


@pytest.fixture(scope="module")
def cli():
    return load_cli()


@pytest.fixture(scope="module")
def table():
    return load_data("nongeneric.json")


def smoke_ops():
    return workloads.ops("smoke", SMOKE_SEED)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"} == {m["name"] for m in spec["end_to_end"]}
    assert max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    assert [w["name"] for w in spec["workloads"]] == ["compute-m16", "verify-complex-m8", "oracle-small"]
    assert all(w["name"] in workloads.WORKLOADS for w in spec["workloads"])
    layers = json.loads((BENCH / "layers.json").read_text())
    assert list(layers) == [m["name"] for m in spec["per_layer"]]


def test_closed_forms_agree_with_the_program(cli):
    from hhdeform import homcomplex

    for m in range(1, 7):
        rows = reference.generic_rows(m, 3 * m + 4)
        for row in rows:
            n = row["n"]
            assert row["hom_dim"] == homcomplex.expected_hom_dimension(n, m)
            assert row["hh"] == homcomplex.expected_cohomology_dim(n, m)
            if m >= 2:
                assert row["ker"] == homcomplex.expected_kernel_dim(n, m)
                assert row["im"] == homcomplex.expected_image_dim(n, m)


def test_seeded_specs():
    assert workloads.ops("oracle-small", 7) == workloads.ops("oracle-small", 7)
    assert workloads.ops("oracle-small", 7) != workloads.ops("oracle-small", 8)
    ops = workloads.ops("oracle-small", 3)
    assert len(ops) == 19
    for o in ops[:-1]:
        zeta = workloads.product(Fraction(v) for v in o["q"])
        assert (zeta in workloads.ROOTS_OF_UNITY) == o["non_generic"]
    for o in workloads.ops("compute-m16", 3) + ops[:2]:
        assert all(abs(Fraction(v).numerator) <= 9 and Fraction(v).denominator <= 9 for v in o["q"])


def test_smoke_run_end_to_end():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench("--workload", "smoke", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 15
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate=0 " in proc.stdout.splitlines()[-2]


def test_smoke_run_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench("--workload", "smoke", "--seed", str(SMOKE_SEED), "--seconds", "1",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["guard.digests_checked"] == 3 * len(smoke_ops())
    assert metrics["homcomplex.coboundary_matrix.calls"] > 0
    assert metrics["resolution.underlying_matrix.calls"] > 0
    assert metrics["bar.bar_cohomology_dimension.calls"] > 0


def test_pace_measures_the_calibration_loop_at_its_reference_time():
    # whatever the host's speed, n calibration loops take about n * REF_S
    # of paced time, and the signal handler and timer are put back after
    handler = signal.getsignal(signal.SIGALRM)
    loops = 2000
    with pace.Pace() as paced:
        for _ in range(loops):
            pace.calibration()
    assert 0.5 < paced.wall / (loops * pace.REF_S) < 2
    assert 0.5 < paced.cpu / (loops * pace.REF_S) < 2
    assert paced.raw_wall > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_unrecorded_seed_is_guarded_on_a_recorded_one():
    proc = run_bench("--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 3 * len(smoke_ops())
    assert result["metrics"]["guard.digests_checked"]["value"] == 3 * len(smoke_ops())
    assert f"guard checked seed {SMOKE_SEED}" in proc.stdout.splitlines()[-2]


def test_counts_repeat_exactly(cli, table):
    def counts():
        tr, _, problems = traced_pass(cli, smoke_ops(), table)
        assert not any(problems)
        stats = tr.span_stats()
        calls = {name: entry[0] for name, entry in stats.items()}
        return calls, dict(tr.counts), tr.op_digests

    assert counts() == counts()


def test_untraced_runs_see_unwrapped_functions(cli, table):
    import importlib

    def bound():
        out = {}
        for _, module_name, attr, _ in tracer_mod.TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                out[attr] = vars(getattr(module, cls_name))[method]
            else:
                out[attr] = getattr(module, attr)
        for alias in ("homcomplex.differential", "homcomplex.generators",
                      "ring.coboundary_matrix", "ring.hom_space_basis", "ring.differential",
                      "cli.verify_g_recursions", "cli.build_algebra"):
            mod, name = alias.split(".")
            out[alias] = getattr(importlib.import_module(f"hhdeform.{mod}"), name)
        return out

    before = bound()
    assert not any(hasattr(f, "__wrapped__") for f in before.values())
    _, problems = run_pass(cli, smoke_ops(), table)
    assert not any(problems)
    assert bound() == before

    tr = tracer_mod.Tracer()
    tr.install()
    try:
        during = bound()
        for key in ("ring.coboundary_matrix", "ring.differential", "homcomplex.differential",
                    "cli.verify_g_recursions", "coboundary_matrix", "Algebra.multiply"):
            assert during[key].__wrapped__ is before[key]
        # by-name imports are rebound to the same wrapper as the defining module
        assert during["ring.coboundary_matrix"] is during["coboundary_matrix"]
        assert during["ring.differential"] is during["homcomplex.differential"] is during["differential"]
    finally:
        tr.uninstall()
    assert bound() == before


def flip_one_coefficient(monkeypatch):
    """Fault: every coboundary matrix comes back with its first nonzero
    coefficient negated."""
    from hhdeform import homcomplex, linalg, ring

    original = homcomplex.coboundary_matrix

    def faulty(n, alg):
        mat = original(n, alg)
        rows = [dict(row) for row in mat._rows]
        for row in rows:
            if row:
                col = min(row)
                row[col] = -row[col]
                break
        return linalg.Matrix(mat.rows, mat.cols, rows if rows else None)

    monkeypatch.setattr(homcomplex, "coboundary_matrix", faulty)
    monkeypatch.setattr(ring, "coboundary_matrix", faulty)


def test_injected_fault_raises_error_rate_and_trips_guard(cli, table, monkeypatch):
    ops = smoke_ops()
    recorded = load_data("digests.json")["smoke"][str(SMOKE_SEED)]
    tr, _, problems = traced_pass(cli, ops, table)
    assert not any(problems)
    assert guard(tr, recorded) == (3 * len(ops), {})

    flip_one_coefficient(monkeypatch)
    tr, _, problems = traced_pass(cli, ops, table)
    failed = sum(1 for p in problems if p)
    assert failed / len(ops) > 0
    checked, bad = guard(tr, recorded)
    assert checked == 3 * len(ops) and bad
    assert all("homcomplex.coboundary_matrix" in streams for streams in bad.values())


def test_stripped_checkout_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "compute-m16", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
