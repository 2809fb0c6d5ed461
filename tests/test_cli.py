import json

import pytest
from cli_runner import CliRunner

from hhdeform import cli, homcomplex, resolution
from test_resolution import fresh_rows


@pytest.fixture()
def runner():
    return CliRunner()


def refuse_work(monkeypatch):
    """Make any work past argument checking raise."""

    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "make_algebra", refuse)
    monkeypatch.setattr(cli, "build_algebra", refuse)
    monkeypatch.setattr(cli, "run_check", refuse)


def test_compute_generic_table(runner):
    result = runner.invoke(
        cli.main, ["compute", "--m", "3", "--q", "2,1,1", "--max-degree", "6"]
    )
    assert result.exit_code == 0, result.output
    assert "zeta = 2" in result.output
    assert "check closed-form-comparison: pass" in result.output


def test_compute_json_schema_and_values(runner):
    result = runner.invoke(
        cli.main,
        ["compute", "--m", "3", "--q", "2,1,1", "--max-degree", "5", "--format", "json"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert set(payload) == {"spec", "degrees", "ring", "checks"}
    assert payload["spec"] == {"m": 3, "q": ["2", "1", "1"], "zeta": "2", "generic": True}
    hh = [row["hh"] for row in payload["degrees"]]
    assert hh == [4, 2, 1, 0, 0, 0]
    assert payload["degrees"][0] == {"n": 0, "hom_dim": 6, "ker": 4, "im": 0, "hh": 4}


def test_compute_json_round_trip(runner):
    result = runner.invoke(
        cli.main,
        ["compute", "--m", "2", "--q", "3,1", "--max-degree", "4", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert json.dumps(payload, indent=2) + "\n" == result.output


def test_compute_csv(runner):
    result = runner.invoke(
        cli.main,
        ["compute", "--m", "2", "--q", "3,1", "--max-degree", "2", "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "n,hom_dim,ker,im,hh"
    assert len(lines) == 4
    assert lines[1].split(",")[-1] == "3"  # dim HH^0 = m + 1


def test_compute_csv_names_a_failed_check_on_stderr(runner, monkeypatch):
    real = homcomplex.expected_cohomology_dim
    monkeypatch.setattr(
        homcomplex, "expected_cohomology_dim", lambda n, m: real(n, m) + (1 if n == 0 else 0)
    )
    args = ["compute", "--m", "2", "--q", "3,1", "--max-degree", "2", "--format", "csv"]
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 1
    # stdout stays the degree rows alone
    assert result.stdout.splitlines() == ["n,hom_dim,ker,im,hh", "0,4,3,0,3", "1,8,3,1,2", "2,12,6,5,1"]
    assert result.stderr == (
        "check closed-form-comparison: FAIL (degree 0: hh = 3, closed form gives 4)\n"
    )


def test_compute_csv_writes_nothing_to_stderr_when_every_check_passes(runner):
    args = ["compute", "--m", "2", "--q", "3,1", "--max-degree", "2", "--format", "csv"]
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 0
    assert result.stderr == ""


def test_compute_rational_q(runner):
    result = runner.invoke(
        cli.main,
        ["compute", "--m", "3", "--q", "1/2,4,1", "--max-degree", "4"],
    )
    assert result.exit_code == 0, result.output
    assert "zeta = 2" in result.output


def test_compute_refuses_root_of_unity(runner):
    result = runner.invoke(cli.main, ["compute", "--m", "2", "--q", "1,1"])
    assert result.exit_code == 2
    assert "root of unity" in result.output
    assert "--allow-non-generic" in result.output


def test_compute_allow_non_generic(runner):
    result = runner.invoke(
        cli.main,
        [
            "compute",
            "--m",
            "2",
            "--q",
            "1,1",
            "--allow-non-generic",
            "--max-degree",
            "3",
            "--format",
            "json",
        ],
    )
    # raw dimensions are reported without comparisons, so this succeeds
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["spec"]["generic"] is False
    assert payload["checks"] == []
    assert payload["degrees"][3]["hh"] > 0


def test_compute_bad_q(runner):
    assert runner.invoke(cli.main, ["compute", "--m", "2", "--q", "1"]).exit_code == 2
    assert (
        runner.invoke(cli.main, ["compute", "--m", "2", "--q", "0,1"]).exit_code == 2
    )
    assert (
        runner.invoke(cli.main, ["compute", "--m", "2", "--q", "0.5,1"]).exit_code == 2
    )
    # only [+-]?digits(/digits)? is a rational, whatever Fraction accepts
    for bad in ("1e3", "1_000", "1E-2", "\u0663", "1/-2", "inf"):
        result = runner.invoke(cli.main, ["compute", "--m", "2", "--q", f"{bad},1"])
        assert result.exit_code == 2, bad


def test_verify_structure_checks(runner):
    result = runner.invoke(
        cli.main,
        [
            "verify",
            "--m",
            "3",
            "--q",
            "2,1,1",
            "--checks",
            "recursions,complex,hom-dims",
            "--max-degree",
            "6",
        ],
    )
    assert result.exit_code == 0, result.output
    for name in ("recursions", "complex", "hom-dims"):
        assert f"check {name}: pass" in result.output


def test_verify_ring_and_oracle(runner):
    result = runner.invoke(
        cli.main,
        [
            "verify",
            "--m",
            "2",
            "--q",
            "3,1",
            "--checks",
            "cohomology,ring,oracle",
            "--max-degree",
            "8",
            "--format",
            "json",
        ],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert all(chk["pass"] for chk in payload["checks"])
    assert payload["ring"]["total_dim"] == 6
    assert payload["ring"]["passed"]


def test_verify_default_checks_and_their_details(runner):
    result = runner.invoke(cli.main, ["verify", "--m", "2", "--q", "3,1", "--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["checks"] == [
        {"name": "complex", "pass": True, "detail": "d o d = 0 through degree 10"},
        {"name": "exactness", "pass": True, "detail": "degrees 0..4"},
        {"name": "recursions", "pass": True, "detail": "degrees 1..8"},
        {"name": "hom-dims", "pass": True, "detail": "degrees 0..10"},
        {"name": "cohomology", "pass": True, "detail": "degrees 0..10"},
        {"name": "ring", "pass": True, "detail": "total dim 6"},
        {"name": "oracle", "pass": True, "detail": "engines agree through degree 3"},
    ]


def test_verify_oracle_non_generic(runner):
    # the oracle cross-check itself is regime-independent
    result = runner.invoke(
        cli.main,
        [
            "verify",
            "--m",
            "2",
            "--q",
            "1,1",
            "--checks",
            "complex,exactness,oracle",
            "--max-degree",
            "4",
        ],
    )
    assert result.exit_code == 0, result.output


def test_verify_oracle_past_its_cap_fails_and_the_other_checks_still_run(runner):
    # the bar oracle stops at m <= 3: at m = 4 it fails with its cap, and
    # hom-dims after it still runs and passes
    result = runner.invoke(
        cli.main,
        ["verify", "--m", "4", "--q", "2,1,1,1", "--checks", "oracle,hom-dims", "--format", "json"],
    )
    assert result.exit_code == 1, result.output
    payload = json.loads(result.output)
    assert payload["checks"] == [
        {"name": "oracle", "pass": False, "detail": "bar oracle capped at n <= 3, m <= 3"},
        {"name": "hom-dims", "pass": True, "detail": "degrees 0..14"},
    ]


@pytest.mark.parametrize("q", ["-1,1,1", "1,1,1"])
def test_verify_closed_form_checks_at_a_root_of_unity(runner, q):
    # --allow-non-generic lets the run proceed; the closed forms and the
    # ring presentation then fail with that reason, not a request for the flag
    result = runner.invoke(
        cli.main,
        ["verify", "--m", "3", "--q", q, "--checks", "ring,cohomology",
         "--allow-non-generic", "--format", "json"],
    )
    assert result.exit_code == 1, result.output
    payload = json.loads(result.output)
    assert payload["ring"] is None
    assert [chk["name"] for chk in payload["checks"]] == ["ring", "cohomology"]
    for chk in payload["checks"]:
        assert chk["pass"] is False
        assert "root of unity" in chk["detail"]
        assert "do not apply" in chk["detail"]
        assert "allow_non_generic" not in chk["detail"]


def test_verify_unknown_check(runner):
    result = runner.invoke(
        cli.main, ["verify", "--m", "2", "--q", "3,1", "--checks", "nonsense"]
    )
    assert result.exit_code == 2
    assert "unknown checks" in result.output


def test_verify_detects_injected_fault(runner, monkeypatch):
    # corrupt the closed-form table and make sure the comparison trips
    real = homcomplex.expected_cohomology_dim

    def wrong(n, m):
        return real(n, m) + (1 if n == 2 else 0)

    monkeypatch.setattr(homcomplex, "expected_cohomology_dim", wrong)
    result = runner.invoke(
        cli.main,
        ["verify", "--m", "2", "--q", "3,1", "--checks", "cohomology", "--max-degree", "4"],
    )
    assert result.exit_code == 1
    assert "check cohomology: FAIL" in result.output



@pytest.mark.parametrize("m, q", [(1, "-5/2"), (3, "2,1,1")])
@pytest.mark.parametrize(
    "check, field, form",
    [("hom-dims", "hom_dim", "expected_hom_dimension"),
     ("cohomology", "hh", "expected_cohomology_dim")],
)
def test_verify_closed_form_checks_name_the_degree_and_field(
    runner, monkeypatch, m, q, check, field, form
):
    # the closed form is off by one from degree 2 on; the detail is the
    # first mismatch, in compute's wording
    real = getattr(homcomplex, form)
    monkeypatch.setattr(homcomplex, form, lambda n, m: real(n, m) + (n >= 2))
    args = ["verify", "--m", str(m), "--q", q, "--checks", check, "--format", "json"]
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 1
    got = real(2, m)
    assert json.loads(result.output)["checks"] == [
        {"name": check, "pass": False,
         "detail": f"degree 2: {field} = {got}, closed form gives {got + 1}"}
    ]

def test_compute_detects_injected_fault(runner, monkeypatch):
    real = homcomplex.expected_hom_dimension

    def wrong(n, m):
        return real(n, m) + (1 if n == 1 else 0)

    monkeypatch.setattr(homcomplex, "expected_hom_dimension", wrong)
    result = runner.invoke(
        cli.main, ["compute", "--m", "2", "--q", "3,1", "--max-degree", "3"]
    )
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_sweep(runner):
    result = runner.invoke(
        cli.main,
        ["sweep", "--m-range", "1:5", "--zeta", "2", "--format", "json"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert len(payload["checks"]) == 5
    for m, chk in zip(range(1, 6), payload["checks"]):
        assert chk["pass"]
        assert f"total dim {m + 4}" in chk["detail"]


def test_sweep_keeps_the_generator_rows_of_one_m(runner, monkeypatch):
    # the rows kept after a sweep are those of its last m, whatever its range
    kept = {}
    for m_range in ("1:8", "8:8"):
        fresh_rows(monkeypatch)
        result = runner.invoke(cli.main, ["sweep", "--m-range", m_range, "--zeta", "3/2"])
        assert result.exit_code == 0, result.output
        rows = resolution._generators
        assert {m for _n, m in rows} == {8}
        kept[m_range] = sum(len(table) for table in rows.values())
    assert 0 < kept["1:8"] <= kept["8:8"]


def test_sweep_skips_roots_of_unity(runner):
    result = runner.invoke(
        cli.main, ["sweep", "--m-range", "2:2", "--zeta", "-1,3"]
    )
    assert result.exit_code == 0, result.output
    assert "skipped: zeta is a root of unity" in result.output
    assert "total dim 6" in result.output


def test_sweep_exits_1_when_a_total_is_wrong(runner, monkeypatch):
    real = homcomplex.kernel_image_dims

    def wrong(n, alg):
        ker, im = real(n, alg)
        return ker + (1 if n == 0 else 0), im

    monkeypatch.setattr(homcomplex, "kernel_image_dims", wrong)
    result = runner.invoke(
        cli.main, ["sweep", "--m-range", "2:2", "--zeta", "2,-1", "--format", "json"]
    )
    assert result.exit_code == 1, result.output
    assert json.loads(result.output)["checks"] == [
        {"name": "m=2, zeta=2", "pass": False, "detail": "total dim 7, expected 6"},
        {"name": "m=2, zeta=-1", "pass": True, "detail": "skipped: zeta is a root of unity"},
    ]


def test_sweep_bad_range(runner):
    result = runner.invoke(cli.main, ["sweep", "--m-range", "15", "--zeta", "2"])
    assert result.exit_code == 2


def test_sweep_rejects_allow_non_generic(runner):
    result = runner.invoke(
        cli.main, ["sweep", "--m-range", "1:1", "--zeta", "2", "--allow-non-generic"]
    )
    assert result.exit_code == 2
    assert "--allow-non-generic" in result.output


@pytest.mark.parametrize(
    "m_range,zeta",
    [("0:2", "2"), ("3:1", "2"), ("+1:2", "2"), ("0_1:2", "2"), ("1:2", "0"), ("1:2", ",")],
    ids=["lo-zero", "lo-above-hi", "signed", "underscore", "zeta-zero", "zeta-empty"],
)
def test_sweep_rejects_bad_arguments(runner, m_range, zeta):
    result = runner.invoke(cli.main, ["sweep", "--m-range", m_range, "--zeta", zeta])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "args",
    [
        ["compute", "--m", "2", "--q", "1,,2"],
        ["compute", "--m", "2", "--q", ",1,2,"],
        ["verify", "--m", "2", "--q", "2,1", "--checks", ","],
    ],
    ids=["q-inner", "q-outer", "checks"],
)
def test_empty_list_entries_rejected(runner, args):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2, result.output
    assert "empty entry" in result.output


@pytest.mark.parametrize("check", ["complex", "exactness"])
def test_verify_rejects_max_degree_zero_for_the_resolution_checks(runner, check):
    result = runner.invoke(
        cli.main,
        ["verify", "--m", "2", "--q", "2,1", "--checks", check, "--max-degree", "0"],
    )
    assert result.exit_code == 2, result.output
    assert "--max-degree" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "args,needed",
    [
        (["verify", "--m", "2", "--q", "2,1", "--checks", "recursions", "--max-degree", "0"], 1),
        (["verify", "--m", "2", "--q", "2,1", "--checks", "hom-dims,ring", "--max-degree", "1"], 2),
        (["sweep", "--m-range", "1:2", "--zeta", "2", "--max-degree", "1"], 2),
    ],
    ids=["recursions", "ring", "sweep"],
)
def test_max_degree_below_what_the_work_needs_is_rejected_before_any_work(
    runner, monkeypatch, args, needed
):
    refuse_work(monkeypatch)
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2, result.output
    assert f"--max-degree >= {needed}" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--m", "2", "--q", "2,1", "--checks", "recursions", "--max-degree", "1"],
        ["verify", "--m", "2", "--q", "2,1", "--checks", "ring", "--max-degree", "2"],
        ["sweep", "--m-range", "1:2", "--zeta", "2", "--max-degree", "2"],
    ],
    ids=["recursions", "ring", "sweep"],
)
def test_least_max_degree_that_the_work_needs_passes(runner, args):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "args",
    [
        ["compute", "--m", "2", "--q", "2,1"],
        ["verify", "--m", "2", "--q", "2,1"],
        ["sweep", "--m-range", "1:2", "--zeta", "2"],
    ],
    ids=["compute", "verify", "sweep"],
)
def test_negative_max_degree_rejected(runner, args):
    result = runner.invoke(cli.main, args + ["--max-degree", "-1"])
    assert result.exit_code == 2, result.output
    assert "--max-degree" in result.output


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_m_below_one_rejected(runner, command):
    result = runner.invoke(cli.main, [command, "--m", "0", "--q", "1"])
    assert result.exit_code == 2, result.output
    assert "--m" in result.output
    assert "parameters" not in result.output


@pytest.mark.parametrize("command", ["compute", "verify", "sweep"])
def test_output_directory_rejected_before_any_work(runner, monkeypatch, tmp_path, command):
    refuse_work(monkeypatch)
    args = {
        "compute": ["compute", "--m", "2", "--q", "2,1"],
        "verify": ["verify", "--m", "2", "--q", "2,1"],
        "sweep": ["sweep", "--m-range", "1:2", "--zeta", "2"],
    }[command]
    # a directory, and a file in a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "out.json"):
        result = runner.invoke(cli.main, args + ["--output", str(target)])
        assert result.exit_code == 2, result.output
        assert "--output" in result.output and "directory" in result.output


def test_verify_max_degree_zero_allowed_for_other_checks(runner):
    result = runner.invoke(
        cli.main,
        ["verify", "--m", "2", "--q", "2,1", "--checks", "hom-dims,cohomology,oracle",
         "--max-degree", "0"],
    )
    assert result.exit_code == 0, result.output


def test_output_file(runner, tmp_path):
    target = tmp_path / "out.json"
    result = runner.invoke(
        cli.main,
        [
            "compute",
            "--m",
            "2",
            "--q",
            "3,1",
            "--max-degree",
            "2",
            "--format",
            "json",
            "--output",
            str(target),
        ],
    )
    assert result.exit_code == 0
    assert result.output == ""
    payload = json.loads(target.read_text())
    assert payload["spec"]["m"] == 2


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--m", "2", "--q", "2,1", "--checks", "ring"],
        ["sweep", "--m-range", "1:2", "--zeta", "2"],
    ],
    ids=["verify", "sweep"],
)
def test_csv_refused_where_there_are_no_degree_rows(runner, monkeypatch, args):
    # CSV is compute's per-degree table; verify and sweep report checks only
    refuse_work(monkeypatch)
    result = runner.invoke(cli.main, args + ["--format", "csv"])
    assert result.exit_code == 2, result.output
    assert "--format" in result.output and "csv" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--m", "2", "--q", "2,1", "--checks", "ring,ring"],
        ["verify", "--m", "2", "--q", "2,1", "--checks", "complex, oracle,complex"],
        ["sweep", "--m-range", "1:2", "--zeta", "2,2"],
        ["sweep", "--m-range", "1:2", "--zeta", "1/2,2,2/1"],
        ["sweep", "--m-range", "1:2", "--zeta", "-3/6,-1/2"],
    ],
    ids=["checks", "checks-spaced", "zeta", "zeta-unreduced", "zeta-negative"],
)
def test_repeated_list_entries_rejected_before_any_work(runner, monkeypatch, args):
    refuse_work(monkeypatch)
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2, result.output
    assert args[-2] + " repeats" in result.output


@pytest.mark.parametrize("max_degree", ["3", "12"])
def test_verify_prints_the_ring_report_that_it_checked(runner, monkeypatch, max_degree):
    from hhdeform import ring

    real = ring.ring_report
    degrees = []

    def recorded(alg, max_degree):
        degrees.append(max_degree)
        return real(alg, max_degree=max_degree)

    monkeypatch.setattr(ring, "ring_report", recorded)
    result = runner.invoke(
        cli.main,
        ["verify", "--m", "2", "--q", "2,1", "--checks", "ring",
         "--max-degree", max_degree, "--format", "json"],
    )
    assert result.exit_code == 0, result.output
    top = min(int(max_degree), cli.RING_MAX_DEGREE)
    assert degrees == [top, top]
    alg = cli.make_algebra(2, "2,1", False)
    assert json.loads(result.output)["ring"] == json.loads(json.dumps(real(alg, max_degree=top)))


@pytest.mark.parametrize(
    "args, q",
    [
        (["compute", "--m", "1", "--q", "-2/7"], ["-2/7"]),
        (["compute", "--m", "1", "--q=-2/7"], ["-2/7"]),
        (["compute", "--m", "2", "--q", "-1,-5/8"], ["-1", "-5/8"]),
        (["compute", "--m=2", "--q=-1,-5/8", "--max-degree=3"], ["-1", "-5/8"]),
    ],
    ids=["q-negative", "q-equals", "q-negative-list", "all-equals"],
)
def test_a_value_is_the_next_word_even_when_it_starts_with_a_dash(runner, args, q):
    result = runner.invoke(cli.main, args + ["--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["spec"]["q"] == q


def test_a_negative_zeta_list_is_a_value(runner):
    result = runner.invoke(
        cli.main, ["sweep", "--m-range", "1:1", "--zeta", "-1/3,2", "--format", "json"]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["spec"]["zeta"] == ["-1/3", "2"]


@pytest.mark.parametrize(
    "command, options",
    [
        ("compute", ["--m", "--q", "--max-degree", "--format", "--output", "--allow-non-generic"]),
        ("verify", ["--m", "--q", "--checks", "--max-degree", "--format", "--output",
                    "--allow-non-generic"]),
        ("sweep", ["--m-range", "--zeta", "--max-degree", "--format", "--output"]),
    ],
)
def test_command_help_names_every_option(runner, monkeypatch, command, options):
    refuse_work(monkeypatch)
    # --help wins wherever it stands, and the other words are not read
    for args in ([command, "--help"], [command, options[0], "x", "--help"]):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        assert result.stdout.startswith(f"Usage: hhdeform {command} [OPTIONS]\n")
        for option in options:
            assert f"\n  {option} " in result.stdout


def test_program_help_names_every_command(runner):
    result = runner.invoke(cli.main, ["--help"])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    for command in ("compute", "verify", "sweep"):
        assert f"\n  {command} " in result.stdout


def test_no_command_prints_the_help_on_stderr_and_exits_2(runner):
    result = runner.invoke(cli.main, [])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == runner.invoke(cli.main, ["--help"]).stdout


@pytest.mark.parametrize(
    "args, message",
    [
        (["compute", "--m", "2", "--q", "2,1", "--bogus", "1"], "No such option '--bogus'"),
        (["compute", "--m", "2", "--q", "2,1", "--m-range", "1:2"], "No such option '--m-range'"),
        (["compute", "--m", "2", "--q"], "Option '--q' requires an argument"),
        (["verify", "--m", "2", "--q", "2,1", "--max-degree"],
         "Option '--max-degree' requires an argument"),
        (["compute", "--q", "2,1"], "Missing option '--m'"),
        (["verify", "--m", "2"], "Missing option '--q'"),
        (["sweep", "--m-range", "1:2"], "Missing option '--zeta'"),
        (["compute", "--m", "2", "--q", "2,1", "--allow-non-generic=1"],
         "Option '--allow-non-generic' does not take a value"),
        (["compute", "--m", "2", "--q", "2,1", "extra"], "unexpected extra argument (extra)"),
        (["bogus", "--m", "2"], "No such command 'bogus'"),
        (["--m", "2", "compute"], "No such option '--m'"),
    ],
    ids=["unknown", "other-command", "missing-value", "missing-value-at-end", "required-m",
         "required-q", "required-zeta", "flag-value", "extra-word", "unknown-command",
         "option-before-command"],
)
def test_a_malformed_command_line_exits_2_and_names_the_option(runner, monkeypatch, args, message):
    refuse_work(monkeypatch)
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert message in result.stderr


@pytest.mark.parametrize(
    "args, option",
    [
        (["compute", "--m", "2", "--m", "3", "--q", "2,1,1"], "--m"),
        (["compute", "--m", "3", "--q", "2,1,1", "--m=3"], "--m"),
        (["compute", "--m", "2", "--q", "2,1", "--format", "csv", "--format", "json"], "--format"),
        (["verify", "--m", "2", "--q", "2,1", "--checks", "ring", "--checks", "oracle"], "--checks"),
        (["compute", "--m", "2", "--q", "1,1", "--allow-non-generic", "--allow-non-generic"],
         "--allow-non-generic"),
        (["sweep", "--m-range", "1:2", "--zeta", "2", "--zeta", "3"], "--zeta"),
        (["sweep", "--m-range", "1:2", "--zeta", "2", "--max-degree", "3", "--max-degree", "4"],
         "--max-degree"),
    ],
    ids=["m", "m-equals", "format", "checks", "flag", "zeta", "max-degree"],
)
def test_an_option_given_twice_is_refused_before_any_work(runner, monkeypatch, args, option):
    refuse_work(monkeypatch)
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2, result.output
    assert f"Option '{option}' is given more than once" in result.stderr


@pytest.mark.parametrize("value", ["３", "٣", " 3", "3 ", "+3", "1_6", "3.0", "0x3", ""])
@pytest.mark.parametrize("option", ["--m", "--max-degree"])
def test_integer_options_take_ascii_digits_only(runner, monkeypatch, option, value):
    refuse_work(monkeypatch)
    args = {"--m": ["compute", "--q", "2,1,1"], "--max-degree": ["compute", "--m", "3", "--q", "2,1,1"]}
    result = runner.invoke(cli.main, args[option] + [option, value])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.stderr


def test_an_integer_past_what_int_reads_is_a_usage_error(runner, monkeypatch):
    refuse_work(monkeypatch)
    result = runner.invoke(cli.main, ["compute", "--q", "2", "--m", "9" * 5000])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--m'" in result.stderr
