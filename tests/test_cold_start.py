"""What `import hhdeform.cli` loads, each case in a fresh interpreter.

The bar oracle, `logging` and `dataclasses` are left out of the import:
`compute` and `sweep` never read them, and every CLI start would pay to
compile them.  `hhdeform.ring` stays eager, because it imports
`coboundary_matrix` and `differential` by name: imported for the first
time while `bench/tracer.py` is installed, it would bind the tracer's
wrappers, which `uninstall` never puts back.  `bar` imports no traced
function by name, so it is safe to load late.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import hhdeform
import hhdeform.bar
from hhdeform import cli

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = ("hhdeform.bar", "logging", "dataclasses")
ORACLE_ARGS = ["verify", "--m", "2", "--q", "2,1", "--checks", "oracle", "--format", "json"]


def fresh(code):
    """(stdout, the JSON on the last line of stderr) of `code`, run in a new
    interpreter that imports hhdeform from src/."""
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return out.stdout, json.loads(out.stderr.strip().splitlines()[-1])


def run_cli(args):
    """Code that runs the CLI on args in-process; `report` ends it with
    SystemExit, which fails the process unless its code is 0."""
    return (
        f"import hhdeform.cli\ntry:\n    hhdeform.cli.main(args={args!r}, standalone_mode=False)\n"
        "except SystemExit as exc:\n    if exc.code:\n        raise"
    )


def loaded(names):
    """Code that writes {name: loaded?} for names to stderr."""
    return f"\nprint(json.dumps({{n: n in sys.modules for n in {list(names)!r}}}), file=sys.stderr)"


def test_cli_import_leaves_out_the_oracle_logging_and_dataclasses():
    _, got = fresh("import hhdeform.cli" + loaded(LAZY + ("hhdeform.ring",)))
    assert got == {"hhdeform.bar": False, "logging": False, "dataclasses": False,
                   # eager: see the module docstring for the tracer's by-name rebinding
                   "hhdeform.ring": True}


def test_compute_runs_without_the_lazy_modules():
    out, got = fresh(run_cli(["compute", "--m", "3", "--q", "2,1,1", "--format", "json"]) + loaded(LAZY))
    assert json.loads(out)["checks"][0]["pass"] is True
    assert got == dict.fromkeys(LAZY, False)


def test_the_oracle_check_loads_bar_and_prints_the_same_payload():
    out, got = fresh(run_cli(ORACLE_ARGS) + loaded(["hhdeform.bar"]))
    assert got == {"hhdeform.bar": True}
    # this process imported bar up front, as the package once did
    eager = CliRunner().invoke(cli.main, ORACLE_ARGS)
    assert eager.exit_code == 0, eager.output
    assert out == eager.output
    assert json.loads(eager.output)["checks"] == [
        {"name": "oracle", "pass": True, "detail": "engines agree through degree 3"}
    ]


def test_the_package_reads_the_oracle_names_on_first_use():
    _, got = fresh(
        "import hhdeform\nbefore = 'hhdeform.bar' in sys.modules\n"
        "same = [getattr(hhdeform, n) is getattr(hhdeform.bar, n)"
        " for n in ('bar_cochain_dimension', 'bar_cohomology_dimension')]\n"
        "print(json.dumps([before, same]), file=sys.stderr)"
    )
    assert got == [False, [True, True]]
    assert hhdeform.bar_cohomology_dimension is hhdeform.bar.bar_cohomology_dimension
    assert hhdeform.bar_cochain_dimension is hhdeform.bar.bar_cochain_dimension


def test_an_unknown_package_attribute_is_named():
    with pytest.raises(AttributeError, match="'hhdeform' has no attribute 'no_such_name'"):
        hhdeform.no_such_name
