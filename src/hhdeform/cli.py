"""Command-line interface: compute, verify, sweep.

Rationals are written as integers or "p/q"; no decimals are accepted,
since every computation is exact.  Output formats: a plain text table,
JSON with the fixed schema

    {spec: {m, q, zeta, generic},
     degrees: [{n, hom_dim, ker, im, hh}],
     ring: {...} | null,
     checks: [{name, pass, detail}]}

and CSV with one row per degree, for `compute` only.  Every command exits
1 when a check failed (compute's one check is its closed-form comparison),
2 on invalid configuration, and 0 otherwise.
"""

import json
import os
import re
import sys
from fractions import Fraction

import click

from . import bar, homcomplex, resolution, ring
from .algebra import AlgebraSpec, build_algebra
from .freepaths import verify_g_recursions

# The ring check and the ring report that `verify` prints both stop here.
RING_MAX_DEGREE = 8


RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text):
    try:
        if not RATIONAL.fullmatch(text.strip()):
            raise ValueError("not an integer or p/q")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(f"not a rational: {text!r}") from exc


def parse_list(text, option):
    """The stripped entries of a comma list; an empty entry is refused."""
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise click.BadParameter(f"{option} has an empty entry: {text!r}")
    return parts


def parse_q(text, m):
    parts = parse_list(text, "--q")
    if len(parts) != m:
        raise click.BadParameter(f"expected {m} parameters, got {len(parts)}")
    return tuple(parse_rational(p) for p in parts)


def make_algebra(m, q_text, allow_non_generic, needs_generic=True):
    try:
        spec = AlgebraSpec(m, parse_q(q_text, m))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    alg = build_algebra(spec)
    if needs_generic and not alg.generic and not allow_non_generic:
        raise click.UsageError(
            f"zeta = {alg.zeta} is a root of unity; pass --allow-non-generic "
            "to compute raw dimensions without theorem comparisons"
        )
    return alg


def spec_payload(alg):
    return {
        "m": alg.m,
        "q": [str(v) for v in alg.q],
        "zeta": str(alg.zeta),
        "generic": alg.generic,
    }


def degree_rows(alg, max_degree):
    rows = []
    for n in range(max_degree + 1):
        ker, im = homcomplex.kernel_image_dims(n, alg)
        rows.append(
            {
                "n": n,
                "hom_dim": homcomplex.hom_dimension(n, alg),
                "ker": ker,
                "im": im,
                "hh": ker - im,
            }
        )
    return rows


def compare_rows(rows, m):
    """Mismatches between computed rows and the closed-form tables."""
    mismatches = []
    for row in rows:
        n = row["n"]
        expected = {
            "hom_dim": homcomplex.expected_hom_dimension(n, m),
            "hh": homcomplex.expected_cohomology_dim(n, m),
        }
        if m >= 2:
            expected["ker"] = homcomplex.expected_kernel_dim(n, m)
            expected["im"] = homcomplex.expected_image_dim(n, m)
        for field, want in expected.items():
            if row[field] != want:
                mismatches.append(
                    f"degree {n}: {field} = {row[field]}, closed form gives {want}"
                )
    return mismatches


def emit(payload, fmt, output):
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        lines = ["n,hom_dim,ker,im,hh"]
        for row in payload["degrees"]:
            lines.append(
                f'{row["n"]},{row["hom_dim"]},{row["ker"]},{row["im"]},{row["hh"]}'
            )
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            "m = {m}, q = ({q}), zeta = {zeta}, generic = {generic}".format(
                m=payload["spec"]["m"],
                q=", ".join(payload["spec"]["q"]),
                zeta=payload["spec"]["zeta"],
                generic=payload["spec"]["generic"],
            )
        ]
        if payload["degrees"]:
            lines.append(f"{'n':>4} {'hom':>5} {'ker':>5} {'im':>5} {'hh':>5}")
            for row in payload["degrees"]:
                lines.append(
                    f"{row['n']:>4} {row['hom_dim']:>5} {row['ker']:>5} "
                    f"{row['im']:>5} {row['hh']:>5}"
                )
        if payload["ring"] is not None:
            lines.append(
                "ring: total dim {td}, {ok}".format(
                    td=payload["ring"]["total_dim"],
                    ok="all relations verified" if payload["ring"]["passed"] else
                    "FAILED: " + "; ".join(payload["ring"]["failures"]),
                )
            )
        for chk in payload["checks"]:
            status = "pass" if chk["pass"] else "FAIL"
            detail = f" ({chk['detail']})" if chk["detail"] else ""
            lines.append(f"check {chk['name']}: {status}{detail}")
        text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        click.echo(text, nl=False)


def report(spec, degrees, ring_payload, checks, fmt, output):
    """Emit the payload, then exit 1 if a check failed and 0 otherwise."""
    emit({"spec": spec, "degrees": degrees, "ring": ring_payload, "checks": checks}, fmt, output)
    sys.exit(0 if all(chk["pass"] for chk in checks) else 1)


def output_in_a_directory(ctx, param, value):
    """Refuse an --output in a missing directory; click.Path does not look."""
    if value and not os.path.isdir(os.path.dirname(os.path.abspath(value))):
        raise click.BadParameter(f"the directory of {value!r} does not exist")
    return value


def common_options(*formats):
    def decorate(f):
        f = click.option("--max-degree", type=click.IntRange(min=0), default=None, help="Top degree (default 2m+6).")(f)
        f = click.option("--format", "fmt", type=click.Choice(formats), default="table")(f)
        return click.option(
            "--output", type=click.Path(dir_okay=False), default=None, callback=output_in_a_directory
        )(f)
    return decorate


allow_non_generic_option = click.option("--allow-non-generic", is_flag=True, default=False)


@click.group()
def main():
    """Exact Hochschild cohomology of the deformed cycle algebras."""


@main.command()
@click.option("--m", "m", type=click.IntRange(min=1), required=True)
@click.option("--q", "q_text", type=str, required=True, help="Comma list of m rationals.")
@common_options("table", "json", "csv")
@allow_non_generic_option
def compute(m, q_text, max_degree, fmt, allow_non_generic, output):
    """Per-degree dimension table, compared against the closed forms."""
    alg = make_algebra(m, q_text, allow_non_generic)
    if max_degree is None:
        max_degree = 2 * m + 6
    rows = degree_rows(alg, max_degree)
    checks = []
    if alg.generic:
        mismatches = compare_rows(rows, m)
        checks.append(
            {
                "name": "closed-form-comparison",
                "pass": not mismatches,
                "detail": "; ".join(mismatches),
            }
        )
    report(spec_payload(alg), rows, None, checks, fmt, output)


def check_recursions(alg, top):
    top = min(top, 8)
    for n in range(1, top + 1):
        if not verify_g_recursions(n, alg):
            return False, f"recursion identity fails at degree {n}"
    return True, f"degrees 1..{top}"


def check_complex(alg, top):
    return resolution.check_complex(top, alg), f"d o d = 0 through degree {top}"


def check_exactness(alg, top):
    top = min(top, 5)
    ok, rows = resolution.verify_exactness(top, alg)
    for r in rows:
        if not r["ok"]:
            return ok, f"degree {r['degree']}: kernel {r['kernel_dim']} != image {r['image_dim']}"
    return ok, f"degrees 0..{top - 1}"


def check_hom_dims(alg, top):
    for n in range(top + 1):
        got = homcomplex.hom_dimension(n, alg)
        want = homcomplex.expected_hom_dimension(n, alg.m)
        if got != want:
            return False, f"degree {n}: {got} != {want}"
    return True, f"degrees 0..{top}"


def check_cohomology(alg, top):
    for n in range(top + 1):
        got = homcomplex.cohomology_dimension(n, alg)
        want = homcomplex.expected_cohomology_dim(n, alg.m)
        if got != want:
            return False, f"degree {n}: dim HH = {got}, closed form {want}"
    return True, f"degrees 0..{top}"


def check_ring(alg, top):
    result = ring.ring_report(alg, max_degree=min(top, RING_MAX_DEGREE))
    if not result["passed"]:
        return False, "; ".join(result["failures"])
    return True, f"total dim {result['total_dim']}"


def check_oracle(alg, top):
    top = min(top, 3)
    try:
        for n in range(top + 1):
            oracle = bar.bar_cohomology_dimension(n, alg)
            direct = homcomplex.cohomology_dimension(n, alg, allow_non_generic=True)
            if oracle != direct:
                return False, f"degree {n}: oracle {oracle} != complex {direct}"
    except bar.DegreeCapExceeded as exc:
        return False, str(exc)
    return True, f"engines agree through degree {top}"


# name: (check (alg, top degree) -> (passed, detail), least --max-degree,
# needs a generic zeta), in the default --checks order.  The resolution
# checks need d^1, and the ring (like sweep's total dimension m+4) HH^2.
CHECKS = {
    "complex": (check_complex, 1, False),
    "exactness": (check_exactness, 1, False),
    "recursions": (check_recursions, 1, False),
    "hom-dims": (check_hom_dims, 0, False),
    "cohomology": (check_cohomology, 0, True),
    "ring": (check_ring, 2, True),
    "oracle": (check_oracle, 0, False),
}


def run_check(name, alg, max_degree):
    """The check `name` of CHECKS; returns (passed, detail).  At zeta = +-1 a
    check that needs a generic zeta fails without running."""
    check, _, needs_generic = CHECKS[name]
    if needs_generic and not alg.generic:
        return False, (
            f"zeta = {alg.zeta} is a root of unity: the closed forms and the "
            "ring presentation do not apply"
        )
    return check(alg, max_degree)


@main.command()
@click.option("--m", "m", type=click.IntRange(min=1), required=True)
@click.option("--q", "q_text", type=str, required=True)
@click.option("--checks", "checks_text", type=str, default=",".join(CHECKS))
@common_options("table", "json")
@allow_non_generic_option
def verify(m, q_text, checks_text, max_degree, fmt, allow_non_generic, output):
    """Run the selected verification suites."""
    names = parse_list(checks_text, "--checks")
    if len(set(names)) < len(names):
        raise click.UsageError(f"--checks repeats an entry: {checks_text}")
    unknown = [c for c in names if c not in CHECKS]
    if unknown:
        raise click.UsageError(f"unknown checks: {', '.join(unknown)}")
    for name in names:
        if max_degree is not None and max_degree < CHECKS[name][1]:
            raise click.UsageError(f"the {name} check needs --max-degree >= {CHECKS[name][1]}")
    needs_generic = any(CHECKS[c][2] for c in names)
    alg = make_algebra(m, q_text, allow_non_generic, needs_generic=needs_generic)
    if max_degree is None:
        max_degree = 2 * m + 6
    results = []
    ring_payload = None
    for name in names:
        passed, detail = run_check(name, alg, max_degree)
        results.append({"name": name, "pass": passed, "detail": detail})
        if name == "ring" and passed:
            ring_payload = ring.ring_report(alg, max_degree=min(max_degree, RING_MAX_DEGREE))
    report(spec_payload(alg), [], ring_payload, results, fmt, output)


@main.command()
@click.option("--m-range", "m_range", type=str, required=True, help="Inclusive range, e.g. 1:5.")
@click.option("--zeta", "zeta_text", type=str, required=True, help="Comma list of zeta values.")
@common_options("table", "json")
def sweep(m_range, zeta_text, max_degree, fmt, output):
    """Total cohomology dimension for q = (zeta, 1, ..., 1) over a range of m."""
    if max_degree is not None and max_degree < 2:
        raise click.UsageError("sweep needs --max-degree >= 2")
    match = re.fullmatch(r"([0-9]+):([0-9]+)", m_range.strip())
    if not match:
        raise click.UsageError("--m-range must look like 1:5")
    lo, hi = int(match[1]), int(match[2])
    if not 1 <= lo <= hi:
        raise click.UsageError(f"--m-range {m_range} needs 1 <= LO <= HI")
    zetas = [parse_rational(p) for p in parse_list(zeta_text, "--zeta")]
    if len(set(zetas)) < len(zetas):
        raise click.UsageError(f"--zeta repeats a value: {zeta_text}")
    if 0 in zetas:
        raise click.UsageError("--zeta values must be nonzero")
    results = []
    for m in range(lo, hi + 1):
        degree_top = max_degree if max_degree is not None else 2 * m + 6
        for zeta in zetas:
            name = f"m={m}, zeta={zeta}"
            spec = AlgebraSpec(m, (zeta,) + (Fraction(1),) * (m - 1))
            if not spec.generic:
                results.append(
                    {"name": name, "pass": True, "detail": "skipped: zeta is a root of unity"}
                )
                continue
            alg = build_algebra(spec)
            total = sum(
                homcomplex.cohomology_dimension(n, alg) for n in range(degree_top + 1)
            )
            results.append(
                {
                    "name": name,
                    "pass": total == m + 4,
                    "detail": f"total dim {total}, expected {m + 4}",
                }
            )
    report({"m": f"{lo}:{hi}", "q": [], "zeta": [str(v) for v in zetas], "generic": None},
           [], None, results, fmt, output)


if __name__ == "__main__":
    main()
