"""Command-line interface: compute, verify, sweep.

Rationals are written as integers or "p/q"; no decimals are accepted,
since every computation is exact.  Output formats: a plain text table,
JSON with the fixed schema

    {spec: {m, q, zeta, generic},
     degrees: [{n, hom_dim, ker, im, hh}],
     ring: {...} | null,
     checks: [{name, pass, detail}]}

and CSV with one row per degree, for `compute` only; there a failed
check is written to stderr, as in the table.  Every command exits
1 when a check failed (compute's one check is its closed-form comparison),
2 on invalid configuration, and 0 otherwise.

The command line is `hhdeform COMMAND [--name VALUE | --name=VALUE |
--flag]... [--help]`, read from the one option table `COMMANDS` by a
stdlib-only parser.  A value is always the next word, so `--q -2/7` is a
value; each option may be given once.
"""

import json
import os
import re
import sys
from fractions import Fraction

from . import homcomplex, resolution, ring
from .algebra import AlgebraSpec, build_algebra
from .freepaths import verify_g_recursions

# The ring check and the ring report that `verify` prints both stop here.
RING_MAX_DEGREE = 8


RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
DIGITS = re.compile(r"[0-9]+")


class UsageError(Exception):
    """An invalid command line; `main` prints it under the usage line and
    exits 2."""


def parse_rational(text, option):
    try:
        if RATIONAL.fullmatch(text.strip()):
            return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"Invalid value for '{option}': not a rational: {text!r}")


def parse_list(text, option):
    """The stripped entries of a comma list; an empty entry is refused."""
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise UsageError(f"{option} has an empty entry: {text!r}")
    return parts


def parse_q(text, m):
    parts = parse_list(text, "--q")
    if len(parts) != m:
        raise UsageError(f"Invalid value for '--q': expected {m} parameters, got {len(parts)}")
    return tuple(parse_rational(p, "--q") for p in parts)


def make_algebra(m, q_text, allow_non_generic, needs_generic=True):
    try:
        spec = AlgebraSpec(m, parse_q(q_text, m))
    except ValueError as exc:
        raise UsageError(str(exc))
    alg = build_algebra(spec)
    if needs_generic and not alg.generic and not allow_non_generic:
        raise UsageError(
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
    return [
        {"n": n, "hom_dim": hom_dim, "ker": ker, "im": im, "hh": ker - im}
        for n, (hom_dim, ker, im) in enumerate(homcomplex.kernel_image_table(max_degree, alg))
    ]


def compare_rows(rows, m):
    """Mismatches between computed rows and the closed-form tables, over the
    fields that each row has; ker and im have no closed form at m = 1."""
    forms = {
        "hom_dim": homcomplex.expected_hom_dimension, "hh": homcomplex.expected_cohomology_dim
    }
    if m >= 2:
        forms.update(ker=homcomplex.expected_kernel_dim, im=homcomplex.expected_image_dim)
    mismatches = []
    for row in rows:
        n = row["n"]
        for field, form in forms.items():
            if field in row and row[field] != (want := form(n, m)):
                mismatches.append(f"degree {n}: {field} = {row[field]}, closed form gives {want}")
    return mismatches


def check_line(chk):
    status = "pass" if chk["pass"] else "FAIL"
    detail = f" ({chk['detail']})" if chk["detail"] else ""
    return f"check {chk['name']}: {status}{detail}"


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
        lines.extend(check_line(chk) for chk in payload["checks"])
        text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def report(spec, degrees, ring_payload, checks, fmt, output):
    """Emit the payload, then exit 1 if a check failed and 0 otherwise.
    CSV rows have no place for the checks, so there each failed check
    goes to stderr."""
    emit({"spec": spec, "degrees": degrees, "ring": ring_payload, "checks": checks}, fmt, output)
    failed = [chk for chk in checks if not chk["pass"]]
    if fmt == "csv":
        for chk in failed:
            print(check_line(chk), file=sys.stderr)
    sys.exit(1 if failed else 0)


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


def closed_form_check(field, dimension):
    """The check that compares dimension(n, alg), as the row field, with its
    closed form for n = 0..top, through `compare_rows`; a failure names the
    first mismatch."""
    def check(alg, top):
        rows = [{"n": n, field: dimension(n, alg)} for n in range(top + 1)]
        mismatches = compare_rows(rows, alg.m)
        return not mismatches, mismatches[0] if mismatches else f"degrees 0..{top}"
    return check


def check_ring(alg, top):
    result = ring.ring_report(alg, max_degree=min(top, RING_MAX_DEGREE))
    if not result["passed"]:
        return False, "; ".join(result["failures"])
    return True, f"total dim {result['total_dim']}"


def check_oracle(alg, top):
    from . import bar  # only this check reads the oracle

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
    "hom-dims": (closed_form_check("hom_dim", homcomplex.hom_dimension), 0, False),
    "cohomology": (closed_form_check("hh", homcomplex.cohomology_dimension), 0, True),
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


def verify(m, q_text, checks_text, max_degree, fmt, allow_non_generic, output):
    """Run the selected verification suites."""
    names = parse_list(checks_text, "--checks")
    if len(set(names)) < len(names):
        raise UsageError(f"--checks repeats an entry: {checks_text}")
    unknown = [c for c in names if c not in CHECKS]
    if unknown:
        raise UsageError(f"unknown checks: {', '.join(unknown)}")
    for name in names:
        if max_degree is not None and max_degree < CHECKS[name][1]:
            raise UsageError(f"the {name} check needs --max-degree >= {CHECKS[name][1]}")
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


def sweep(m_range, zeta_text, max_degree, fmt, output):
    """Total cohomology dimension for q = (zeta, 1, ..., 1) over a range of m."""
    if max_degree is not None and max_degree < 2:
        raise UsageError("sweep needs --max-degree >= 2")
    match = re.fullmatch(r"([0-9]+):([0-9]+)", m_range.strip())
    if not match:
        raise UsageError("--m-range must look like 1:5")
    lo, hi = int(match[1]), int(match[2])
    if not 1 <= lo <= hi:
        raise UsageError(f"--m-range {m_range} needs 1 <= LO <= HI")
    zetas = [parse_rational(p, "--zeta") for p in parse_list(zeta_text, "--zeta")]
    if len(set(zetas)) < len(zetas):
        raise UsageError(f"--zeta repeats a value: {zeta_text}")
    if 0 in zetas:
        raise UsageError("--zeta values must be nonzero")
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
            total = sum(ker - im for _, ker, im in homcomplex.kernel_image_table(degree_top, alg))
            results.append(
                {
                    "name": name,
                    "pass": total == m + 4,
                    "detail": f"total dim {total}, expected {m + 4}",
                }
            )
    report({"m": f"{lo}:{hi}", "q": [], "zeta": [str(v) for v in zetas], "generic": None},
           [], None, results, fmt, output)


# The kind of an option's value: an int is the least value of an integer
# written in ASCII digits, a tuple holds the choices, PATH is an output file
# in a directory that exists, and a FLAG takes no value.
TEXT, FLAG, PATH = "TEXT", "", "FILE"
M_AND_Q = {
    # option: (parameter, kind, default, required, help)
    "--m": ("m", 1, None, True, "Vertices, at least 1."),
    "--q": ("q_text", TEXT, None, True, "Comma list of m rationals."),
}
ALLOW_NON_GENERIC = {
    "--allow-non-generic": (
        "allow_non_generic", FLAG, False, False, "At zeta = +-1: raw dimensions, no comparisons."
    ),
}


def shared_options(*formats):
    return {
        "--max-degree": ("max_degree", 0, None, False, "Top degree (default 2m+6)."),
        "--format": ("fmt", formats, "table", False, ""),
        "--output": ("output", PATH, None, False, "Write to this file, not stdout."),
    }


# command: (function, its options in --help order)
COMMANDS = {
    "compute": (compute, {**M_AND_Q, **shared_options("table", "json", "csv"), **ALLOW_NON_GENERIC}),
    "verify": (verify, {
        **M_AND_Q,
        "--checks": ("checks_text", TEXT, ",".join(CHECKS), False, "Comma list of checks (default all)."),
        **shared_options("table", "json"),
        **ALLOW_NON_GENERIC,
    }),
    "sweep": (sweep, {
        "--m-range": ("m_range", TEXT, None, True, "Inclusive range, e.g. 1:5."),
        "--zeta": ("zeta_text", TEXT, None, True, "Comma list of zeta values."),
        **shared_options("table", "json"),
    }),
}


def convert(option, kind, text):
    """The value of `option` given as `text`."""
    invalid = f"Invalid value for '{option}': "
    if kind == TEXT:
        return text
    if kind == PATH:
        if os.path.isdir(text):
            raise UsageError(f"{invalid}File {text!r} is a directory.")
        # an empty path means stdout, as no --output does
        if text and not os.path.isdir(os.path.dirname(os.path.abspath(text))):
            raise UsageError(f"{invalid}the directory of {text!r} does not exist")
        return text
    if isinstance(kind, tuple):
        if text not in kind:
            raise UsageError(f"{invalid}{text!r} is not one of {', '.join(map(repr, kind))}.")
        return text
    try:
        if DIGITS.fullmatch(text) and int(text) >= kind:
            return int(text)
    except ValueError:  # more digits than int() reads
        pass
    raise UsageError(f"{invalid}{text!r} is not an integer >= {kind} in ASCII digits.")


def parse(options, words):
    """{parameter: value} of the words after the command, defaults filled
    in; None when they ask for --help, which is looked for before any value
    is converted."""
    given = {}
    words = iter(words)
    for word in words:
        if word == "--help":
            return None
        name, eq, value = word.partition("=")
        if name not in options:
            if word.startswith("-"):
                raise UsageError(f"No such option '{name}'.")
            raise UsageError(f"Got unexpected extra argument ({word})")
        if name in given:
            raise UsageError(f"Option '{name}' is given more than once.")
        if options[name][1] == FLAG:
            if eq:
                raise UsageError(f"Option '{name}' does not take a value.")
            given[name] = True
            continue
        if not eq:
            value = next(words, None)
            if value is None:
                raise UsageError(f"Option '{name}' requires an argument.")
        given[name] = value
    params = {}
    for name, (param, kind, default, required, _) in options.items():
        if name in given:
            params[param] = given[name] if kind == FLAG else convert(name, kind, given[name])
        elif required:
            raise UsageError(f"Missing option '{name}'.")
        else:
            params[param] = default
    return params


def columns(rows):
    width = max(len(left) for left, _ in rows)
    return "".join(f"  {left:<{width}}  {right}".rstrip() + "\n" for left, right in rows)


def summary(function):
    return (function.__doc__ or "").split("\n")[0]  # -OO drops docstrings


def usage(prog, command=None):
    return f"Usage: {prog} {command or 'COMMAND'} [OPTIONS]"


def help_text(prog, command=None):
    """The --help of `command`, or of the program when it is None."""
    if command is None:
        rows = [(name, summary(run)) for name, (run, _) in COMMANDS.items()]
        return (f"{usage(prog)}\n\n"
                "  Exact Hochschild cohomology of the deformed cycle algebras.\n\n"
                f"Commands:\n{columns(rows)}\nRun '{prog} COMMAND --help' for its options.\n")
    run, options = COMMANDS[command]
    rows = []
    for name, (_, kind, _, required, text) in options.items():
        metavar = (f"[{'|'.join(kind)}]" if isinstance(kind, tuple)
                   else "INTEGER" if isinstance(kind, int) else kind)
        rows.append((f"{name} {metavar}".rstrip(), text + ("  [required]" if required else "")))
    rows.append(("--help", "Show this message and exit."))
    return f"{usage(prog, command)}\n\n  {summary(run)}\n\nOptions:\n{columns(rows)}"


def main(args=None, prog_name=None, standalone_mode=True):
    """Run `hhdeform` on args (default: the process's arguments).  Every
    outcome is a SystemExit: 0, 1 when a check failed, or 2 for a usage
    error, which goes to stderr.  `standalone_mode` is accepted for callers
    written against click's `main` and changes nothing."""
    args = sys.argv[1:] if args is None else list(args)
    prog = prog_name or "hhdeform"
    if not args:
        sys.stderr.write(help_text(prog))
        sys.exit(2)
    command = args[0] if args[0] in COMMANDS else None
    try:
        if command is None and args[0] != "--help":
            kind = "option" if args[0].startswith("-") else "command"
            raise UsageError(f"No such {kind} '{args[0]}'.")
        params = parse(COMMANDS[command][1], args[1:]) if command else None
        if params is None:
            sys.stdout.write(help_text(prog, command))
            sys.exit(0)
        COMMANDS[command][0](**params)
    except UsageError as exc:
        where = f"{prog} {command}" if command else prog
        sys.stderr.write(f"{usage(prog, command)}\nTry '{where} --help' for help.\n\nError: {exc}\n")
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
