"""Seeded inputs of the benchmark workloads.

A workload is a function from a random generator to a list of CLI ops,
each a dict describing one `hhdeform` invocation.  The generator is seeded
with "<workload>/<seed>", so the same seed always gives the same ops, in
traced and untraced runs alike.

Every q entry is +-p/r with 1 <= p, r <= 9.  Generic specs redraw until
zeta is not +-1; non-generic specs set the last entry so that zeta is
exactly +1 or -1.
"""

import random
from fractions import Fraction

ROOTS_OF_UNITY = (Fraction(1), Fraction(-1))
SWEEP_ZETAS = ("2", "-1/3", "1", "-1")


def _entry(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))


def product(values):
    prod = Fraction(1)
    for v in values:
        prod *= v
    return prod


def generic_q(rng, m):
    while True:
        q = [_entry(rng) for _ in range(m)]
        if product(q) not in ROOTS_OF_UNITY:
            return q


def non_generic_q(rng, m, zeta):
    head = [_entry(rng) for _ in range(m - 1)]
    return head + [Fraction(zeta) / product(head)]


def op(cmd, m, q, checks=(), non_generic=False, max_degree=None):
    """One CLI invocation.  `q` is kept as the strings the CLI receives."""
    return {
        "cmd": cmd,
        "m": m,
        "q": [str(v) for v in q],
        "checks": list(checks),
        "non_generic": non_generic,
        "max_degree": max_degree,
    }


def sweep_op(m_range, zetas):
    return {"cmd": "sweep", "m_range": m_range, "zetas": list(zetas)}


def argv(o):
    """The argument vector for `hhdeform.cli.main`; always JSON output."""
    if o["cmd"] == "sweep":
        return ["sweep", "--m-range", o["m_range"], "--zeta", ",".join(o["zetas"]),
                "--format", "json"]
    args = [o["cmd"], "--m", str(o["m"]), "--q", ",".join(o["q"])]
    if o["checks"]:
        args += ["--checks", ",".join(o["checks"])]
    if o["non_generic"]:
        args.append("--allow-non-generic")
    if o["max_degree"] is not None:
        args += ["--max-degree", str(o["max_degree"])]
    return args + ["--format", "json"]


def compute_m16(rng):
    # homcomplex path: coboundary assembly dominates, ranks are the rest
    return [op("compute", 16, generic_q(rng, 16))]


def verify_complex_m8(rng):
    # resolution path: underlying_matrix and Algebra.multiply dominate
    return [op("verify", 8, generic_q(rng, 8), checks=("complex", "exactness"))]


def oracle_small(rng):
    # many small algebras: bar oracle, ring lifting, recursions, and the
    # rank-deficient non-generic regime; ends with the sweep skip path
    ops = []
    for m in (1, 2, 3):
        for _ in range(2):
            ops.append(op("verify", m, generic_q(rng, m),
                          checks=("oracle", "ring", "recursions", "cohomology", "hom-dims")))
        for zeta in (1, -1):
            q = non_generic_q(rng, m, zeta)
            ops.append(op("verify", m, q, checks=("oracle", "recursions", "hom-dims"),
                          non_generic=True))
            ops.append(op("compute", m, q, non_generic=True))
    ops.append(sweep_op("1:4", SWEEP_ZETAS))
    return ops


def smoke(rng):
    # about a second of every op kind; used by the benchmark's own tests
    return [
        op("compute", 2, generic_q(rng, 2), max_degree=4),
        op("verify", 2, generic_q(rng, 2), checks=("complex", "exactness"), max_degree=4),
        op("verify", 1, generic_q(rng, 1),
           checks=("oracle", "ring", "recursions", "cohomology", "hom-dims"), max_degree=3),
        op("compute", 1, non_generic_q(rng, 1, -1), non_generic=True),
        sweep_op("1:2", ("2", "1")),
    ]


WORKLOADS = {
    "compute-m16": compute_m16,
    "verify-complex-m8": verify_complex_m8,
    "oracle-small": oracle_small,
    "smoke": smoke,
}


def ops(workload, seed):
    """The ops of `workload` under `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
