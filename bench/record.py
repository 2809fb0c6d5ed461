"""Record the benchmark's reference data from the program as it stands.

    python3 bench/record.py nongeneric
    python3 bench/record.py digests WORKLOAD FIRST_SEED LAST_SEED

`nongeneric` writes data/nongeneric.json: the degree rows of
`compute --allow-non-generic` for m = 1..3 and zeta = +-1 at the default
top degree.  Each table is computed for three different q and must not
depend on q; its hh column must agree with the bar-complex oracle for
n <= 3.

`digests` adds to data/digests.json the exact-output digests of a traced
pass over the ops of WORKLOAD for every seed in the range.  Every op must agree with
the reference first.  Re-record only on purpose: the digests are what
later changes are compared against.
"""

import json
import random
import sys
from fractions import Fraction

import reference
import workloads
from worker import BENCH, load_cli, load_data, run_op, traced_pass

BAR_TOP = 3


def record_nongeneric(cli):
    from hhdeform.algebra import Algebra, AlgebraSpec
    from hhdeform.bar import bar_cohomology_dimension

    table = {}
    for m in (1, 2, 3):
        for zeta in (1, -1):
            rows = None
            for trial in range(3):
                q = workloads.non_generic_q(random.Random(f"record/{m}/{zeta}/{trial}"), m, zeta)
                code, text = run_op(cli, workloads.op("compute", m, q, non_generic=True))
                if code != 0:
                    raise SystemExit(f"compute m={m} q={q} exited {code}")
                got = json.loads(text)["degrees"]
                if rows is not None and got != rows:
                    raise SystemExit(f"raw dimensions depend on q at m={m}, zeta={zeta}")
                rows = got
                alg = Algebra(AlgebraSpec(m, tuple(q)))
                for n in range(BAR_TOP + 1):
                    if bar_cohomology_dimension(n, alg) != rows[n]["hh"]:
                        raise SystemExit(f"bar oracle disagrees at m={m}, zeta={zeta}, n={n}")
            table[reference.table_key(m, Fraction(zeta))] = rows
    return table


def record_digests(cli, workload, seeds):
    table = load_data("nongeneric.json")
    recorded = load_data("digests.json")
    for seed in seeds:
        ops = workloads.ops(workload, seed)
        tracer, _, problems = traced_pass(cli, ops, table)
        if any(problems):
            raise SystemExit(f"{workload} seed {seed} disagrees with the reference: {problems}")
        recorded.setdefault(workload, {})[str(seed)] = tracer.op_digests
        print(f"recorded {workload} seed {seed}", flush=True)
    return recorded


def dumps(value, depth):
    """JSON with the first `depth` levels of keys one per line."""
    if depth == 0 or not isinstance(value, dict):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    items = ",\n".join(f"{json.dumps(k)}: {dumps(v, depth - 1)}" for k, v in sorted(value.items()))
    return "{\n" + items + "\n}"


def write(name, data, depth):
    with open(BENCH / "data" / name, "w") as handle:
        handle.write(dumps(data, depth) + "\n")


def main(argv):
    cli = load_cli()
    if argv == ["nongeneric"]:
        write("nongeneric.json", record_nongeneric(cli), 1)
    elif len(argv) == 4 and argv[0] == "digests" and argv[1] in workloads.WORKLOADS:
        seeds = range(int(argv[2]), int(argv[3]) + 1)
        write("digests.json", record_digests(cli, argv[1], seeds), 2)
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
