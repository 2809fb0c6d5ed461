"""hhdeform benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of BENCHMARK.json through the CLI entry point
`hhdeform.cli.main` in a fresh worker process (bench/worker.py), checks
every op's exit code and JSON payload against the reference
(bench/reference.py) and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from the outside-in tracer (bench/tracer.py).  The line above it
gives error_rate = failed / attempted.

wall_s and cpu_s are the ops' times scaled to a reference host speed,
which the worker measures while the ops run (bench/pace.py).  Set-up time
is the time from process start until `hhdeform.cli` is imported.  It is
sampled by probe processes (bench/probe.py) that the worker starts
between its passes, and the fastest sample is reported (see
`worker.measure`).  The exit code is
0 when every op agreed with the reference, 1 when some did not, and 2 when
the program could not be run at all, in which case no result is printed.
"""

import argparse
import json
import subprocess
import sys

from worker import ROOT, finish, spawn


def run_worker(workload, seed, seconds, trace):
    proc, _ = spawn("worker.py", workload, str(seed), str(seconds), str(trace))
    out = finish(proc)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]} | {"smoke"}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "hhdeform" / "cli.py").is_file():
        print("no hhdeform sources under src/ in this checkout", file=sys.stderr)
        return 2
    try:
        result = run_worker(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        values = result["metrics"]
        guarded = f"  guard checked seed {result['guard_seed']}"
        listed = spec["per_layer"]
    else:
        values = {"setup_s": min(result["setup"]), "wall_s": result["wall_s"],
                  "cpu_s": result["cpu_s"], "peak_rss_mb": result["peak_rss_mb"]}
        listed = spec["end_to_end"]
        guarded = ""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    failed = len(result["failures"])
    attempted = result["attempted"]
    for problems in result["failures"][:5]:
        print("; ".join(problems), file=sys.stderr)
    shown = ("trace.overhead_s",) if args.trace else metrics
    summary = "  ".join(f"{k}={metrics[k]['value']:.6g} {metrics[k]['unit']}" for k in shown)
    passes = " ".join(f"{t:.3g}" for t in result["passes"])
    print(f"{args.workload} seed={args.seed} trace={args.trace} pass wall times: {passes} s"
          f"  error_rate={failed / attempted:.4g} ({failed}/{attempted} ops)  {summary}{guarded}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
