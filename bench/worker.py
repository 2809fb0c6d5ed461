"""One benchmark run in a fresh, single-threaded process.

    python3 bench/worker.py <workload> <seed> <seconds> <trace 0|1>

Imports `hhdeform.cli` from the checkout's `src/`, prints "ready", calls
`hhdeform.cli.main` once per op, one op at a time, and prints one JSON
line with its timings, its set-up samples (see bench/probe.py), its
failures and, when traced, its per-layer metrics.

Untraced: passes over the workload's ops repeat until `seconds` would be
exceeded (at least MIN_PASSES), with set-up samples taken between them;
each op is timed by `pace.Pace`, and `measure` says how the times are
summarised.  Traced: the ops run once
untraced and once with the tracer installed, which gives the tracing
overhead, the per-layer metrics and the digests of the exact-output
guard.
"""

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import click

import reference
import workloads
from pace import Pace
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_PER_PASS = 5
TIMEOUT_S = 170


def spawn(script, *args):
    """Start `script` of the benchmark in a fresh interpreter; returns
    (process, seconds until it printed "ready")."""
    # a fixed hash seed keeps dict and set layouts the same from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / script), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{script} did not start (exit code {proc.returncode})")
    return proc, ready


def finish(proc):
    """The rest of a process's output, once it has exited."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{proc.args[1]} exceeded {TIMEOUT_S} s")
    return out


def setup_sample():
    """Seconds from the start of a probe process until it has imported the CLI."""
    proc, ready = spawn("probe.py")
    finish(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"probe.py failed with exit code {proc.returncode}")
    return ready


def load_cli():
    """Import the CLI from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import hhdeform.cli

    origin = Path(hhdeform.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"hhdeform was imported from {origin}, not from {SRC}")
    return hhdeform.cli


def load_data(name):
    with open(BENCH / "data" / name) as handle:
        return json.load(handle)


def run_op(cli, o):
    """(exit code, stdout) of one CLI invocation, in this process."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            cli.main(args=workloads.argv(o), prog_name="hhdeform", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception as exc:
            # an uncaught error ends the real CLI with exit code 1
            print(f"{workloads.argv(o)} raised {exc!r}", file=sys.stderr)
            code = 1
    return code, out.getvalue()


def run_pass(cli, ops, table, tracer=None):
    """Run every op; returns ([(wall, paced wall, paced cpu) per op],
    [problems per op]).  Under a tracer, the pacing's calibration loop
    counts as self time of the function it interrupts, about 2%."""
    times, problems = [], []
    for index, o in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(index)
        with Pace() as pace:
            code, text = run_op(cli, o)
        times.append((pace.raw_wall, pace.wall, pace.cpu))
        if tracer is not None:
            tracer.end_op(code, text)
        problems.append(reference.problems(o, code, text, table))
        gc.collect()  # a fresh CLI process starts without the last op's garbage
    return times, problems


def traced_pass(cli, ops, table):
    """Run `ops` with the tracer installed; returns (tracer, times, problems)."""
    tracer = Tracer()
    tracer.install()
    try:
        times, problems = run_pass(cli, ops, table, tracer)
    finally:
        tracer.uninstall()
    return tracer, times, problems


def guard(tracer, recorded):
    """Compare the traced digests with those recorded at the baseline commit.
    Returns (digests compared, {op index: mismatching streams})."""
    if len(tracer.op_digests) != len(recorded):
        return 0, {0: [f"{len(tracer.op_digests)} ops where {len(recorded)} were recorded"]}
    checked, bad = 0, {}
    for index, (got, want) in enumerate(zip(tracer.op_digests, recorded)):
        for key, value in want.items():
            checked += 1
            if got.get(key) != value:
                bad.setdefault(index, []).append(key)
    return checked, bad


def measure(cli, workload, seed, seconds, table):
    """Untraced passes over the same ops until `seconds`.  Each op's time
    is the median over the passes of its paced time (see pace.py), and
    wall_s and cpu_s sum those over the ops.  Before each pass,
    SETUP_PER_PASS set-up samples are taken, so that they spread over the
    whole run; run.py reports the fastest.

    The fastest set-up sample, not the median: a probe process is too
    short to pace, but at 0.1 s many samples land in a quiet phase of the
    host, so the fastest of them comes close to the uncontended time.
    """
    ops = workloads.ops(workload, seed)
    begin = time.perf_counter()
    passes, failures, setup = [], [], []
    while True:
        setup += [setup_sample() for _ in range(SETUP_PER_PASS)]
        times, problems = run_pass(cli, ops, table)
        passes.append(times)
        failures += [p for p in problems if p]
        elapsed = time.perf_counter() - begin
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    per_op = list(zip(*passes))
    return {
        "attempted": sum(len(p) for p in passes),
        "failures": failures,
        "passes": [round(sum(t[0] for t in p), 3) for p in passes],
        "wall_s": sum(statistics.median(t[1] for t in op) for op in per_op),
        "cpu_s": sum(statistics.median(t[2] for t in op) for op in per_op),
        "setup": setup,
    }


def guard_seed(recorded, seed):
    """The seed whose digests the guard checks: `seed` itself when it was
    recorded, else one of the recorded seeds, picked by `seed`."""
    if str(seed) in recorded:
        return seed
    seeds = sorted(int(s) for s in recorded)
    return seeds[seed % len(seeds)] if seeds else None


def trace(cli, workload, seed, table, per_layer):
    ops = workloads.ops(workload, seed)
    plain_times, plain_problems = run_pass(cli, ops, table)
    tracer, times, problems = traced_pass(cli, ops, table)
    recorded = load_data("digests.json").get(workload, {})
    checked_seed = guard_seed(recorded, seed)
    if checked_seed is None:
        raise SystemExit(f"no digests recorded for {workload}; see bench/record.py")
    guarded, guard_problems = tracer, problems
    if checked_seed != seed:
        # an unrecorded seed: the guard reruns the ops of a recorded one
        guarded, _, guard_problems = traced_pass(cli, workloads.ops(workload, checked_seed), table)
    checked, bad = guard(guarded, recorded[str(checked_seed)])
    for index, streams in bad.items():
        guard_problems[index] = guard_problems[index] + [
            f"digest guard: seed {checked_seed} op {index}: {', '.join(streams)}"]
    if guarded is not tracer:
        problems = problems + guard_problems
    stats = tracer.span_stats()
    metrics = {name: tracer.metric(name, stats) for name in per_layer}
    metrics["trace.overhead_s"] = sum(t[1] for t in times) - sum(t[1] for t in plain_times)
    metrics["guard.digests_checked"] = checked
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"spans-{workload}-{seed}.json.gz")
    return {
        "attempted": len(plain_problems) + len(problems),
        "guard_seed": checked_seed,
        "failures": [p for p in plain_problems + problems if p],
        "passes": [round(sum(t[0] for t in plain_times), 3), round(sum(t[0] for t in times), 3)],
        "metrics": metrics,
    }


def main(argv):
    cli = load_cli()
    print("ready", flush=True)
    workload, seed, seconds, traced = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    table = load_data("nongeneric.json")
    if traced:
        with open(ROOT / "BENCHMARK.json") as handle:
            per_layer = [m["name"] for m in json.load(handle)["per_layer"]]
        result = trace(cli, workload, seed, table, per_layer)
    else:
        result = measure(cli, workload, seed, seconds, table)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
