"""Benchmark of the zrxner command line: train, tag and align workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train|tag|align|all --seed N \
        --seconds S --trace 0|1

Inputs are generated from --seed before any timing. With --trace 0 the
workload's commands run plainly and the end-to-end metrics are reported;
with --trace 1 one plain and one traced pass run and the per-layer metrics
plus the tracing overhead are reported. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A result
file with the machine, the input properties and every command goes to
.bench_out/results/.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_REPEATS = 5
WORKLOAD_NAMES = ("align", "tag", "train")  # as in workloads.WORKLOADS
RUN_BUDGET_S = 170.0  # every run ends well within 180 s


def _median(values):
    return statistics.median(values) if values else float("nan")


def _window_mean(values):
    """Mean over the timed passes of one window. The host's speed drifts by
    a fifth or more over seconds, and passes next to each other drift
    together; the mean covers the whole window, where the median of a few
    such passes jumps with whichever spell most of them fell in."""
    return statistics.fmean(values) if values else float("nan")


def run_plain(wl, ctx, seconds):
    """Set-up passes, then timed iterations for as long as one more, at the
    mean pace so far, ends within `seconds` (always at least one)."""
    first_command = len(ctx.results)  # later ones count for peak RSS
    setup_walls = {}
    for _ in range(SETUP_REPEATS):
        for name, args, check in wl.setup_commands(ctx):
            result = ctx.zrxner(name, args)
            if result.returncode == 0:
                check(result)
            setup_walls.setdefault(name, []).append(result.wall_s)
    setup = {name: _median(walls) for name, walls in setup_walls.items()}
    iterations = []
    start = time.monotonic()
    while True:
        iterations.append(wl.iteration(ctx, traced=False))
        elapsed = time.monotonic() - start
        if (elapsed * (len(iterations) + 1) / len(iterations) > seconds
                or not ctx.results[-1].ok):
            break
    first = iterations[0].quality
    for it in iterations[1:]:
        if not (it.quality == first or (math.isnan(it.quality) and math.isnan(first))):
            ctx.results[-1].problems.append(
                f"quality {it.quality} differs from the first pass ({first})")
    compute = {
        name: _window_mean([it.walls[name] - setup[name] for it in iterations
                            if name in it.walls])
        for name in setup
    }
    metrics = {
        "wall_s": (_window_mean([sum(it.walls[n] for n in setup
                                     if n in it.walls)
                                 for it in iterations]), "s"),
        "quality_pct": (first, "%"),
        "setup_s": (sum(setup.values()), "s"),
        "peak_rss_mb": (max(r.peak_rss_mb for r in ctx.results[first_command:]),
                        "MB"),
    }
    detail = {"setup_s_by_command": setup, "compute_s_by_command": compute,
              "iterations": [it.walls for it in iterations],
              "named": wl.named(compute, first)}
    return metrics, detail


def run_traced(wl, ctx):
    """One plain and one traced pass; per-layer metrics from the spans."""
    import spans

    plain = wl.iteration(ctx, traced=False)
    traced = wl.iteration(ctx, traced=True)
    dumps = []
    for path in ctx.dumps:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        except (OSError, ValueError):
            pass  # the command failed before writing; counted as failed
    metrics, absent, detail = spans.layer_metrics(dumps)
    plain_s = sum(plain.walls.values())
    traced_s = sum(traced.walls.values())
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_share"] = (
        (traced_s - plain_s) / plain_s if plain_s else 0.0, "ratio")
    return metrics, {"absent": absent, "percentiles": detail,
                     "plain_walls": plain.walls, "traced_walls": traced.walls}


def run_workload(launcher, root, name, seed, seconds, trace, deadline):
    from procs import machine_block
    from workloads import WORKLOADS, Context

    wl = WORKLOADS[name]()
    out_root = os.path.join(root, ".bench_out")
    workdir = os.path.join(out_root, f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx = Context(launcher, root, workdir, seed, deadline)
    t0 = time.monotonic()
    inputs = wl.prepare(ctx)
    prepare_s = time.monotonic() - t0
    if trace:
        metrics, detail = run_traced(wl, ctx)
    else:
        metrics, detail = run_plain(wl, ctx, seconds)
    failed = [r for r in ctx.results if not r.ok]
    result = {
        "workload": name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": machine_block(), "inputs": inputs,
        "prepare_s": prepare_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "attempted": len(ctx.results), "failed": len(failed),
        "commands": [{"name": r.name, "argv": r.argv[1:], "wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb,
                      "max_threads": r.max_threads, "returncode": r.returncode,
                      "problems": r.problems} for r in ctx.results],
    }
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    with open(os.path.join(out_root, "results",
                           f"{name}-seed{seed}-trace{trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def report(result):
    """Human-readable lines: every metric by name with its unit."""
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, trace {result['trace']}): "
          f"{result['attempted']} operations, {result['failed']} failed")
    m = result["machine"]
    print(f"   machine: nproc {m['nproc']}, {m['ram_mb']} MB, Python "
          f"{m['python']}, NumPy {m['numpy']}, {m['blas_name']} "
          f"{m['blas_version']} ({m['blas_threads']} threads)")
    threads = max((c["max_threads"] for c in result["commands"]), default=0)
    print(f"   most threads seen in one command: {threads}")
    for key, props in sorted(result["inputs"].items()):
        print(f"   input {key}: {props}")
    for key, metric in sorted(result["metrics"].items()):
        print(f"   {key:40s} {metric['value']:.6g} {metric['unit']}")
    for key, (value, unit) in sorted(result["detail"].get("named", {}).items()):
        print(f"   {name}.{key:34s} {value:.6g} {unit}")
    for key, reason in sorted(result["detail"].get("absent", {}).items()):
        print(f"   absent {key}: {reason}")
    for cmd in result["commands"]:
        for problem in cmd["problems"]:
            print(f"   FAILED {cmd['name']}: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zrxner", "cli.py")):
        print("error: run from the root of a zrxner checkout "
              "(src/zrxner/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    from procs import Launcher

    with Launcher() as launcher:  # started while this process is small
        results = [run_workload(launcher, root, n, args.seed, args.seconds,
                                args.trace, deadline) for n in names]
    for result in results:
        report(result)
    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): v
        for r in results for k, v in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
