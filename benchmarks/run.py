"""degat-kit benchmark runner.

    python3 benchmarks/run.py --workload train-grid --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py                      # every workload, untraced and traced

One workload runs per process as a single-client closed loop: the next op
starts when the previous one returns. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same loop untraced for half the time and
traced for the other half, and reports the per-layer metrics plus the
tracing overhead. Every op's output is checked outside the timed region.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the
environment block, goes to ``benchmarks/results/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the runner exits with code 2 before printing a result.
"""

import time

# setup_s counts from here, before any other import.
T_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("train-grid", "hop-large", "eval-export", "verify")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = (
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# The latency percentiles are printed and recorded but left out of the result
# line: on a host whose speed changes in phases they flip between two modes
# from run to run, so they cannot carry a regression bound (see README.md).
RESULT_LINE = ("ops_per_s", "peak_rss_mb", "setup_s")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up, for the runner's own test")
    return ap.parse_args(argv)


# -- environment block ------------------------------------------------------


def _git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 only prints its build configuration
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- one workload in this process ---------------------------------------------


def closed_loop(wl, seconds, clock, tracer=None):
    """Run ops back to back until ``seconds`` of op time have passed and a
    cycle is complete. Check time is excluded from the loop's wall time."""
    latencies, failed, check_s = [], 0, 0.0
    i = 0
    start = clock()
    while True:
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        t1 = None
        try:
            out = wl.op(i)
            t1 = clock()
            ok = bool(wl.check(i, out))
        except Exception:  # a raising op or check counts as failed; the loop goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        if t1 is None:
            t1 = clock()
        latencies.append(t1 - t0)
        if not ok:
            print(f"op {i} failed", file=sys.stderr)
            failed += 1
        check_s += clock() - t1
        i += 1
        if (
            i % wl.cycle == 0
            and i >= wl.cycle * wl.min_cycles
            and clock() - start - check_s >= seconds
        ):
            break
    wall = clock() - start - check_s
    return {"latencies": latencies, "failed": failed, "wall_s": wall, "ops": i}


def run_workload(args):
    import numpy as np

    import degat_kit
    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(degat_kit.__file__)) != os.path.join(SRC, "degat_kit"):
        print(f"error: degat_kit resolved to {degat_kit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
            wl.warm_up()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            plain = closed_loop(wl, args.seconds / 2, time.perf_counter)
            tracer = Tracer(degat_kit)
            with tracer:
                loop = closed_loop(wl, args.seconds / 2, tracer.now, tracer)
        else:
            loop = closed_loop(wl, args.seconds, time.perf_counter)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        failed_final = wl.final_failures()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = loop["ops"] + (plain["ops"] if args.trace else 0)
    failed = loop["failed"] + (plain["failed"] if args.trace else 0) + failed_final
    lat_ms = np.asarray(loop["latencies"]) * 1e3
    p50, p90 = np.percentile(lat_ms, [50, 90])
    ops_per_s = loop["ops"] / loop["wall_s"]
    e2e = {
        "op_ms_p50": float(p50),
        "op_ms_p90": float(p90),
        "ops_per_s": ops_per_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    samples = {"op_ms_p50": loop["ops"], "op_ms_p90": loop["ops"], "ops_per_s": loop["ops"]}

    os.makedirs(RESULTS, exist_ok=True)
    label = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {label}  "
          f"{loop['ops']} ops in {loop['wall_s']:.3f} s of op time")
    for name, unit in END_TO_END:
        note = f"n={samples[name]}" if name in samples else ""
        if name == "setup_s":
            note = (f"import {import_s:.3f} s + median of "
                    f"{[round(s, 3) for s in setups]} s")
        print(f"  {name:<14} {e2e[name]:>12.4f} {unit:<6} {note}")
    print(f"  {'fail_ratio':<14} {failed / attempted:>12.4f} {'ratio':<6} "
          f"({failed}/{attempted} ops)")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "end_to_end": {k: {"value": e2e[k], "unit": u, "samples": samples.get(k)}
                       for k, u in END_TO_END},
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "setup_runs_s": setups,
        "import_s": import_s,
    }
    if args.trace:
        layer = tracer.layer_metrics(loop["ops"], wl.tokens_per_op)
        layer["trace.overhead_ratio"] = (plain["ops"] / plain["wall_s"]) / ops_per_s
        units = dict(PER_LAYER)
        metrics = {k: {"value": layer[k], "unit": units[k]} for k, _ in PER_LAYER}
        print("  per layer, per op (0 = layer not reached):")
        for k, _ in PER_LAYER:
            print(f"    {k:<42} {layer[k]:>14.4f} {units[k]}")
        if tracer.hook_errors:
            print(f"  warning: {tracer.hook_errors} hook calls failed; their counts are missing")
        print("  input properties: "
              f"tokens_per_op={layer['input.tokens_per_op']:.0f} "
              f"dup_token_share={layer['input.dup_token_share']:.4f} "
              f"graph.tie_rows_share={layer['graph.tie_rows_share']:.4f}")
        record["per_layer"] = metrics
        record["untraced_ops_per_s"] = plain["ops"] / plain["wall_s"]
        tracer.write_spans(os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.txt"))
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END if k in RESULT_LINE}
    print("  wait time: not applicable; one client, no layer has a queue or a second worker")

    out = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


# -- every workload, each in its own process ----------------------------------


def run_all(args):
    """Run every workload untraced and traced, each in a child process."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"workload {name} trace {trace}: exit code {proc.returncode}")
                status = 1
                continue
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "degat_kit", "__init__.py")):
        print(f"error: no degat_kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
