#!/usr/bin/env python3
"""fairseg benchmark: one workload per invocation, run from a checkout's root.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 40 --trace 0

Every measurement runs in a child process (perfbench/workloads.py), one at
a time, with one BLAS thread set in the child's environment before NumPy is
imported.  Set-up is measured in several children and reported as the
median.  With --trace 0 the body runs untraced and the end-to-end metrics
are printed; with --trace 1 untraced and traced bodies alternate and the
per-layer split of the traced ones is printed.  Each metric is printed on
its own line with its unit, median, upper percentile and sample count; the
last line of standard output is the JSON result.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "workloads.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("train-full", "train-finetune")
REQUIRED = (os.path.join("src", "fairseg", "__init__.py"),
            os.path.join("configs", "acceptance.ini"))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up-only children, one before the measuring child and the rest after
# it; the measuring child's own set-up is one more sample
SETUP_CHILDREN = 3
DEADLINE_S = 170.0

# the end-to-end metrics of BENCHMARK.json, in the result line
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# printed but not in the result line: they rest on a few seconds of samples
# taken at two or three moments of a run, which a shared host moves by more
# than any bound
RATES = (("gen_img_per_s", "1/s"), ("eval_img_per_s", "1/s"))


def child_env():
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, env, deadline):
    """The child's JSON result; raises RuntimeError when it fails or runs late."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the next child process")
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise RuntimeError(f"child {args} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def upper_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples above, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100 * (n - 10) // n, ordered[n - 11]


def describe(name, unit, values):
    up = upper_percentile(values)
    tail = f"p{up[0]} {up[1]:.6g}" if up else "no percentile with 10 samples above"
    return f"  {name:<28} {statistics.median(values):>14.6g} {unit:<7} ({tail}; n={len(values)})"


def src_lines():
    total = 0
    for root, _, files in os.walk("src"):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"run from the root of a fairseg checkout; missing {missing}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]
    try:
        # the first child fills the page cache and, where bytecode may be
        # written, compiles it; users pay that once, so it is not a sample
        setup = ["--mode", "setup", *common]
        run_child(setup, env, deadline)
        setups = [run_child(setup, env, deadline)]
        mode = "trace" if args.trace else "measure"
        extra = ["--seconds", str(args.seconds)]
        if args.trace:
            extra += ["--trace-out",
                      os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")]
        res = run_child(["--mode", mode, *common, *extra], env, deadline)
        # the other set-up samples come after the body, so that set-up and
        # generation samples are spread over the run
        setups += [run_child(setup, env, deadline) for _ in range(SETUP_CHILDREN - 1)]
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = dict(res["facts"], nproc=len(os.sched_getaffinity(0)), python=platform.python_version(),
                 src_lines=src_lines(), blas_env="1 thread (" + ", ".join(BLAS_VARS) + ")")
    print(f"fairseg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s")
    for key, value in facts.items():
        print(f"  machine {key}: {value}")
    print(f"  bodies attempted {res['attempted']}, failed {res['failed']}")
    print("  final mIoU(all) per body: "
          + ", ".join(repr(m) for m in res["miou_all"]))
    print(f"  dataset sha256: {res['digest']}")
    if res.get("iterations"):
        print(f"  training iterations per body: {res['iterations'][0]}")

    samples = {
        "wall_s": res["walls"],
        "cpu_s": res["cpus"],
        "setup_s": [s["setup_s"] for s in setups] + [res["setup_s"]],
        "peak_rss_mb": [res["peak_rss_mb"]],
        "gen_img_per_s": res["gen_rates"] + [r for s in setups for r in s["gen_rates"]],
        "eval_img_per_s": res["eval_rates"],
    }
    metrics = {}
    if args.trace:
        layers = res.get("per_layer")
        if layers is None:
            print("  no traced body passed its checks", file=sys.stderr)
            return 1
        print("  per-layer split of the traced bodies (self times, exact counts):")
        for name, value in layers.items():
            print(f"  {name:<28} {value!r}")
            metrics[name] = {"value": value, "unit": tracing.UNITS[name]}
        acc = res["accounting"]
        print(f"  last traced body: layer self times add up to {acc['body_self_s']!r} s "
              f"of its {acc['body_wall_s']!r} s wall time (the rest is installing "
              f"the wrappers); traced set-up {acc['setup_s']!r} s, of which "
              f"synthdata {acc['setup_synthdata_s']!r} s")
        print(f"  tracing overhead: {layers['trace.overhead_s']!r} s "
              "(median traced minus median untraced body)")
    else:
        print("  end-to-end (median, upper percentile, samples):")
        for name, unit in END_TO_END + RATES:
            if not samples[name]:
                print(f"  {name}: no samples", file=sys.stderr)
                return 1
            print(describe(name, unit, samples[name]))
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
    attempted, failed = res["attempted"], res["failed"]
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
