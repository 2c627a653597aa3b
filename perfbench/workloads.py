"""One benchmark child process: a workload's set-up, timed bodies and checks.

Run from the root of a fairseg checkout by ``perfbench/run.py``, which sets
the BLAS thread variables in this process's environment before it starts,
so they hold when NumPy is imported here.  Modes:

  setup    set the workload up once and report the set-up time
  measure  set up, then run the body (untraced) while the next one is
           expected to end within --seconds
  trace    set up under the tracer, then alternate an untraced and a
           traced body

The last line of standard output is one JSON object with the raw samples;
``run.py`` turns them into the benchmark's metrics.
"""

import time

# set-up time starts before NumPy and fairseg are imported
SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import fairseg  # noqa: E402
from fairseg import config, metrics, model, synthdata, trainer  # noqa: E402

import tracing  # noqa: E402

CONFIG = os.path.join("configs", "acceptance.ini")
PRESETS = {"train-full": "full", "train-finetune": "fine-tune"}

# re-evaluations of the final model per body; each is one eval_img_per_s
# sample
EVAL_REPEATS = 10


def _digest(samples):
    """sha256 over every sample's arrays, their dtypes and shapes."""
    h = hashlib.sha256()
    for s in samples:
        for arr in (s.image, s.labels):
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


class TrainWorkload:
    """One run_continual of a preset over both steps, with evaluation and checkpoints.

    Set-up follows ``fairseg gen`` then ``fairseg train``: the dataset is
    generated, written, and read back, and the run trains on what was read.
    """

    def __init__(self, preset, seed, data_dir):
        rc = config.load_config(
            CONFIG, overrides=[("benchmark", "seed", str(seed)), ("train", "seed", str(seed))]
        )
        self.spec = rc.benchmark_spec()
        start = time.perf_counter()
        train, test = synthdata.generate(self.spec)
        # generation in set-up is one gen_img_per_s sample
        self.gen_rates = [(len(train) + len(test)) / (time.perf_counter() - start)]
        os.makedirs(data_dir, exist_ok=True)
        paths = [os.path.join(data_dir, "train.bin"), os.path.join(data_dir, "test.bin")]
        for samples, path in zip((train, test), paths):
            synthdata.write_dataset(samples, path, self.spec.num_classes)
        (self.train, num_classes), (self.test, _) = [synthdata.read_dataset(p) for p in paths]
        self.digest = _digest(train + test)
        if _digest(self.train + self.test) != self.digest:
            raise RuntimeError("dataset write/read round trip is not bit-exact")
        self.cfg = rc.train_config(num_classes=num_classes).ablation(preset)
        self.first = None  # (mIoU, final loss trace) of the first body

    def body(self, out_dir):
        return trainer.run_continual(
            self.cfg, self.train, out_dir=out_dir, test_samples=self.test
        )

    def check(self, result, out_dir, obs):
        """Failed checks as strings; fills ``obs`` with what was observed."""
        split = self.cfg.split
        steps = split.num_steps
        bad = []
        if [o.step for o in result.outcomes] != list(range(1, steps + 1)):
            bad.append("not every step trained")
        traces = [tr for o in result.outcomes for tr in o.loss_trace]
        if not traces or not all(np.isfinite(v) for tr in traces for v in tr.values()):
            bad.append("loss trace empty or not finite")
        mious = [r.miou_all for r in result.reports]
        if len(mious) != steps or not all(0.0 <= m <= 1.0 for m in mious):
            bad.append(f"per-step mIoU(all) missing or outside [0, 1]: {mious}")
        for step in range(1, steps + 1):
            allowed = set(synthdata.select_step_indices(self.train, split, step))
            reads = [i for s, i in result.tracker.reads if s == step]
            if not reads or not set(reads) <= allowed:
                bad.append(f"step {step} read samples outside its selection")
        final = result.state.params
        for _ in range(EVAL_REPEATS):
            start = time.perf_counter()
            report, cm = metrics.evaluate_model(final, self.test, split, steps)
            obs["eval_rates"].append(len(self.test) / (time.perf_counter() - start))
        pixels = sum(int((s.labels != synthdata.IGNORE_ID).sum()) for s in self.test)
        if cm.total() != pixels:
            bad.append(f"confusion total {cm.total()} != {pixels} test pixels")
        if mious and report.miou_all != mious[-1]:
            bad.append("re-evaluating the final model changed mIoU(all)")
        ckpt = model.load_checkpoint(os.path.join(out_dir, f"step{steps}.ckpt"))
        if ckpt.step != steps or any(
            not np.array_equal(ckpt.params.blocks[k], v) for k, v in final.blocks.items()
        ):
            bad.append("final checkpoint does not hold the final parameters")
        outcome = (mious[-1] if mious else None, traces[-1] if traces else None)
        if self.first is None:
            self.first = outcome
        elif outcome != self.first:
            bad.append("two bodies with the same seed gave different results")
        # regenerating must give the same data; it is also one more
        # generation sample, taken later in the run than the set-up ones
        start = time.perf_counter()
        train, test = synthdata.generate(self.spec)
        obs["gen_rates"].append((len(train) + len(test)) / (time.perf_counter() - start))
        if _digest(train + test) != self.digest:
            bad.append("regenerating the dataset gave different data")
        obs["miou_all"].append(mious[-1] if mious else None)
        obs["iterations"].append(sum(o.iterations for o in result.outcomes))
        obs["cluster_skipped_px"] = sum(
            o.counters.get("cluster_skipped_pixels", 0) for o in result.outcomes
        )
        return bad


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def run_body(wl, out_dir, tracer=None):
    """(wall seconds, CPU seconds, result) of one body."""
    shutil.rmtree(out_dir, ignore_errors=True)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if tracer is None:
        result = wl.body(out_dir)
    else:
        with tracer.installed(fairseg), tracer.root():
            result = wl.body(out_dir)
    return time.perf_counter() - wall0, time.process_time() - cpu0, result


def per_layer(setup_tracer, traced, untraced_walls, miou):
    """Per-layer metrics: synthdata from the traced set-up, the rest from the bodies.

    Times are medians over the traced bodies; counts repeat exactly from
    body to body and are taken from the last one.
    """
    bodies = [tracing.layer_metrics(t.spans, t.counts) for _, t in traced]
    setup = tracing.layer_metrics(setup_tracer.spans, setup_tracer.counts)
    out = {}
    for name, unit in tracing.UNITS.items():
        if name.startswith("synthdata."):
            out[name] = setup[name]
        elif unit == "s":
            out[name] = statistics.median(b[name] for b in bodies)
        else:
            out[name] = bodies[-1][name]
    out["metrics.miou_all"] = miou
    out["trace.wall_s"] = statistics.median(w for w, _ in traced)
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(PRESETS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    data_dir = os.path.join(args.work, "data")
    setup_tracer = tracing.Tracer()
    if args.mode == "trace":
        with setup_tracer.installed(fairseg), setup_tracer.root(tracing.SETUP_ROOT):
            wl = TrainWorkload(PRESETS[args.workload], args.seed, data_dir)
    else:
        wl = TrainWorkload(PRESETS[args.workload], args.seed, data_dir)
    setup_s = time.perf_counter() - SETUP_START
    out = {"setup_s": setup_s, "gen_rates": wl.gen_rates}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    out_dir = os.path.join(args.work, "body")
    obs = {"miou_all": [], "iterations": [], "gen_rates": list(wl.gen_rates),
           "eval_rates": []}
    walls, cpus, traced = [], [], []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        pair = [None] if args.mode == "measure" else [None, tracing.Tracer()]
        for tracer in pair:
            attempted += 1
            try:
                wall, cpu, result = run_body(wl, out_dir, tracer)
                bad = wl.check(result, out_dir, obs)
                if tracer is not None:
                    # the program's own count, kept per step in StepOutcome
                    tracer.counts["losses.cluster_skipped_px"] = obs["cluster_skipped_px"]
            except Exception:  # a failed body is counted, and the run goes on
                traceback.print_exc()
                bad = ["body raised"]
            if bad:
                failed += 1
                print(f"check failed ({args.workload}, seed {args.seed}): {bad}",
                      file=sys.stderr)
                continue
            if tracer is None:
                walls.append(wall)
                cpus.append(cpu)
            else:
                traced.append((wall, tracer))
        elapsed = time.perf_counter() - begin
        per_round = elapsed / (attempted // len(pair))
        if failed == attempted or elapsed + per_round > args.seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)

    out.update(
        walls=walls, cpus=cpus, attempted=attempted, failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        miou_all=obs["miou_all"], iterations=obs["iterations"],
        gen_rates=obs["gen_rates"], eval_rates=obs["eval_rates"], digest=wl.digest,
        facts=machine_facts(),
    )
    if traced and walls:
        out["per_layer"] = per_layer(setup_tracer, traced, walls, obs["miou_all"][-1])
        last_wall, last = traced[-1]
        out["accounting"] = {
            "setup_s": tracing.root_seconds(setup_tracer.spans),
            "setup_synthdata_s": sum(out["per_layer"][k] for k in tracing.UNITS
                                     if k.startswith("synthdata.") and k.endswith("_s")),
            "body_wall_s": last_wall,
            "body_self_s": sum(tracing.self_times(last.spans).values()),
        }
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start", "end", "parent"],
                           "setup_spans": setup_tracer.spans, "spans": last.spans,
                           "counts": dict(last.counts)}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
