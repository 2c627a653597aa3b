#!/usr/bin/env python3
"""Run the loss-ablation grid on the shapes-8 benchmark and tabulate it.

Generates the dataset once, trains every (preset, seed) combination with
the committed configuration (one-BLAS-thread processes side by side, see
``fairseg.grid``), then prints seed-averaged final-step metrics,
each with its per-seed min and max so that one collapsed seed shows,
plus the three directional comparisons the grid exists to demonstrate:
old-class retention from the clustering term, per-class IoU spread from
the distribution weighting, and island suppression from the consistency
term.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fairseg.cli import load_run_summary
from fairseg.grid import run_grid
from fairseg.trainer import ABLATIONS

PRESETS = tuple(ABLATIONS)
METRICS = ("miou_initial", "miou_later", "miou_all", "iou_std_fg",
           "fairness_gap", "islands_per_image")


def ensure_dataset(config, data_dir):
    if not os.path.exists(os.path.join(data_dir, "train.bin")):
        run_grid([["gen", "--config", config, "--out", data_dir]])


def train_grid(config, data_dir, out_dir, presets, seeds, fresh=False):
    """Train the runs that have no summary yet (every run when ``fresh``)
    with ``run_grid``, then read every run's summary."""
    rundir = {(p, s): os.path.join(out_dir, f"{p}-s{s}")
              for p in presets for s in seeds}
    run_grid(
        [
            "train", "--config", config,
            "--dataset", os.path.join(data_dir, "train.bin"),
            "--test", os.path.join(data_dir, "test.bin"),
            "--ablation", preset, "--seed", str(seed), "--out", rd,
        ]
        for (preset, seed), rd in rundir.items()
        if fresh or not os.path.exists(os.path.join(rd, "summary.txt"))
    )
    return {cell: load_run_summary(rd) for cell, rd in rundir.items()}


def seed_mean(runs, preset, seeds, key):
    return float(np.mean([runs[(preset, s)][key] for s in seeds]))


def seed_cell(runs, preset, seeds, key):
    """'mean [min, max]' over the seeds."""
    vals = [runs[(preset, s)][key] for s in seeds]
    return f"{np.mean(vals):.4f} [{min(vals):.4f}, {max(vals):.4f}]"


def summarize(runs, presets, seeds):
    print()
    print("each cell: mean over seeds [per-seed min, max]")
    header = f"{'preset':14s}" + "".join(f"{m:>27s}" for m in METRICS)
    print(header)
    print("-" * len(header))
    for preset in presets:
        row = f"{preset:14s}"
        for m in METRICS:
            row += f"{seed_cell(runs, preset, seeds, m):>27s}"
        print(row)
    print()

    def need(*names):
        return all((p, seeds[0]) in runs for p in names)

    if need("fine-tune", "cluster"):
        gap = seed_mean(runs, "cluster", seeds, "miou_initial") - seed_mean(
            runs, "fine-tune", seeds, "miou_initial"
        )
        print(f"old-class mIoU gain, cluster vs fine-tune: {gap:+.4f}")
    if need("cluster", "cluster-class"):
        dstd = seed_mean(runs, "cluster-class", seeds, "iou_std_fg") - (
            seed_mean(runs, "cluster", seeds, "iou_std_fg")
        )
        dmiou = seed_mean(runs, "cluster-class", seeds, "miou_all") - (
            seed_mean(runs, "cluster", seeds, "miou_all")
        )
        print(f"IoU spread change, +class weighting:      {dstd:+.4f}")
        print(f"all-class mIoU change, +class weighting:  {dmiou:+.4f}")
    if need("cluster-class", "full"):
        base = seed_mean(runs, "cluster-class", seeds, "islands_per_image")
        isl = seed_mean(runs, "full", seeds, "islands_per_image")
        dmiou = seed_mean(runs, "full", seeds, "miou_all") - seed_mean(
            runs, "cluster-class", seeds, "miou_all"
        )
        rel = (isl - base) / base if base else float("nan")
        print(f"islands/image change, +consistency:       {rel:+.2%}")
        print(f"all-class mIoU change, +consistency:      {dmiou:+.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument(
        "--config",
        default=os.path.join(here, "..", "configs", "acceptance.ini"),
    )
    ap.add_argument("--data", default="runs/shapes8-data")
    ap.add_argument("--out", default="runs/ablations")
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--presets", default=",".join(PRESETS))
    ap.add_argument("--fresh", action="store_true",
                    help="retrain even when a summary already exists")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    presets = args.presets.split(",")
    ensure_dataset(args.config, args.data)
    runs = train_grid(args.config, args.data, args.out, presets, seeds,
                      fresh=args.fresh)
    summarize(runs, presets, seeds)


if __name__ == "__main__":
    main()
