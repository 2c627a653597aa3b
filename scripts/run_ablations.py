#!/usr/bin/env python3
"""Run the loss-ablation grid on the shapes-8 benchmark and report it.

Generates the dataset once, trains every (preset, seed) run that has no
summary yet (every run with ``--fresh``) as one-BLAS-thread processes
side by side (see ``fairseg.grid``), then prints ``fairseg report`` over
the runs: each preset's final-step metrics as the seed mean with its
per-seed min and max, so that one collapsed seed shows, and the claims of
acceptance criteria 5-7 on the seed means and on each seed.  The runs
go under the config's ``[output] dir`` and the dataset under its ``data``
subdirectory unless ``--out`` and ``--data`` say otherwise, so each
config keeps its own grid.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fairseg import cli
from fairseg.config import load_config
from fairseg.grid import run_grid
from fairseg.trainer import ABLATIONS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument(
        "--config",
        default=os.path.join(here, "..", "configs", "acceptance.ini"),
    )
    ap.add_argument("--data", help="dataset directory (default <out>/data)")
    ap.add_argument("--out", help="run root (default the config's [output] dir)")
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--presets", default=",".join(ABLATIONS))
    ap.add_argument("--fresh", action="store_true",
                    help="retrain even when a summary already exists")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    presets = args.presets.split(",")
    out = args.out or load_config(args.config).get("output", "dir")
    data = args.data or os.path.join(out, "data")
    if not os.path.exists(os.path.join(data, "train.bin")):
        run_grid([["gen", "--config", args.config, "--out", data]])
    rundir = {(p, s): os.path.join(out, f"{p}-s{s}")
              for p in presets for s in seeds}
    run_grid(
        [
            "train", "--config", args.config,
            "--dataset", os.path.join(data, "train.bin"),
            "--test", os.path.join(data, "test.bin"),
            "--ablation", preset, "--seed", str(seed), "--out", rd,
        ]
        for (preset, seed), rd in rundir.items()
        if args.fresh or not os.path.exists(os.path.join(rd, "summary.txt"))
    )
    return cli.main(["report", *rundir.values()])


if __name__ == "__main__":
    sys.exit(main())
