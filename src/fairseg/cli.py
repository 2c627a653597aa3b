"""Command-line surface: gen / train / eval / gradcheck / report.

Exit codes: 0 success, 2 configuration error, 3 data or format error,
4 verification failure.  Every subcommand is deterministic given its
config and input files; ``--print-config`` echoes the fully resolved
configuration before running.
"""

from __future__ import annotations

import argparse
import operator
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .config import load_config
from .errors import ConfigError, FairsegError, FormatError, LabelError
from .losses import (
    ConsConfig,
    cluster_loss,
    cons_loss,
    distill_loss,
    weighted_ce,
)
from .metrics import (
    evaluate_model,
    normalized_entropy,
    read_summary,
    write_summary,
)
from .model import load_checkpoint
from .numerics import Rng, finite_diff_check, softmax
from .prototypes import ClusterConfig, PrototypeBank
from .synthdata import (
    IGNORE_ID,
    TaskSplit,
    class_pixel_counts,
    generate,
    read_dataset,
    write_dataset,
)
from .trainer import ABLATIONS, run_continual

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args):
    overrides = []
    if args.seed is not None:
        overrides.append(("benchmark", "seed", str(args.seed)))
    rc = load_config(args.config, overrides)
    if args.print_config:
        sys.stdout.write(rc.dump())
    spec = rc.benchmark_spec()
    train, test = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    write_dataset(train, os.path.join(args.out, "train.bin"), spec.num_classes)
    write_dataset(test, os.path.join(args.out, "test.bin"), spec.num_classes)
    rc.write(os.path.join(args.out, "config.resolved.ini"))
    counts = class_pixel_counts(train, spec.num_classes)
    total = counts.sum()
    print(f"wrote {len(train)} train / {len(test)} test images to {args.out}")
    for cid, n in enumerate(counts):
        share = n / total if total else 0.0
        tag = "background" if cid == 0 else f"class {cid}"
        print(f"  {tag}: {n} px ({share:.4f})")
    if spec.num_classes >= 2:
        ent = normalized_entropy(counts[1:])
        print(f"normalized entropy over foreground classes: {ent:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args):
    overrides = []
    if args.seed is not None:
        overrides.append(("train", "seed", str(args.seed)))
    if args.ablation is not None:
        overrides.append(("train", "preset", args.ablation))
    if args.steps is not None:
        overrides.append(("split", "steps", args.steps))
    if args.out is not None:
        overrides.append(("output", "dir", args.out))
    rc = load_config(args.config, overrides)
    samples, num_classes = read_dataset(args.dataset)
    tc = rc.train_config(num_classes=num_classes)
    if args.print_config:
        sys.stdout.write(rc.dump())
    test_samples = None
    if args.test is not None:
        test_samples, test_classes = read_dataset(args.test)
        if test_classes != num_classes:
            raise LabelError(
                f"train/test class counts differ: {num_classes} vs {test_classes}"
            )
    out_dir = rc.get("output", "dir")
    resume_from = None
    if args.resume:
        resume_from = os.path.join(out_dir, "latest.ckpt")
        if not os.path.exists(resume_from):
            raise FormatError(f"no checkpoint to resume at {resume_from}")
    result = run_continual(
        tc,
        samples,
        out_dir=out_dir,
        test_samples=test_samples,
        resume_from=resume_from,
        resolved_config=rc.dump(),
    )
    for outcome in result.outcomes:
        last = outcome.loss_trace[-1] if outcome.loss_trace else {}
        print(
            f"step {outcome.step}: head rows {1 + len(tc.split.known_through(outcome.step))}, "
            f"{outcome.iterations} iterations, "
            f"final total loss {last.get('total', float('nan')):.6f}"
        )
    for report in result.reports:
        print(
            f"step {report.step} eval: mIoU(all) {report.miou_all:.4f}, "
            f"mIoU(initial) {report.miou_initial:.4f}, "
            f"STD {report.iou_std_fg:.4f}"
        )
    print(f"run artifacts in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args):
    ckpt = load_checkpoint(args.checkpoint)
    samples, num_classes = read_dataset(args.dataset)
    top = ckpt.params.num_rows - 1
    if top > num_classes:
        raise LabelError(
            f"checkpoint knows class {top} but dataset has "
            f"only {num_classes} classes"
        )
    split = TaskSplit(steps=ckpt.params.class_steps).validate(num_classes)
    step = args.step if args.step is not None else split.num_steps
    report, _ = evaluate_model(ckpt.params, samples, split, step)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    write_summary(os.path.join(out_dir, "summary.txt"), report)
    print(f"evaluated {len(samples)} images at step {step}")
    print(f"  mIoU all      {report.miou_all:.4f}")
    print(f"  mIoU initial  {report.miou_initial:.4f}")
    later = report.miou_later
    print(f"  mIoU later    {later:.4f}" if np.isfinite(later) else
          "  mIoU later    n/a")
    print(f"  IoU STD (fg)  {report.iou_std_fg:.4f}")
    print(f"  islands/image {report.islands_per_image:.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def _bounded_offsets(rng, count, dim, lo=0.3, hi=0.8):
    """Random per-coordinate offsets with |offset| in [lo, hi].

    Keeping every coordinate away from zero keeps the analytic gradients
    (unit vectors for the distance losses) well above the floating-point
    noise floor of the central-difference quotient, so the comparison
    tests the gradient, not the rounding of the loss value.
    """
    mag = lo + (hi - lo) * rng.uniforms(count * dim)
    signs = np.where(rng.uniforms(count * dim) < 0.5, -1.0, 1.0)
    return (mag * signs).reshape(count, dim)


def run_gradcheck(trials, seed):
    """Finite-difference check for every loss; returns [(name, max_err)].

    Instances are random but bounded away from gradient degeneracies
    (zero offsets, vanishing kernels) — see _bounded_offsets.
    """
    height, width, dim = 8, 8, 4
    results = []
    shape = (height, width, dim)
    n = height * width

    def ce_case(rng):
        labels = np.array(
            [rng.randint(dim) for _ in range(n)], dtype=np.int64
        ).reshape(height, width)
        labels[rng.uniforms(n).reshape(height, width) <= 0.3] = IGNORE_ID
        weights = 0.5 + 1.5 * rng.uniforms(dim)
        z0 = rng.normals(n * dim).reshape(shape)
        return (
            lambda p: weighted_ce(p["logits"], labels, weights),
            {"logits": z0},
        )

    def cluster_case(rng):
        # Three initialized prototypes: pixels labeled 0 cluster near p0
        # (pure attraction; every other prototype saturated), pixels
        # labeled 3 reference an uninitialized prototype and sit within
        # the margin of p1 (pure active hinge + skip counter), and p2 is
        # far away so it exercises the saturated branch everywhere.
        protos = PrototypeBank(dim)
        protos.register([0, 1, 2, 3])
        base = rng.normals(dim)
        direction = _bounded_offsets(rng, 1, dim, 0.3, 0.6)[0]
        p1 = base + 3.0 * direction / np.sqrt(np.sum(direction**2))
        for cid, vec in ((0, base), (1, p1), (2, base + 50.0)):
            protos.entries[cid].vector = vec.astype(np.float64)
            protos.entries[cid].initialized = True
        labels = np.empty(n, dtype=np.int64)
        f0 = np.empty((n, dim))
        for i in range(n):
            u = rng.uniform()
            off = 0.5 * _bounded_offsets(rng, 1, dim)[0]
            if u < 0.45:
                labels[i] = 0
                f0[i] = base + off
            elif u < 0.9:
                labels[i] = 3
                f0[i] = p1 + off
            else:
                labels[i] = IGNORE_ID
                f0[i] = base + 10.0 * rng.normals(dim)
        cfg = ClusterConfig(margin=1.0)
        labels = labels.reshape(height, width)
        f0 = f0.reshape(shape)
        return (
            lambda p: cluster_loss(p["features"], labels, protos, cfg),
            {"features": f0},
        )

    def cons_case(rng):
        # Two-region piecewise-constant probability maps: interior pixels
        # have exactly-zero gradients on both sides of the comparison,
        # boundary pixels accumulate sign-coherent contributions bounded
        # away from the FD noise floor.  Colors stay close so no pair's
        # affinity collapses.  The check runs on the loss's own input
        # surface (probs); the softmax chain is verified separately.
        img = (0.5 + 0.12 * (2.0 * rng.uniforms(n * 3) - 1.0)).reshape(
            height, width, 3
        )
        cfg = ConsConfig(sigma_color=0.3, window=3)
        a = b = None
        for _ in range(100):
            a = softmax(rng.normals(dim))
            b = softmax(rng.normals(dim))
            if np.min(np.abs(a - b)) >= 0.02:
                break
        rr, cc = np.meshgrid(
            np.arange(height), np.arange(width), indexing="ij"
        )
        kind = rng.randint(3)
        if kind == 0:
            region = rr + cc < (height + width) // 2
        elif kind == 1:
            r0 = 2 + rng.randint(height - 4)
            c0 = 2 + rng.randint(width - 4)
            region = (np.abs(rr - r0) <= 2) & (np.abs(cc - c0) <= 2)
        else:
            region = cc < width // 2
        probs0 = np.where(region[..., None], a, b)
        return (
            lambda p: cons_loss(img, p["probs"], cfg),
            {"probs": probs0},
        )

    def distill_case(rng):
        f0 = rng.normals(n * dim).reshape(shape)
        prev = f0 - _bounded_offsets(rng, n, dim).reshape(shape)
        return (
            lambda p: distill_loss(p["features"], prev),
            {"features": f0},
        )

    cases = [
        ("weighted_ce", ce_case),
        ("cluster_loss", cluster_case),
        ("cons_loss", cons_case),
        ("distill_loss", distill_case),
    ]
    root = Rng(seed)
    for name, make in cases:
        worst = 0.0
        for t in range(trials):
            rng = root.split(f"{name}/{t}")
            loss, params = make(rng)
            err = finite_diff_check(loss, params, epsilon=1e-6)
            worst = max(worst, err)
        results.append((name, worst))
    return results


def cmd_gradcheck(args):
    results = run_gradcheck(trials=args.trials, seed=args.seed)
    threshold = 1e-5
    all_ok = True
    print(f"{'loss':24s} {'max rel err':>14s}  verdict")
    for name, err in results:
        ok = err <= threshold
        all_ok &= ok
        print(f"{name:24s} {err:14.3e}  {'PASS' if ok else 'FAIL'}")
    if not all_ok:
        print(f"gradient check failed (threshold {threshold:g})")
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_REPORT_COLUMNS = (
    "miou_initial",
    "miou_later",
    "miou_all",
    "miou_avg",
    "iou_std_fg",
    "islands_per_image",
)

_SEED_SUFFIX = re.compile(r"(.+)-s(\d+)")

# The comparisons of acceptance criteria 5-7: (metric, preset, base, relative,
# op, bound).  The change is preset - base, or (preset - base) / base when
# relative, and it holds when ``change <op> bound``.
CLAIMS = (
    ("miou_initial", "cluster", "fine-tune", False, ">=", 0.15),
    ("iou_std_fg", "cluster-class", "cluster", False, "<", 0.0),
    ("miou_all", "cluster-class", "cluster", False, ">=", -0.02),
    ("islands_per_image", "full", "cluster-class", True, "<=", -0.10),
    ("miou_all", "full", "cluster-class", False, ">=", 0.0),
)
_OPS = {">=": operator.ge, "<": operator.lt, "<=": operator.le}


@dataclass(frozen=True)
class ClaimValue:
    """A claim's change on the seed means, whether it holds, and
    ``(seed, change, holds)`` for each numbered seed both presets ran."""

    metric: str
    preset: str
    base: str
    relative: bool
    bound: str
    mean: float
    holds: bool
    seeds: tuple

    def describe(self):
        """'<metric>, <preset> vs <base>: <mean> (must be <op> <bound>), per seed ...'"""
        fmt = "{:+.2%}" if self.relative else "{:+.4f}"
        text = (f"{self.metric}, {self.preset} vs {self.base}: "
                f"{fmt.format(self.mean)} (must be {self.bound})")
        if self.seeds:
            text += ", per seed " + ", ".join(
                f"s{s} {fmt.format(v)}" + ("" if ok else " (fails)")
                for s, v, ok in self.seeds)
        return text


def load_run_summary(run_dir):
    """A run directory's name and its summary.txt metrics as floats."""
    path = os.path.join(run_dir, "summary.txt")
    if not os.path.exists(path):
        raise FormatError(f"no summary.txt in run directory {run_dir}")
    fields = read_summary(path)
    row = {"name": os.path.basename(os.path.normpath(run_dir))}
    for col in _REPORT_COLUMNS:
        raw = fields.get(col, "nan")
        try:
            row[col] = float(raw)
        except ValueError:
            raise FormatError(f"bad value for {col} in {path}: {raw!r}")
    return row


def group_runs(rows):
    """Summary rows by run name minus a trailing ``-s<n>``: {name: {seed: row}},
    seeds ascending.  A name without the suffix is a group with seed None."""
    groups = {}
    for row in rows:
        m = _SEED_SUFFIX.fullmatch(row["name"])
        name, seed = (m[1], int(m[2])) if m else (row["name"], None)
        if seed in groups.setdefault(name, {}):
            raise ConfigError(f"run {row['name']!r} is named twice")
        groups[name][seed] = row
    return {name: dict(sorted(runs.items(), key=lambda kv: kv[0] or 0))
            for name, runs in groups.items()}


def claim_values(groups):
    """The claims of ``CLAIMS`` whose two presets are groups of ``group_runs``.

    The mean change compares the two presets' ``np.mean`` over their runs.
    """
    out = []
    for metric, preset, base, relative, op, bound in CLAIMS:
        if preset not in groups or base not in groups:
            continue
        a, b = groups[preset], groups[base]
        pairs = [(None, float(np.mean([r[metric] for r in a.values()])),
                  float(np.mean([r[metric] for r in b.values()])))]
        pairs += [(s, a[s][metric], b[s][metric])
                  for s in a if s is not None and s in b]
        vals = []
        for s, x, y in pairs:
            v = ((x - y) / y if y else float("nan")) if relative else x - y
            vals.append((s, v, bool(_OPS[op](v, bound))))
        text = f"{op} {bound:.0%}" if relative else f"{op} {bound:g}"
        out.append(ClaimValue(metric, preset, base, relative, text,
                              vals[0][1], vals[0][2], tuple(vals[1:])))
    return out


def cmd_report(args):
    groups = group_runs(load_run_summary(d) for d in args.run_dirs)
    header = ["name", *_REPORT_COLUMNS]
    widths = [14] + [24] * len(_REPORT_COLUMNS)

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    print("each metric: mean over the group's runs [min, max]")
    print(line(header))
    print("-" * len(line(header)))
    for name, runs in groups.items():
        cells = [name]
        for h in _REPORT_COLUMNS:
            v = [r[h] for r in runs.values()]
            cells.append(f"{np.mean(v):.4f} [{np.min(v):.4f}, {np.max(v):.4f}]")
        print(line(cells))
    claims = claim_values(groups)
    if claims:
        print("\nclaims on the group means, then per seed:")
    for cv in claims:
        print(f"  {'holds' if cv.holds else 'FAILS'}  {cv.describe()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing & dispatch
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairseg",
        description=(
            "Fairness-aware continual segmentation on procedural shape "
            "benchmarks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark dataset")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override [benchmark] seed")
    p.add_argument("--print-config", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="run the continual training protocol")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--dataset", required=True, help="training dataset file")
    p.add_argument("--test", default=None,
                   help="test dataset for per-step evaluation")
    p.add_argument("--out", default=None, help="override [output] dir")
    p.add_argument("--ablation", default=None,
                   help="override [train] preset: " + ", ".join(ABLATIONS))
    p.add_argument("--steps", default=None,
                   help="override [split] steps, e.g. 5-3 or 4-2-2")
    p.add_argument("--seed", type=int, default=None,
                   help="override [train] seed")
    p.add_argument("--resume", action="store_true",
                   help="continue from <out>/latest.ckpt")
    p.add_argument("--print-config", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None, help="output directory (default .)")
    p.add_argument("--step", type=int, default=None,
                   help="evaluate at this step (default: final)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every loss gradient")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=20240801)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser(
        "report",
        help="tabulate run groups (NAME-s<n> runs form group NAME) "
             "and the claims of acceptance criteria 5-7",
    )
    p.add_argument("run_dirs", nargs="+")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FairsegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
