"""End-to-end acceptance gate.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them inline).  The benchmark comparisons train the full ablation grid — four
presets, three seeds — against configs/acceptance.ini, as one-BLAS-thread
processes, one per CPU at a time: about a minute on two cores.  Criteria 5-7
read the claims of ``fairseg report``, on the seed means and per seed.
"""

import dataclasses
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from fairseg import cli
from fairseg.config import load_config
from fairseg.grid import run_grid
from fairseg.metrics import ConfusionMatrix, normalized_entropy
from fairseg.numerics import Rng
from fairseg.prototypes import (
    ClusterConfig,
    FeatureBank,
    PrototypeBank,
    pseudo_label_map,
    update_prototypes,
)
from fairseg.synthdata import read_dataset, select_step_indices
from fairseg.trainer import run_continual

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ACCEPTANCE_INI = os.path.join(REPO, "configs", "acceptance.ini")
PRESETS = ("fine-tune", "cluster", "cluster-class", "full")
SEEDS = (1, 2, 3)


def report(criterion, ok, detail):
    import conftest

    line = f"[{criterion}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def train_argv(data, out, preset, seed, *extra):
    return [
        "train", "--config", ACCEPTANCE_INI,
        "--dataset", str(data / "train.bin"), "--test", str(data / "test.bin"),
        "--ablation", preset, "--seed", str(seed), "--out", str(out), *extra,
    ]


@pytest.fixture(scope="session")
def grid(tmp_path_factory):
    """Dataset plus the full preset x seed training grid, and its claims.

    ``run_grid`` trains one-BLAS-thread runs: the bytes of the README table.
    The claims are ``fairseg report``'s, keyed by (metric, preset).
    """
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "data"
    run_grid([["gen", "--config", ACCEPTANCE_INI, "--out", str(data)]])
    cells = [(p, s) for p in PRESETS for s in SEEDS]
    seconds = run_grid(train_argv(data, root / f"{p}-s{s}", p, s) for p, s in cells)
    groups = cli.group_runs(cli.load_run_summary(root / f"{p}-s{s}") for p, s in cells)
    claims = {(cv.metric, cv.preset): cv for cv in cli.claim_values(groups)}
    return {"root": root, "data": data, "claims": claims,
            "durations": dict(zip(cells, seconds))}


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    results = cli.run_gradcheck(trials=20, seed=20240801)
    elapsed = time.monotonic() - t0
    worst = max(err for _, err in results)
    ok = worst <= 1e-5 and elapsed < 120.0
    report(
        "criterion 1",
        ok,
        f"4 losses x 20 random 8x8x4 instances, max finite-difference "
        f"error {worst:.3e} (limit 1e-5) in {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_3_update_schedule_oracle():
    rng = Rng(33)
    dim, period = 3, 4
    cfg = ClusterConfig(update_period=period, bank_capacity=6)
    protos = PrototypeBank(dim)
    protos.register([0, 1, 2])
    bank = FeatureBank(dim, cfg.bank_capacity)
    # independent replay state: plain queues and vectors
    queues = {0: [], 1: [], 2: []}
    mirror = {}
    frozen = {2}
    protos.entries[2].vector = np.ones(dim)
    protos.entries[2].initialized = True
    protos.entries[2].frozen = True
    mirror[2] = np.ones(dim)
    worst = 0.0
    for i in range(1, 81):
        cid = int(rng.randint(3))
        vec = np.asarray(rng.normals(dim))
        bank.deposit_many(cid, vec[None])
        queues[cid].append(vec.copy())
        queues[cid] = queues[cid][-cfg.bank_capacity:]
        update_prototypes(protos, bank, cfg, i)
        if i >= period and i % period == 0:
            for c, q in queues.items():
                if c in frozen or not q:
                    continue
                mean = np.mean(q, axis=0)
                if c not in mirror:
                    mirror[c] = mean
                else:
                    mirror[c] = cfg.momentum * mirror[c] + (
                        1.0 - cfg.momentum
                    ) * mean
        for c, ref in mirror.items():
            got = protos.entries[c].vector
            worst = max(worst, float(np.abs(got - ref).max()))
    ok = worst <= 1e-12
    report(
        "criterion 3",
        ok,
        f"prototype values vs independent queue replay over 80 deposits: "
        f"max deviation {worst:.2e} (limit 1e-12), including first-update "
        f"and frozen-class branches",
    )


def test_criterion_4_pseudo_label_oracle():
    rng = Rng(44)
    dim = 5
    protos = PrototypeBank(dim)
    protos.register(range(7))
    for cid in range(7):
        protos.entries[cid].vector = np.asarray(rng.normals(dim))
        protos.entries[cid].initialized = cid != 3  # one uninitialized
    ids = [c for c in range(7) if c != 3]
    agree = 0
    trials = 10_000
    for t in range(trials):
        if t % 10 == 0:  # exact-tie cases: feature equals some prototype
            pick = ids[int(rng.randint(len(ids)))]
            f = protos.entries[pick].vector.copy()
        else:
            f = np.asarray(rng.normals(dim))
        got = pseudo_label_map(protos, f[None])[0]
        dists = [float(np.linalg.norm(f - protos.entries[c].vector)) for c in ids]
        best = min(dists)
        brute = min(c for c, d in zip(ids, dists) if d == best)
        agree += int(got == brute)
    ok = agree == trials
    report(
        "criterion 4",
        ok,
        f"nearest-prototype labels matched a brute-force scan in "
        f"{agree}/{trials} random trials (ties resolved to smallest id)",
    )


def test_criterion_5_forgetting_gap(grid):
    gain = grid["claims"][("miou_initial", "cluster")]
    slowest = max(grid["durations"].values())
    report("criterion 5", gain.holds and slowest < 600.0,
           f"clustering against forgetting: {gain.describe()}; "
           f"slowest run {slowest:.0f}s (limit 600s)")


def test_criterion_6_fairness_spread(grid):
    dstd = grid["claims"][("iou_std_fg", "cluster-class")]
    dmiou = grid["claims"][("miou_all", "cluster-class")]
    report("criterion 6", dstd.holds and dmiou.holds,
           f"class weighting: {dstd.describe()}; {dmiou.describe()}")


def test_criterion_7_consistency(grid):
    rel = grid["claims"][("islands_per_image", "full")]
    dmiou = grid["claims"][("miou_all", "full")]
    report("criterion 7", rel.holds and dmiou.holds,
           f"consistency term: {rel.describe()}; {dmiou.describe()}")


def test_ablation_script_prints_the_claims(grid):
    """The ablation script reports the acceptance grid through the same
    claims: every summary exists, so it trains nothing."""
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "run_ablations.py"),
         "--data", str(grid["data"]), "--out", str(grid["root"]),
         "--presets", ",".join(PRESETS)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for cv in grid["claims"].values():
        assert cv.describe() in proc.stdout


def test_criterion_8_rehearsal_free(grid, tmp_path):
    cfg = load_config(ACCEPTANCE_INI).train_config(num_classes=8)
    train, _ = read_dataset(str(grid["data"] / "train.bin"))
    # run_continual fetches each allowed image once per step, before its
    # first epoch, so one epoch leaves the same read log as the full run
    result = run_continual(dataclasses.replace(cfg, epochs=1), train, tmp_path)
    step1_only = set(select_step_indices(train, cfg.split, 1)) - set(
        select_step_indices(train, cfg.split, 2)
    )
    reads = result.tracker.reads
    old_reads = sum(1 for s, i in reads if s == 2 and i in step1_only)
    ok = old_reads == 0 and any(s == 1 and i in step1_only for s, i in reads)
    report(
        "criterion 8",
        ok,
        f"{old_reads} reads of the {len(step1_only)} step-1-only training "
        f"images during step 2 (tracker enforced on every run)",
    )


def test_criterion_9_determinism_and_resume(grid):
    root, data = grid["root"], grid["data"]
    first = root / "full-s1"
    again = root / "full-s1-again"
    resumed = root / "full-s1-resumed"
    # redoing step 2 from the step-1 checkpoint alone, in a directory that
    # holds nothing else, must land on the same bytes
    resumed.mkdir()
    shutil.copy(first / "step1.ckpt", resumed / "latest.ckpt")
    run_grid([
        train_argv(data, again, "full", 1),
        train_argv(data, resumed, "full", 1, "--resume"),
    ])
    identical = all(
        (first / name).read_bytes() == (again / name).read_bytes()
        for name in (
            "step1.ckpt", "step2.ckpt", "latest.ckpt", "losses.csv",
            "summary.txt",
        )
    )
    resumed_ok = all(
        (resumed / name).read_bytes() == (first / name).read_bytes()
        for name in (
            "step2.ckpt", "losses.csv", "summary.txt",
        )
    )
    ok = identical and resumed_ok
    report(
        "criterion 9",
        ok,
        f"repeat run bit-identical: {identical}; resume from the step-1 "
        f"checkpoint bit-identical: {resumed_ok}",
    )


def test_criterion_10_metric_examples():
    cm = ConfusionMatrix(2)
    cm.matrix[1, 1] = 6
    cm.matrix[1, 0] = 3
    cm.matrix[0, 1] = 3
    iou_ok = cm.iou(1) == 0.5

    entropy_ok = normalized_entropy([0.5, 0.5, 0.0, 0.0]) == 0.5

    uniform = normalized_entropy([5, 5, 5, 5]) == 1.0
    onehot = normalized_entropy([7, 0, 0, 0]) == 0.0

    ok = iou_ok and entropy_ok and uniform and onehot
    report(
        "criterion 10",
        ok,
        f"IoU 6/(6+3+3) == 0.5: {iou_ok}; entropy of (.5,.5,0,0) == 0.5: "
        f"{entropy_ok}; entropy endpoints 1.0/0.0: {uniform}/{onehot}",
    )
