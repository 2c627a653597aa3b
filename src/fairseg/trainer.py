"""Continual training loop: per-step SGD, pseudo-labeling, bookkeeping.

The protocol: step 1 trains background + initial classes from scratch;
every later step grows the classifier head, freezes the prototypes of the
classes learned so far, resets the feature banks, and trains only on
images selected for the new classes.  A tracking wrapper around the
training set enforces that no sample outside the current step's selection
is ever read (the rehearsal-free guarantee).

Everything is deterministic given (config, dataset): per-epoch shuffles
come from streams derived by label from the run seed, so a run resumed
from a checkpoint at an epoch boundary continues bit-identically.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, fields, replace
from typing import List, NamedTuple, Tuple

import numpy as np

from .errors import ConfigError, FormatError, ProtocolError
from .losses import (
    ConsConfig,
    LossWeights,
    class_weights,
    cluster_loss,
    cons_loss,
    distill_loss,
    weighted_ce,
)
from .fileio import atomic_open
from .metrics import evaluate_model, write_summary
from .model import (
    LOG_FIELDS,
    TrainState,
    backward_batch,
    forward_batch,
    forward_patches,
    grow_head,
    init_params,
    load_checkpoint,
    patch_matrix,
    save_checkpoint,
    stack_images,
)
from .numerics import Rng
from .prototypes import (
    ClusterConfig,
    FeatureBank,
    PrototypeBank,
    pseudo_label_map,
    update_prototypes,
)
from .synthdata import (
    IGNORE_ID,
    TaskSplit,
    class_pixel_counts,
    collapse_labels,
    select_step_indices,
)


class LossTerms(NamedTuple):
    """The loss parts a preset turns on; cross-entropy is always on."""

    cluster: bool = False
    class_weighting: bool = False
    cons: bool = False
    distill: bool = False


# The loss set of each ``[train] preset`` name (``fairseg train --ablation``).
ABLATIONS = {
    "fine-tune": LossTerms(),
    "distill": LossTerms(distill=True),
    "cluster": LossTerms(cluster=True),
    "cluster-class": LossTerms(cluster=True, class_weighting=True),
    "full": LossTerms(cluster=True, class_weighting=True, cons=True),
}

# metadata of the TrainConfig fields read from [model]; the rest are [train]
MODEL_KEY = {"section": "model"}


@dataclass
class TrainConfig:
    """A run's [split], [model] and [train] settings and its loss sections."""

    split: TaskSplit
    patch_size: int = field(default=5, metadata=MODEL_KEY)
    feature_dim: int = field(default=16, metadata=MODEL_KEY)
    hidden: Tuple[int, ...] = field(default=(64, 32), metadata=MODEL_KEY)
    epochs: int = 10
    batch_size: int = 6
    lr_initial: float = 0.05
    lr_continual: float = 0.005
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 1
    preset: str = "full"
    weights: LossWeights = field(default_factory=LossWeights)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    cons: ConsConfig = field(default_factory=ConsConfig)

    def validate(self):
        self.split.validate()
        if self.patch_size < 1 or self.patch_size % 2 == 0:
            raise ConfigError(
                f"patch_size must be odd and positive, got {self.patch_size}"
            )
        if self.feature_dim < 1 or any(h < 1 for h in self.hidden):
            raise ConfigError("feature_dim and hidden widths must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr_initial <= 0 or self.lr_continual <= 0:
            raise ConfigError("learning rates must be > 0")
        if not 0.0 <= self.sgd_momentum < 1.0:
            raise ConfigError("sgd_momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.preset not in ABLATIONS:
            raise ConfigError(
                f"[train] preset must be one of {', '.join(ABLATIONS)}, "
                f"got {self.preset!r}"
            )
        self.weights.validate()
        self.cluster.validate()
        self.cons.validate()
        return self

    def ablation(self, preset):
        """This config with another ABLATIONS preset."""
        return replace(self, preset=preset).validate()


class TrackedDataset:
    """Access-counting wrapper over the training samples.

    ``begin_step`` installs the set of indices the current step may read;
    any fetch outside it raises ProtocolError (the rehearsal-free
    guarantee).  The full read log is kept for auditing.
    """

    def __init__(self, samples):
        self._samples = list(samples)
        self.reads = []  # (step, index) in access order
        self._step = None
        self._allowed = frozenset()

    def begin_step(self, step, allowed_indices):
        self._step = int(step)
        self._allowed = frozenset(int(i) for i in allowed_indices)

    def fetch(self, index):
        if self._step is None:
            raise ProtocolError("fetch before begin_step")
        self.reads.append((self._step, int(index)))
        if index not in self._allowed:
            raise ProtocolError(
                f"step {self._step} read training sample {index} outside "
                "its selection (rehearsal-free violation)"
            )
        return self._samples[index]


def build_effective_labels(labels, features, protos, step):
    """Merge ground truth with pseudo-labels for collapsed label maps.

    Returns the effective ids.  At step 1 those are the labels as-is.
    Later, foreground pixels keep their label while background pixels
    receive the nearest-prototype pseudo-label (possibly 0 = unknown), or
    ``IGNORE_ID`` if no prototype is initialized yet.  Pseudo-labels feed
    cross-entropy as well as clustering: without them the desk-scale model
    has no supervision on background pixels after step 1, and the new-class
    head rows take over every pixel.
    """
    y = np.asarray(labels)
    eff = y.astype(np.int64)
    bg = y == 0
    if step > 1 and bg.any():
        if protos.initialized.any():
            eff[bg] = pseudo_label_map(protos, np.asarray(features)[bg])
        else:
            eff[bg] = IGNORE_ID
    return eff


def sgd_update(params, momentum, grads, lr, mu, weight_decay):
    """In-place SGD with momentum and decoupled-from-nothing weight decay.

    v <- mu*v - lr*(g + wd*theta); theta <- theta + v.
    """
    for name in sorted(grads):
        g = grads[name]
        theta = params.blocks[name]
        v = momentum[name]
        v *= mu
        v -= lr * (g + weight_decay * theta)
        theta += v


@dataclass
class StepOutcome:
    step: int
    loss_trace: List[dict]  # the state.log rows this call trained, one per epoch
    iterations: int
    counters: dict


def init_state(cfg):
    initial = sorted(cfg.split.classes_at(1))
    params = init_params(
        cfg.seed,
        initial,
        patch_size=cfg.patch_size,
        feature_dim=cfg.feature_dim,
        hidden=cfg.hidden,
    )
    momentum = {n: np.zeros_like(a) for n, a in params.blocks.items()}
    protos = PrototypeBank(cfg.feature_dim, params.num_rows)
    bank = FeatureBank(cfg.feature_dim, cfg.cluster.bank_capacity)
    return TrainState(params=params, momentum=momentum, protos=protos, bank=bank,
                      preset=cfg.preset)


def enter_step(state, cfg):
    """Enter step state.step + 1: grow head, freeze old prototypes, reset banks."""
    step = state.step + 1
    if ABLATIONS[cfg.preset].distill:
        state.distill_params = state.params.copy()
    rng = Rng(cfg.seed).split(f"grow/step{step}")
    new_classes = sorted(cfg.split.classes_at(step))
    state.params = grow_head(state.params, new_classes, rng)
    for name, arr in state.params.blocks.items():
        old = state.momentum[name]
        if old.shape != arr.shape:  # the head's new rows start at rest
            state.momentum[name] = np.zeros_like(arr)
            state.momentum[name][: len(old)] = old
    # rows 1.. are the classes known through the last step; row 0 stays live
    state.protos.frozen[1:] = state.protos.initialized[1:]
    state.protos.grow(state.params.num_rows)
    state.bank.reset()


def _deposit(bank, features, eff, current, cap):
    """Feed per-class feature queues from a batch's (B, H, W) pixels.

    Current classes deposit from their labelled pixels; the unknown
    cluster 0 takes true background at step 1 and pseudo-unknown pixels
    later.  Frozen classes receive nothing.  At most ``cap`` pixels per
    class per image, first in row-major order, images in batch order.
    """
    flat = features.reshape(-1, features.shape[-1])
    eff = eff.reshape(eff.shape[0], -1)
    for cid in current + [0]:
        mask = eff == cid
        first = mask & (np.cumsum(mask, axis=1) <= cap)
        bank.deposit_many(cid, flat[first.reshape(-1)])


def _scaled(slot, name, weight, bsz):
    """A loss's gradient as (pixels, channels), scaled in place: x weight,
    then / batch size."""
    grad = slot.grads[name]
    grad *= weight
    grad /= bsz
    return grad.reshape(-1, grad.shape[-1])


def run_step(state, cfg, data, on_epoch_end=None):
    """Train step state.step over its image subset.

    ``data`` is the step's list of SegSamples with collapsed labels, all
    of one image size (a batch of mixed sizes raises DimensionError, and a
    label with no head row LabelError, when it is reached).  When the
    preset distills, the frozen previous-step model first forwards the
    step's images once, ``batch_size`` at a time, and its features are the
    distillation targets of every epoch; a resumed step computes them
    again.  Each iteration stacks its batch and calls every loss once on
    it.  When no cluster, consistency or distillation term is on, only CE
    reads the batch, and an iteration with unsupervised pixels forwards and
    backpropagates only the supervised ones: the rest have weight 0, so the
    loss and gradient are the same.  It starts at state.epoch, the step's
    rows in ``state.log``: each epoch appends one row of per-epoch mean
    loss terms there, then calls ``on_epoch_end(state)``; the StepOutcome's
    trace is the rows this call appended.  A row's iteration is the
    step-local count after its epoch, the one the prototype refresh
    schedule counts.
    """
    step = state.step
    if not data:
        raise ProtocolError(f"step {step} has no training images")
    current = sorted(cfg.split.classes_at(step))
    lr = cfg.lr_initial if step == 1 else cfg.lr_continual
    params = state.params
    n = len(data)
    per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    terms = ABLATIONS[cfg.preset]
    # these terms read every pixel; CE alone reads only the supervised ones
    every_pixel = terms.cluster or terms.cons or terms.distill
    counters = {"cluster_skipped_pixels": 0}
    first_row = len(state.log)
    row_weights = None
    if terms.class_weighting:
        # the step's classes, and background at step 1; other rows keep 1
        ids = current if step > 1 else [0] + current
        counts = class_pixel_counts(data, max(current))[ids]
        row_weights = np.ones(params.num_rows)
        row_weights[ids] = class_weights(
            counts, cfg.weights.smoothing, cfg.weights.clamp_min,
            cfg.weights.clamp_max,
        )
    teacher = None  # the previous-step model's (n, H, W, D) features, indexed like data
    if terms.distill and state.distill_params is not None:
        # in training-batch chunks, so that one chunk's cache is live at a time
        step_images = stack_images([s.image for s in data])
        chunks = [step_images[i : i + cfg.batch_size] for i in range(0, n, cfg.batch_size)]
        teacher = np.concatenate(
            [forward_batch(state.distill_params, c)[1].feats for c in chunks]
        ).reshape(*step_images.shape[:3], -1)
    for epoch in range(state.epoch, cfg.epochs):
        order = list(range(n))
        Rng(cfg.seed).split(f"step{step}/epoch{epoch}/order").shuffle(order)
        sums = {"ce": 0.0, "cluster": 0.0, "cons": 0.0, "distill": 0.0}
        for b in range(per_epoch):
            picked = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            images = stack_images([data[i].image for i in picked])
            labels = np.stack([data[i].labels for i in picked])
            grid = labels.shape  # (B, H, W)
            bsz = grid[0]
            eff = read = None  # read: the pixel rows forwarded, if not all
            if not every_pixel:  # no prototype is initialized: no features needed
                eff = build_effective_labels(labels, None, state.protos, step)
                supervised = eff.reshape(-1) != IGNORE_ID
                if not supervised.all():
                    read = np.flatnonzero(supervised)
            if read is None:
                _, cache = forward_batch(params, images)
                logits = cache.logits
            else:  # an unread row's logits are 0, and CE weighs it 0
                x = patch_matrix(images.astype(params.dtype, copy=False),
                                 params.patch_size)
                cache = forward_patches(params, x[read])
                logits = np.zeros((eff.size, cache.logits.shape[1]), params.dtype)
                logits[read] = cache.logits
            feats = cache.feats.reshape(*grid, -1) if read is None else None
            if eff is None:
                eff = build_effective_labels(labels, feats, state.protos, step)
            # CE's gradient array is dlogits; each other term's gradient is
            # scaled in place (x lambda, then / batch) and added
            ce = weighted_ce(logits.reshape(*grid, -1), eff, row_weights)
            sums["ce"] += ce.value / bsz
            dlogits = ce.grads["logits"].reshape(logits.shape)
            if read is not None:
                dlogits = dlogits[read]
            dlogits /= bsz
            dfeats = None
            if terms.cluster:
                # live pixels whose class has no prototype yet: no attraction
                counters["cluster_skipped_pixels"] += int(np.count_nonzero(
                    ~state.protos.initialized[eff[eff != IGNORE_ID]]
                ))
                cl = cluster_loss(feats, eff, state.protos, cfg.cluster)
                sums["cluster"] += cl.value / bsz
                dfeats = _scaled(cl, "features", cfg.weights.lambda_cluster, bsz)
            if terms.cons:  # on the probabilities CE computed
                co = cons_loss(images, ce.probs, cfg.cons)
                sums["cons"] += co.value / bsz
                dlogits += _scaled(co, "logits", cfg.weights.lambda_cons, bsz)
            if teacher is not None:
                di = distill_loss(feats, teacher[picked])
                sums["distill"] += di.value / bsz
                g = _scaled(di, "features", cfg.weights.lambda_distill, bsz)
                dfeats = g if dfeats is None else dfeats + g
            if terms.cluster:
                _deposit(state.bank, feats, eff, current, cfg.cluster.deposit_per_class)
            grads = backward_batch(params, cache, dfeats, dlogits)
            sgd_update(
                params, state.momentum, grads, lr, cfg.sgd_momentum,
                cfg.weight_decay,
            )
            if terms.cluster:
                # The update schedule counts iterations within the current
                # step (banks are reset at step entry), so a fresh step warms
                # up for a full period before its first prototype refresh.
                update_prototypes(
                    state.protos, state.bank, cfg.cluster,
                    epoch * per_epoch + b + 1,
                )
        row = {"step": step, "epoch": epoch, "iteration": (epoch + 1) * per_epoch,
               "lr": lr}
        row.update((k, v / per_epoch) for k, v in sums.items())
        row["total"] = (
            row["ce"]
            + cfg.weights.lambda_cluster * row["cluster"]
            + cfg.weights.lambda_cons * row["cons"]
            + cfg.weights.lambda_distill * row["distill"]
        )
        for key in ("ce", "cluster", "cons", "distill", "total"):
            if not np.isfinite(row[key]):
                raise ProtocolError(
                    f"non-finite {key} loss at step {step} epoch {epoch}"
                )
        state.log.append(row)
        if on_epoch_end is not None:
            on_epoch_end(state)
    loss_trace = state.log[first_row:]
    return StepOutcome(
        step=step,
        loss_trace=loss_trace,
        iterations=len(loss_trace) * per_epoch,
        counters=counters,
    )


@dataclass
class RunResult:
    outcomes: List[StepOutcome]
    state: TrainState
    reports: list
    tracker: TrackedDataset


def write_loss_log(path, rows):
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})


def run_continual(cfg, samples, out_dir, test_samples=None,
                  resume_from=None, resolved_config=None):
    """Run every step of the split in sequence; the only writer of ``out_dir``.

    Writes the ``resolved_config`` text (if any) to ``out_dir``'s
    config.resolved.ini once every resume check has passed, then per-step
    checkpoints (step<t>.ckpt), a rolling latest.ckpt after every epoch,
    and a loss CSV.  When ``test_samples`` is given, evaluates
    after each step and writes summary_step<t>.txt at once, then
    summary.txt after the last step.  ``resume_from`` restarts from a
    checkpoint at its epoch boundary (its model's step, after that step's
    loss-log rows) and continues bit-identically: each step from the
    checkpoint's on trains the epochs it has left, then takes the same
    step end as a fresh run.  The checkpoint is the whole resume point: it
    holds the loss-log rows and the earlier steps' mIoU(all), and no file
    of ``out_dir`` is read.  A checkpoint whose [model] keys, split steps
    through its step, bank capacity or preset differ from ``cfg`` raises
    ConfigError, and one that lacks an earlier step's mIoU(all) when
    ``test_samples`` is given FormatError.
    The CSV is rewritten before each latest.ckpt, so the two always agree.
    """
    cfg.validate()
    split = cfg.split
    n_steps = split.num_steps
    allowed = {
        t: select_step_indices(samples, split, t)
        for t in range(1, n_steps + 1)
    }
    tracker = TrackedDataset(samples)
    if resume_from is None:
        state = init_state(cfg)
    else:
        state = load_checkpoint(resume_from)
        # what the checkpoint fixes: the model, the split through its step,
        # its bank's capacity, its loss set
        kept = [
            (f"[model] {f.name}", getattr(state.params, f.name), getattr(cfg, f.name))
            for f in fields(cfg) if f.metadata == MODEL_KEY
        ]
        kept += [
            ("[split] steps", state.params.class_steps, split.steps[:state.step]),
            ("[cluster] bank_capacity", state.bank.capacity, cfg.cluster.bank_capacity),
            ("[train] preset", state.preset, cfg.preset),
        ]
        differ = [f"{key} (checkpoint {saved}, config {wanted})"
                  for key, saved, wanted in kept if saved != wanted]
        if differ:
            raise ConfigError(
                f"{resume_from}: checkpoint differs from the config in "
                + ", ".join(differ)
            )
        if test_samples is not None and len(state.mious) < state.step - 1:
            raise FormatError(
                f"{resume_from}: a resume with a test set needs the mIoU(all) "
                f"of steps 1-{state.step - 1}, but the checkpoint holds "
                f"{len(state.mious)}, as after training without a test set"
            )
    outcomes = []
    reports = []
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "losses.csv")
    if resolved_config is not None:
        with atomic_open(os.path.join(out_dir, "config.resolved.ini"), "w",
                         encoding="utf-8") as fh:
            fh.write(resolved_config)

    def save_latest(st):
        write_loss_log(log_path, st.log)
        save_checkpoint(os.path.join(out_dir, "latest.ckpt"), st)

    for t in range(state.step, n_steps + 1):
        if t > state.step:
            enter_step(state, cfg)
            save_latest(state)
        if state.epoch < cfg.epochs:
            tracker.begin_step(t, allowed[t])
            data = [collapse_labels(tracker.fetch(i), split, t) for i in allowed[t]]
            outcomes.append(run_step(state, cfg, data, on_epoch_end=save_latest))
        save_checkpoint(os.path.join(out_dir, f"step{t}.ckpt"), state)
        if test_samples is not None:
            report, _ = evaluate_model(state.params, test_samples, split, t)
            state.mious.append(report.miou_all)
            if t == n_steps:
                report.miou_avg = float(np.mean(state.mious))
            reports.append(report)
            write_summary(os.path.join(out_dir, f"summary_step{t}.txt"), report)
    write_loss_log(log_path, state.log)
    if reports:
        write_summary(os.path.join(out_dir, "summary.txt"), reports[-1])
    return RunResult(
        outcomes=outcomes,
        state=state,
        reports=reports,
        tracker=tracker,
    )
