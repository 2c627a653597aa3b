"""Per-pixel segmentation network and checkpoint persistence.

The model is a patch MLP: each pixel's k x k x 3 neighborhood (reflect
padded) is flattened and pushed through ReLU hidden layers, a linear map to
a D-dimensional feature, and a growing linear head (row 0 = background).
Forward and backward are exact analytic numpy; there is no autodiff graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DimensionError, FormatError
from .fileio import atomic_open, read_exact
from .numerics import RNG_ALGORITHM_ID, Rng
from .prototypes import FeatureBank, PrototypeBank, ProtoEntry

CHECKPOINT_MAGIC = b"FCLK"
CHECKPOINT_VERSION = 3


@dataclass
class ModelParams:
    patch_size: int
    feature_dim: int
    hidden: Tuple[int, ...]
    blocks: dict  # name -> float64 array
    class_steps: Tuple[Tuple[int, ...], ...]  # registered class ids per step

    @property
    def num_rows(self):
        return self.blocks["head.W"].shape[0]

    @property
    def known_classes(self):
        out = []
        for step in self.class_steps:
            out.extend(step)
        return tuple(out)

    def row_map(self):
        rows = {0: 0}
        for i, cid in enumerate(self.known_classes):
            rows[cid] = 1 + i
        return rows

    def class_of_row(self, row):
        if row == 0:
            return 0
        return self.known_classes[row - 1]

    def copy(self):
        return ModelParams(
            patch_size=self.patch_size,
            feature_dim=self.feature_dim,
            hidden=self.hidden,
            blocks={k: v.copy() for k, v in self.blocks.items()},
            class_steps=self.class_steps,
        )


@dataclass
class Prediction:
    features: np.ndarray  # (H, W, D)
    logits: np.ndarray  # (H, W, K)


def _glorot(rng, shape):
    fan_out, fan_in = shape
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniforms(fan_out * fan_in).reshape(shape)
    return (2.0 * u - 1.0) * bound


def init_params(seed, initial_classes, patch_size, feature_dim, hidden):
    """Glorot-uniform initialization; head gets 1 + len(initial_classes) rows.

    The sizes are those of a validated ``TrainConfig``.
    """
    root = Rng(seed)
    blocks = {}
    in_dim = patch_size * patch_size * 3
    for i, width in enumerate(hidden):
        blocks[f"enc{i}.W"] = _glorot(root.split(f"init/enc{i}.W"), (width, in_dim))
        blocks[f"enc{i}.b"] = np.zeros(width, dtype=np.float64)
        in_dim = width
    blocks["feat.W"] = _glorot(root.split("init/feat.W"), (feature_dim, in_dim))
    blocks["feat.b"] = np.zeros(feature_dim, dtype=np.float64)
    rows = 1 + len(initial_classes)
    blocks["head.W"] = _glorot(root.split("init/head.W"), (rows, feature_dim))
    blocks["head.b"] = np.zeros(rows, dtype=np.float64)
    return ModelParams(
        patch_size=patch_size,
        feature_dim=feature_dim,
        hidden=tuple(hidden),
        blocks=blocks,
        class_steps=(tuple(initial_classes),),
    )


def grow_head(params, new_classes, rng):
    """Append head rows for new classes; existing rows are untouched.

    New rows use the Glorot rule for the grown head shape, drawn from the
    caller's step-scoped generator; new biases are zero.
    """
    new_classes = tuple(new_classes)
    if len(new_classes) < 1:
        raise ConfigError("grow_head needs at least one new class")
    old_w = params.blocks["head.W"]
    old_b = params.blocks["head.b"]
    d = params.feature_dim
    rows_after = old_w.shape[0] + len(new_classes)
    bound = math.sqrt(6.0 / (d + rows_after))
    u = rng.uniforms(len(new_classes) * d).reshape(len(new_classes), d)
    new_rows = (2.0 * u - 1.0) * bound
    blocks = {k: v.copy() for k, v in params.blocks.items()}
    blocks["head.W"] = np.vstack([old_w, new_rows])
    blocks["head.b"] = np.concatenate([old_b, np.zeros(len(new_classes))])
    return ModelParams(
        patch_size=params.patch_size,
        feature_dim=params.feature_dim,
        hidden=params.hidden,
        blocks=blocks,
        class_steps=params.class_steps + (new_classes,),
    )


def patch_matrix(images, patch_size):
    """(B*H*W, k*k*3) flattened reflect-padded neighborhoods of a (B, H, W, 3)
    batch; rows are the images' pixels in order, row-major per image."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4 or images.shape[3] != 3:
        raise DimensionError(f"images must be (B, H, W, 3), got {images.shape}")
    b, h, w, _ = images.shape
    k = patch_size
    if k % 2 == 0 or k > min(h, w):
        raise ConfigError(
            f"patch size {k} must be odd and <= min(H, W) = {min(h, w)}"
        )
    r = k // 2
    padded = np.pad(images, ((0, 0), (r, r), (r, r), (0, 0)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    # (B, H, W, 3, k, k) -> (B, H, W, k, k, 3) so flattening is (dr, dc, channel)
    patches = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    return patches.reshape(b * h * w, k * k * 3)


@dataclass
class BatchCache:
    """Stacked forward outputs, one row per pixel of the batch."""

    x: np.ndarray
    act: list  # ReLU output per hidden layer; its > 0 mask is the derivative
    feats: np.ndarray
    logits: np.ndarray


def stack_images(images):
    """Equal-size images as one float64 (B, H, W, 3) array; an array that
    already is one is returned as it is.  Mixed sizes raise DimensionError."""
    sizes = {np.shape(img) for img in images}
    if len(sizes) > 1:
        raise DimensionError(f"batch images must share one size, got {sorted(sizes)}")
    return np.asarray(images, dtype=np.float64)


def forward_batch(params, images):
    """Forward equal-size images through one stacked set of matmuls.

    ``images`` is a list of images or their ``stack_images`` array.  Each
    bias and ReLU is applied in place on its matmul output.  The cache rows
    are the images' pixels in order, row-major per image.  Mixed sizes
    raise DimensionError.
    """
    batch = stack_images(images)
    x = patch_matrix(batch, params.patch_size)
    a = x
    act = []
    for i in range(len(params.hidden)):
        a = a @ params.blocks[f"enc{i}.W"].T
        a += params.blocks[f"enc{i}.b"]
        np.maximum(a, 0.0, out=a)
        act.append(a)
    feats = a @ params.blocks["feat.W"].T
    feats += params.blocks["feat.b"]
    logits = feats @ params.blocks["head.W"].T
    logits += params.blocks["head.b"]
    cache = BatchCache(x=x, act=act, feats=feats, logits=logits)
    grid = batch.shape[:3]
    views = (feats.reshape(*grid, -1), logits.reshape(*grid, -1))
    preds = [Prediction(*per_image) for per_image in zip(*views)]
    return preds, cache


def backward_batch(params, cache, dfeats, dlogits):
    """Exact parameter gradients from stacked upstream feature/logit grads."""
    if dlogits.shape != cache.logits.shape:
        raise DimensionError(
            f"upstream logits grad shape {dlogits.shape} != {cache.logits.shape}"
        )
    if dfeats.shape != cache.feats.shape:
        raise DimensionError(
            f"upstream features grad shape {dfeats.shape} != {cache.feats.shape}"
        )
    grads = {}
    grads["head.W"] = dlogits.T @ cache.feats
    grads["head.b"] = dlogits.sum(axis=0)
    df = dlogits @ params.blocks["head.W"]
    df += dfeats
    last_act = cache.act[-1] if cache.act else cache.x
    grads["feat.W"] = df.T @ last_act
    grads["feat.b"] = df.sum(axis=0)
    dz = df @ params.blocks["feat.W"]
    for i in range(len(params.hidden) - 1, -1, -1):
        dz *= cache.act[i] > 0  # act > 0 exactly where pre-activation > 0
        below = cache.act[i - 1] if i > 0 else cache.x
        grads[f"enc{i}.W"] = dz.T @ below
        grads[f"enc{i}.b"] = dz.sum(axis=0)
        if i > 0:
            dz = dz @ params.blocks[f"enc{i}.W"]
    return grads


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    """Everything needed to resume a continual run at an epoch boundary.

    It is also the checkpoint: ``save_checkpoint`` writes it whole and
    ``load_checkpoint`` returns it.
    """

    params: ModelParams
    momentum: dict  # block name -> velocity array
    protos: PrototypeBank
    bank: FeatureBank
    preset: str  # the [train] preset, i.e. the loss set it trains
    step: int = 1
    epoch: int = 0  # completed epochs within the current step
    iteration: int = 0  # step-local iteration counter (Algorithm-style)
    distill_params: Optional[ModelParams] = None  # frozen previous-step model


def _write_block(fh, name, arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    name_b = name.encode("utf-8")
    fh.write(len(name_b).to_bytes(2, "little"))
    fh.write(name_b)
    fh.write(arr.ndim.to_bytes(1, "little"))
    for dim in arr.shape:
        fh.write(int(dim).to_bytes(4, "little"))
    fh.write(arr.astype("<f8").tobytes())


def _blocks_from_state(state):
    blocks = {}
    p = state.params
    blocks["model/shape"] = np.array(
        [p.patch_size, p.feature_dim, len(p.hidden), *p.hidden], dtype=np.float64
    )
    for name in sorted(p.blocks):
        blocks[f"params/{name}"] = p.blocks[name]
    for name in sorted(state.momentum):
        blocks[f"momentum/{name}"] = state.momentum[name]
    if state.distill_params is not None:
        distill = state.distill_params.blocks
        for name in sorted(distill):
            blocks[f"distill/{name}"] = distill[name]
    proto_ids = sorted(state.protos.entries)
    blocks["proto/ids"] = np.array(proto_ids, dtype=np.float64)
    blocks["proto/frozen"] = np.array(
        [1.0 if state.protos.entries[c].frozen else 0.0 for c in proto_ids]
    )
    blocks["proto/initialized"] = np.array(
        [1.0 if state.protos.entries[c].initialized else 0.0 for c in proto_ids]
    )
    for cid in proto_ids:
        blocks[f"proto/vec/{cid}"] = state.protos.entries[cid].vector
    bank_ids = sorted(state.bank.queues)
    blocks["bank/ids"] = np.array(bank_ids, dtype=np.float64)
    for cid in bank_ids:
        blocks[f"bank/queue/{cid}"] = state.bank.queues[cid]
    blocks["trainer/progress"] = np.array(
        [float(state.epoch), float(state.iteration), float(state.bank.capacity)]
    )
    return blocks


def save_checkpoint(path, state):
    """Serialize a TrainState; block order is canonical, so bytes are stable.

    The file is replaced only once fully written (see ``atomic_open``).
    """
    with atomic_open(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(CHECKPOINT_VERSION.to_bytes(2, "little"))
        algo = RNG_ALGORITHM_ID.encode("utf-8")
        preset = state.preset.encode("utf-8")
        for text in (algo, preset):
            fh.write(len(text).to_bytes(1, "little"))
            fh.write(text)
        fh.write(int(state.step).to_bytes(4, "little"))
        fh.write(len(state.params.class_steps).to_bytes(4, "little"))
        for step_classes in state.params.class_steps:
            fh.write(len(step_classes).to_bytes(4, "little"))
            for cid in step_classes:
                fh.write(int(cid).to_bytes(4, "little"))
        for name, arr in _blocks_from_state(state).items():
            _write_block(fh, name, arr)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(
                f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC.decode()!r}",
                offset=0,
            )
        version = int.from_bytes(read_exact(fh, 2, "version"), "little")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        algo_len = read_exact(fh, 1, "algorithm id length")[0]
        algo = read_exact(fh, algo_len, "algorithm id").decode("utf-8")
        if algo != RNG_ALGORITHM_ID:
            raise FormatError(
                f"checkpoint written by PRNG {algo!r}, this build uses "
                f"{RNG_ALGORITHM_ID!r}"
            )
        preset_len = read_exact(fh, 1, "preset length")[0]
        preset = read_exact(fh, preset_len, "preset").decode("utf-8")
        step = int.from_bytes(read_exact(fh, 4, "step"), "little")
        n_steps = int.from_bytes(read_exact(fh, 4, "registry size"), "little")
        class_steps = []
        for _ in range(n_steps):
            n = int.from_bytes(read_exact(fh, 4, "registry entry"), "little")
            ids = tuple(
                int.from_bytes(read_exact(fh, 4, "class id"), "little")
                for _ in range(n)
            )
            class_steps.append(ids)
        blocks = {}
        while True:
            head = fh.read(2)
            if not head:
                break
            if len(head) != 2:
                raise FormatError("truncated block header", offset=fh.tell())
            name_len = int.from_bytes(head, "little")
            name = read_exact(fh, name_len, "block name").decode("utf-8")
            rank = read_exact(fh, 1, "block rank")[0]
            dims = tuple(
                int.from_bytes(read_exact(fh, 4, "block dim"), "little")
                for _ in range(rank)
            )
            size = 1
            for d in dims:
                size *= d
            payload = read_exact(fh, size * 8, f"block '{name}' payload")
            blocks[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    return _state_from_blocks(step, preset, tuple(class_steps), blocks)


def _state_from_blocks(step, preset, class_steps, blocks):
    try:
        shape = blocks["model/shape"]
        patch_size = int(shape[0])
        feature_dim = int(shape[1])
        n_hidden = int(shape[2])
        hidden = tuple(int(v) for v in shape[3 : 3 + n_hidden])
        param_blocks = {
            name[len("params/"):]: arr
            for name, arr in blocks.items()
            if name.startswith("params/")
        }
        params = ModelParams(
            patch_size=patch_size,
            feature_dim=feature_dim,
            hidden=hidden,
            blocks=param_blocks,
            class_steps=class_steps,
        )
        momentum = {
            name[len("momentum/"):]: arr
            for name, arr in blocks.items()
            if name.startswith("momentum/")
        }
        distill = {
            name[len("distill/"):]: arr
            for name, arr in blocks.items()
            if name.startswith("distill/")
        }
        protos = PrototypeBank(feature_dim)
        proto_ids = [int(v) for v in blocks["proto/ids"]]
        frozen = blocks["proto/frozen"]
        initialized = blocks["proto/initialized"]
        for i, cid in enumerate(proto_ids):
            protos.entries[cid] = ProtoEntry(
                vector=blocks[f"proto/vec/{cid}"],
                frozen=bool(frozen[i]),
                initialized=bool(initialized[i]),
            )
        progress = blocks["trainer/progress"]
        epoch = int(progress[0])
        iteration = int(progress[1])
        capacity = int(progress[2])
        bank = FeatureBank(feature_dim, capacity)
        for cid in (int(v) for v in blocks["bank/ids"]):
            bank.deposit_many(cid, blocks[f"bank/queue/{cid}"])
    except KeyError as exc:
        raise FormatError(f"checkpoint missing block {exc}") from exc
    for name, arr in params.blocks.items():
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"parameter block {name} has non-finite values")
    distill_params = None
    if distill:
        distill_params = ModelParams(
            patch_size=patch_size,
            feature_dim=feature_dim,
            hidden=hidden,
            blocks=distill,
            class_steps=class_steps[:-1],
        )
    return TrainState(
        params=params,
        momentum=momentum,
        protos=protos,
        bank=bank,
        step=step,
        epoch=epoch,
        iteration=iteration,
        preset=preset,
        distill_params=distill_params,
    )
