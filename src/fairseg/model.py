"""Per-pixel segmentation network and checkpoint persistence.

The model is a patch MLP: each pixel's k x k x 3 neighborhood (reflect
padded) is flattened and pushed through ReLU hidden layers, a linear map to
a D-dimensional feature, and a growing linear head whose row c predicts
class c (row 0 = background).
Forward and backward are exact analytic numpy; there is no autodiff graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, StateError
from .fileio import read_arrays, write_arrays
from .numerics import RNG_ALGORITHM_ID, Rng
from .prototypes import FeatureBank, PrototypeBank
from .synthdata import TaskSplit

CHECKPOINT_MAGIC = b"FCLK"
CHECKPOINT_VERSION = 8

# the loss log's columns, one row per epoch: three ints, then floats
LOG_FIELDS = ("step", "epoch", "iteration", "lr", "ce", "cluster", "cons", "distill",
              "total")


@dataclass
class ModelParams:
    patch_size: int
    feature_dim: int
    hidden: Tuple[int, ...]
    blocks: dict  # name -> float32 array; the model computes in its dtype
    class_steps: Tuple[Tuple[int, ...], ...]  # class ids per step; row c is class c

    @property
    def num_rows(self):
        return self.blocks["head.W"].shape[0]

    @property
    def dtype(self):
        return self.blocks["head.W"].dtype

    def copy(self):
        return ModelParams(
            patch_size=self.patch_size,
            feature_dim=self.feature_dim,
            hidden=self.hidden,
            blocks={k: v.copy() for k, v in self.blocks.items()},
            class_steps=self.class_steps,
        )


def _glorot(rng, shape):
    fan_out, fan_in = shape
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniforms(fan_out * fan_in).reshape(shape)
    return ((2.0 * u - 1.0) * bound).astype(np.float32)


def block_shapes(patch_size, feature_dim, hidden, class_steps):
    """Each model block's name and shape; the head has a row for background
    and for every class of ``class_steps``."""
    shapes = {}
    in_dim = patch_size * patch_size * 3
    for i, width in enumerate(hidden):
        shapes[f"enc{i}.W"] = (width, in_dim)
        shapes[f"enc{i}.b"] = (width,)
        in_dim = width
    rows = 1 + sum(len(ids) for ids in class_steps)
    shapes.update({"feat.W": (feature_dim, in_dim), "feat.b": (feature_dim,),
                   "head.W": (rows, feature_dim), "head.b": (rows,)})
    return shapes


def init_params(seed, initial_classes, patch_size, feature_dim, hidden):
    """Glorot-uniform float32 weights, each from its own stream, and zero
    biases; head gets 1 + len(initial_classes) rows.

    The sizes are those of a validated ``TrainConfig``.
    """
    root = Rng(seed)
    class_steps = (tuple(initial_classes),)
    blocks = {
        name: _glorot(root.split(f"init/{name}"), shape) if name.endswith(".W")
        else np.zeros(shape, dtype=np.float32)
        for name, shape in block_shapes(patch_size, feature_dim, hidden,
                                        class_steps).items()
    }
    return ModelParams(
        patch_size=patch_size,
        feature_dim=feature_dim,
        hidden=tuple(hidden),
        blocks=blocks,
        class_steps=class_steps,
    )


def grow_head(params, new_classes, rng):
    """Append head rows for new classes; existing rows are untouched.

    New rows use the Glorot rule for the grown head shape, drawn from the
    caller's step-scoped generator; new biases are zero.  The new rows take
    the old blocks' dtype, so growth never promotes the head.
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
    new_rows = ((2.0 * u - 1.0) * bound).astype(old_w.dtype)
    blocks = {k: v.copy() for k, v in params.blocks.items()}
    blocks["head.W"] = np.vstack([old_w, new_rows])
    blocks["head.b"] = np.concatenate([old_b, np.zeros(len(new_classes), old_b.dtype)])
    return ModelParams(
        patch_size=params.patch_size,
        feature_dim=params.feature_dim,
        hidden=params.hidden,
        blocks=blocks,
        class_steps=params.class_steps + (new_classes,),
    )


def patch_matrix(images, patch_size):
    """(B*H*W, k*k*3) flattened reflect-padded neighborhoods of a (B, H, W, 3)
    batch in its dtype; rows are the images' pixels in order, row-major per
    image."""
    images = np.asarray(images)
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
    """Stacked forward outputs, one row per patch-matrix row forwarded."""

    x: np.ndarray
    act: list  # ReLU output per hidden layer; its > 0 mask is the derivative
    feats: np.ndarray
    logits: np.ndarray


def stack_images(images):
    """Equal-size images as one float32 (B, H, W, 3) array; a float32 array
    is returned as it is.  Mixed sizes raise DimensionError."""
    sizes = {np.shape(img) for img in images}
    if len(sizes) > 1:
        raise DimensionError(f"batch images must share one size, got {sorted(sizes)}")
    return np.asarray(images, dtype=np.float32)


def forward_batch(params, images):
    """Forward equal-size images: ``forward_patches`` on their whole patch
    matrix.

    ``images`` is a list of images or their ``stack_images`` array.  The
    patch matrix, activations, features and logits take the parameters'
    dtype.  The cache rows are the images' pixels in order, row-major per
    image.
    Returns the (B, H, W, K) logits grid, a view of the cache's logits, and
    the BatchCache.  Mixed sizes raise DimensionError.
    """
    batch = stack_images(images)
    x = patch_matrix(batch.astype(params.dtype, copy=False), params.patch_size)
    cache = forward_patches(params, x)
    return cache.logits.reshape(*batch.shape[:3], -1), cache


def forward_patches(params, x):
    """The BatchCache of any rows ``x`` of a ``patch_matrix`` in the
    parameters' dtype: one stacked set of matmuls, each bias and ReLU
    applied in place on its matmul output.  A row's outputs depend on that
    row alone, up to the rounding of the matmuls' blocking."""
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
    return BatchCache(x=x, act=act, feats=feats, logits=logits)


def _column_sums(x):
    """``x.sum(axis=0)``, the same bytes.  For two or more columns NumPy adds
    the rows in order, as einsum does 3-4x faster; one column it adds
    pairwise, which einsum does not."""
    return np.einsum("ij->j", x) if x.shape[1] > 1 else x.sum(axis=0)


def backward_batch(params, cache, dfeats, dlogits):
    """Exact parameter gradients from stacked upstream feature/logit grads,
    which are cast to the parameters' dtype first (the losses give it for
    the model's outputs, so the cast copies nothing); ``dfeats`` is None
    when no loss acts on the features."""
    if dlogits.shape != cache.logits.shape:
        raise DimensionError(
            f"upstream logits grad shape {dlogits.shape} != {cache.logits.shape}"
        )
    if dfeats is not None and dfeats.shape != cache.feats.shape:
        raise DimensionError(
            f"upstream features grad shape {dfeats.shape} != {cache.feats.shape}"
        )
    dlogits = np.asarray(dlogits, dtype=params.dtype)
    grads = {}
    grads["head.W"] = dlogits.T @ cache.feats
    grads["head.b"] = _column_sums(dlogits)
    df = dlogits @ params.blocks["head.W"]
    if dfeats is not None:
        df += np.asarray(dfeats, dtype=params.dtype)
    last_act = cache.act[-1] if cache.act else cache.x
    grads["feat.W"] = df.T @ last_act
    grads["feat.b"] = _column_sums(df)
    dz = df @ params.blocks["feat.W"]
    for i in range(len(params.hidden) - 1, -1, -1):
        dz *= cache.act[i] > 0  # act > 0 exactly where pre-activation > 0
        below = cache.act[i - 1] if i > 0 else cache.x
        grads[f"enc{i}.W"] = dz.T @ below
        grads[f"enc{i}.b"] = _column_sums(dz)
        if i > 0:
            dz = dz @ params.blocks[f"enc{i}.W"]
    return grads


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    """Everything needed to resume a continual run at an epoch boundary.

    It is also the checkpoint and the one resume point: ``save_checkpoint``
    writes it whole, the run's loss log and earlier mIoUs included, and
    ``load_checkpoint`` returns it.  Its step and epoch are derived.
    """

    params: ModelParams
    momentum: dict  # block name -> velocity array
    protos: PrototypeBank
    bank: FeatureBank
    preset: str  # the [train] preset, i.e. the loss set it trains
    distill_params: Optional[ModelParams] = None  # frozen previous-step model
    log: list = field(default_factory=list)  # the loss-log rows so far
    mious: list = field(default_factory=list)  # mIoU(all) of each evaluated earlier step

    @property
    def step(self):  # one per class_steps entry; each step entry grows the head
        return len(self.params.class_steps)

    @property
    def epoch(self):  # the completed epochs of the step: its loss-log rows
        return sum(row["step"] == self.step for row in self.log)


def _arrays_of(state):
    """The checkpoint's (name, array) pairs in file order."""
    distill = state.distill_params.blocks if state.distill_params else {}
    groups = (("params", state.params.blocks), ("momentum", state.momentum),
              ("distill", distill), ("proto", dict(enumerate(state.protos.vectors))),
              ("bank", state.bank.queues))
    return [(f"{prefix}/{key}", arrays[key])
            for prefix, arrays in groups for key in sorted(arrays)]


def save_checkpoint(path, state):
    """Serialize a TrainState as a ``write_arrays`` container: a JSON header
    of the model shape, prototype flags, loss log and earlier steps'
    mIoU(all), then every array little-endian: the model, momentum and
    distill blocks as float32, the prototypes and banks as float64, so
    bytes are stable.  An array of another dtype raises StateError before
    the file is opened, so it is never rounded into the file and the
    previous file stays."""
    arrays = _arrays_of(state)
    for name, arr in arrays:
        if not np.can_cast(arr.dtype, _dtype_of(name), casting="equiv"):
            raise StateError(
                f"checkpoint array {name} is {arr.dtype}, stored as {_dtype_of(name)}"
            )
    p = state.params
    header = {
        "rng": RNG_ALGORITHM_ID,
        "preset": state.preset,
        "patch_size": p.patch_size,
        "feature_dim": p.feature_dim,
        "hidden": p.hidden,
        "class_steps": p.class_steps,
        "bank_capacity": state.bank.capacity,
        "protos": [[row, *flags] for row, flags in enumerate(zip(
            state.protos.frozen.tolist(), state.protos.initialized.tolist()))],
        "log": state.log,
        "mious": state.mious,
    }
    write_arrays(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, arrays,
                 _dtype_of)


def load_checkpoint(path):
    """The TrainState saved at ``path``; a malformed file raises FormatError."""
    return read_arrays(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint",
                       _dtype_of, _state_of)


def _dtype_of(name):
    return "<f8" if name.startswith(("proto/", "bank/")) else "<f4"


def _state_of(header, arrays):
    if header["rng"] != RNG_ALGORITHM_ID:
        raise FormatError(
            f"checkpoint written by PRNG {header['rng']!r}, this build "
            f"uses {RNG_ALGORITHM_ID!r}"
        )

    def group(prefix):
        return {name[len(prefix):]: arr for name, arr in arrays.items()
                if name.startswith(prefix)}

    # a size no model or bank can have is the file's fault, not the config's
    sizes = [(key, header[key]) for key in ("patch_size", "feature_dim", "bank_capacity")]
    for key, value in sizes + [("hidden width", width) for width in header["hidden"]]:
        odd = key == "patch_size"
        if type(value) is not int or value < 1 or odd and value % 2 == 0:
            raise FormatError(f"checkpoint {key} {value!r} is not an {'odd ' * odd}int >= 1")
    feature_dim = header["feature_dim"]
    hidden = tuple(header["hidden"])
    class_steps = tuple(tuple(ids) for ids in header["class_steps"])
    try:  # head row c predicts class c only for a split's numbering
        TaskSplit(class_steps).validate()
    except ConfigError as exc:
        raise FormatError(f"checkpoint class registry: {exc}") from exc

    def blocks_of(prefix, shapes):
        """The ``prefix`` arrays, which must be exactly ``shapes``."""
        blocks = group(prefix)
        for name in sorted(blocks.keys() | shapes.keys()):
            if name not in shapes:
                raise FormatError(f"checkpoint array {prefix}{name} is not a model block")
            found = blocks[name].shape if name in blocks else "missing"
            if found != shapes[name]:
                raise FormatError(f"checkpoint array {prefix}{name} is {found}, "
                                  f"expected shape {shapes[name]}")
        return blocks

    def model(prefix, steps):
        shapes = block_shapes(header["patch_size"], feature_dim, hidden, steps)
        return ModelParams(patch_size=header["patch_size"], feature_dim=feature_dim,
                           hidden=hidden, blocks=blocks_of(prefix, shapes),
                           class_steps=steps)

    params = model("params/", class_steps)
    for name, arr in params.blocks.items():
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"parameter block {name} has non-finite values")
    momentum = blocks_of("momentum/", {k: a.shape for k, a in params.blocks.items()})
    distill = any(name.startswith("distill/") for name in arrays)
    rows = params.num_rows
    registry = header["protos"]  # [row, frozen, initialized] per head row
    if ([[type(x) for x in entry] for entry in registry] != [[int, bool, bool]] * rows
            or [entry[0] for entry in registry] != list(range(rows))):
        raise FormatError(f"checkpoint protos is not a [row, frozen, initialized] "
                          f"entry for each head row 0 to {rows - 1} in order")
    protos = PrototypeBank(feature_dim, rows)
    _, protos.frozen[:], protos.initialized[:] = zip(*registry)
    if protos.frozen[0] or not protos.initialized[protos.frozen].all():
        raise FormatError("checkpoint protos freeze row 0, the unknown cluster, "
                          "or a row that is not initialized")
    vectors = blocks_of("proto/", {str(c): (feature_dim,) for c in range(rows)})
    protos.vectors[:] = [vectors[str(c)] for c in range(rows)]
    capacity = header["bank_capacity"]
    bank = FeatureBank(feature_dim, capacity)
    for cid, queue in group("bank/").items():
        if cid not in vectors:
            raise FormatError(f"checkpoint array bank/{cid} is not a head row's queue")
        if queue.ndim != 2 or queue.shape[1] != feature_dim or len(queue) > capacity:
            raise FormatError(f"checkpoint array bank/{cid} is {queue.shape}, "
                              f"expected shape (n <= {capacity}, {feature_dim})")
        bank.deposit_many(int(cid), queue)
    log, mious = _resume_point(header, len(class_steps))
    return TrainState(
        params=params,
        momentum=momentum,
        protos=protos,
        bank=bank,
        preset=header["preset"],
        distill_params=model("distill/", class_steps[:-1]) if distill else None,
        log=log,
        mious=mious,
    )


def _resume_point(header, steps):
    """The header's loss log and mIoUs.  The log is where training resumes:
    rows of exactly LOG_FIELDS whose (step, epoch) pairs run, in order,
    through epochs 0, 1, ... of the model's ``steps`` steps, only the last
    of which may have no rows.  The mIoUs are at most ``steps - 1`` floats."""
    log, mious = header["log"], header["mious"]
    kinds = {name: int if i < 3 else float for i, name in enumerate(LOG_FIELDS)}
    if type(log) is not list or not all(
            type(row) is dict and row.keys() == kinds.keys()
            and all(type(row[k]) is kind for k, kind in kinds.items()) for row in log):
        raise FormatError(f"checkpoint log is not a list of {', '.join(LOG_FIELDS)} rows")
    rows = [sum(row["step"] == s for row in log) for s in range(1, steps + 1)]
    if [(row["step"], row["epoch"]) for row in log] != [
            (s, e) for s, n in enumerate(rows, 1) for e in range(n)] or 0 in rows[:-1]:
        raise FormatError(f"checkpoint log does not run through epochs 0, 1, ... "
                          f"of steps 1 to {steps} in order")
    if type(mious) is not list or len(mious) >= steps or not all(
            type(m) is float for m in mious):
        raise FormatError(f"checkpoint mious is not a list of at most {steps - 1} mIoU values")
    return log, mious
