"""Training objectives with exact analytic gradients.

Each loss computes in the dtype of the model outputs it is given
(``numerics.float_dtype``): the model's float32 features and logits give
float32 arithmetic and float32 gradients, float64 stays float64, and any
other dtype is upcast to float64.  Prototypes keep their float64 storage
and are cast to the features' dtype once per call.

Every loss returns a GradSlot whose gradients flow to the model's forward
outputs: "logits" for the cross-entropy and consistency terms, "features"
for the clustering and distillation terms.  Inputs are one image, (H, W, C)
or (N, C), or a batch of equal-size images, (B, H, W, C).  Per image, a loss
is the mean over that image's contributing pixels (or neighbor pairs for the
consistency term), so its scale is independent of image size; a batch's
value is the sum of its images' values, and each image's gradient slice is
the one that image alone would get.  Prototypes are constants here; they
are updated only by the momentum schedule in the prototypes module.

The cluster term works on all prototypes at once.  Squared distances take
the expanded form d^2 = ||f||^2 - 2 f.p + ||p||^2, with row-local norm sums
and one (n, D) x (D, k) product per image; its gradient sum_c w_c (f - p_c)
with w_c = sign_c / d_c is f sum_c w_c - W P, a second product per image.
Where the expanded d^2 is at most ``NEAR`` * (||f||^2 + ||p||^2),
cancellation has eaten most of its digits, so that pair (and any
non-finite one) takes the direct difference f - p for its distance and
its gradient term; a pixel on a prototype is then at distance exactly 0.
At 1e-3 a pair just above the threshold keeps the loop form's value and
gradient to 1e-12 relative in float64
(``tests/test_losses.py::TestBitIdentity``); in float32 its squared
distance keeps about eps / NEAR = 1.2e-4 of its value, within the bound of
``TestFloat32Accuracy``.  The products
are per image, not per batch: BLAS rounds a row block of one (B*n, D)
product differently from an (n, D) product in some shapes (one pixel per
image, one prototype), and an image's gradient must not depend on the
batch it is in (``TestBatchContract``).  The consistency term visits each
unordered neighbour offset of ``numerics.neighbor_pairs`` once and counts
both of its ordered pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, LabelError
from .numerics import GradSlot, channel_sum, float_dtype, log_softmax, neighbor_pairs
from .synthdata import IGNORE_ID

# A feature/prototype pair whose expanded squared distance is at most this
# share of ||f||^2 + ||p||^2 takes the direct difference (module docstring).
NEAR = 1e-3


@dataclass
class ConsConfig:
    sigma_color: float = 0.1
    window: int = 3

    def validate(self):
        if self.sigma_color <= 0:
            raise ConfigError("consistency color scale must be > 0")
        if self.window < 3 or self.window % 2 == 0:
            raise ConfigError("window must be odd and >= 3")
        return self


@dataclass
class LossWeights:
    lambda_cluster: float = 1e-3
    # The consistency term sits two orders of magnitude below cross-entropy;
    # lighter weights leave prediction speckles in smooth regions.
    lambda_cons: float = 10.0
    lambda_distill: float = 1.0
    smoothing: float = 1.0  # class_weights' smoothing and clamp range
    clamp_min: float = 0.1
    # 10x minority weights oscillate at the default learning rates; 5x keeps
    # the fairness pressure without destabilizing the rarest classes.
    clamp_max: float = 5.0

    def validate(self):
        if min(self.lambda_cluster, self.lambda_cons, self.lambda_distill) < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.smoothing < 0:
            raise ConfigError("smoothing must be >= 0")
        if not 0 <= self.clamp_min <= self.clamp_max:
            raise ConfigError(
                f"invalid clamp range [{self.clamp_min}, {self.clamp_max}]"
            )
        return self


def _flatten_pixels(arr, what, channels=None, dtype=None):
    """(B, N, C) view of a batch (B, H, W, C) or one image (H, W, C) / (N, C),
    in ``dtype`` (default: its ``float_dtype``)."""
    arr = np.asarray(arr)
    arr = arr.astype(dtype or float_dtype(arr), copy=False)
    if arr.ndim not in (2, 3, 4):
        raise DimensionError(f"{what} must be (B, H, W, C), (H, W, C) or (N, C)")
    if channels is not None and arr.shape[-1] != channels:
        raise DimensionError(f"{what} has {arr.shape[-1]} channels, expected {channels}")
    batch = arr.shape[0] if arr.ndim == 4 else 1
    return arr.reshape(batch, -1, arr.shape[-1])


@dataclass
class CESlot(GradSlot):
    """``weighted_ce``'s result: also the softmax of every pixel's logits,
    shaped like them, which the consistency term reads."""

    probs: np.ndarray = None


def weighted_ce(logits, labels, row_weights=None):
    """Importance-weighted cross entropy over supervised pixels.

    ``labels`` holds head-row indices, or ``IGNORE_ID`` for a pixel without
    supervision; ``row_weights`` is a per-row weight vector (None = plain
    CE).  The gradient flows to the logits.  One max-subtract/exp/sum pass
    over every pixel gives the log-probabilities and ``probs``, and the
    value and gradient take every row: an ignored pixel has weight 0, so it
    adds nothing and its gradient row is +0.0.  An image with nothing
    supervised contributes zero loss.
    """
    shape = np.asarray(logits).shape
    z = _flatten_pixels(logits, "logits")
    b, n, k = z.shape
    y = np.asarray(labels).reshape(-1)
    if y.size != b * n:
        raise DimensionError("labels size does not match logits")
    logp = log_softmax(z.reshape(-1, k))
    probs = np.exp(logp)
    live = y != IGNORE_ID
    ys = np.where(live, y, 0).astype(np.int64)  # ignored pixels read row 0
    if ys.min() < 0 or ys.max() >= k:
        raise LabelError(f"supervised label outside head range 0..{k - 1}")
    if row_weights is None:
        w = np.ones(b * n, z.dtype)
    else:
        row_weights = np.asarray(row_weights, dtype=np.float64)
        if row_weights.shape != (k,):
            raise DimensionError(f"row_weights must have shape ({k},)")
        w = row_weights.astype(z.dtype)[ys]
    w[~live] = 0.0
    rows = np.arange(b * n)
    image = rows // n
    counts = np.maximum(np.count_nonzero(live.reshape(b, n), axis=1), 1)
    sums = np.bincount(image, weights=-w * logp[rows, ys], minlength=b)
    value = float(np.sum(sums / counts))
    grad = probs * w[:, None]
    grad[rows, ys] -= w
    grad /= counts.astype(z.dtype)[image, None]
    return CESlot(value=value, grads={"logits": grad.reshape(shape)},
                  probs=probs.reshape(shape))


def class_weights(counts, smoothing, clamp_min, clamp_max):
    """Fairness weight of each class in a 1-D pixel-count array.

    The weight is q/p clamped to [clamp_min, clamp_max], with q uniform
    over the counted classes, 1/k, and p their add-``smoothing`` pixel
    distribution, (n + s) / (sum(n) + s*k).  The clamp keeps extreme
    minorities from destabilizing SGD; a class of zero mass gets clamp_max.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size == 0 or (counts < 0).any():
        raise ConfigError(
            f"pixel counts must be a non-empty 1-D array >= 0, got {counts}"
        )
    mass = counts.sum() + smoothing * counts.size
    if mass == 0:
        raise ConfigError("no pixel counted and smoothing 0: no class distribution")
    p = (counts + smoothing) / mass
    with np.errstate(divide="ignore"):
        return np.clip((1.0 / counts.size) / p, clamp_min, clamp_max)


def cluster_loss(features, labels, protos, cfg):
    """Prototype attraction/repulsion over labeled pixels.

    Per pixel, the term for the labeled class is its distance to that
    prototype; every other initialized prototype contributes a hinge
    max(0, margin - distance).  Pixels labeled with the ignore sentinel are
    excluded; a pixel whose labeled class has no initialized prototype
    loses only its attraction term.  Gradients flow to the features;
    prototypes stay constant.
    """
    shape = np.asarray(features).shape
    fb = _flatten_pixels(features, "features", channels=protos.feature_dim)
    b, n, d = fb.shape
    dtype = fb.dtype
    y = np.asarray(labels).reshape(-1)
    if y.size != b * n:
        raise DimensionError("labels size does not match features")
    live = y != IGNORE_ID
    n_live = np.count_nonzero(live.reshape(b, n), axis=1)
    init_ids = protos.initialized_ids()
    if not live.any() or not init_ids:
        return GradSlot(value=0.0, grads={"features": np.zeros(shape, dtype)})
    _, pm = protos.initialized_matrix()
    pm = pm.astype(dtype, copy=False)  # float64 storage, the features' arithmetic
    k = pm.shape[0]
    f = fb.reshape(b * n, d)
    # d2 = ||f||^2 - 2 f.p + ||p||^2: one (n, k) product per image, so an
    # image's bytes do not depend on the batch it is in
    d2 = np.empty((b, n, k), dtype)
    for i in range(b):
        np.matmul(fb[i], pm.T, out=d2[i])
    d2 = d2.reshape(b * n, k)
    ff, pp = channel_sum(f * f), channel_sum(pm * pm)
    d2 *= -2.0
    d2 += ff[:, None]
    d2 += pp
    thr = np.add.outer(ff, pp)
    thr *= NEAR
    # pairs that cancellation leaves without digits (and non-finite ones)
    # take the direct difference: a pixel on a prototype is at distance 0
    rows, cols = np.nonzero(~(d2 > thr))
    diff = f[rows] - pm[cols]
    d2[rows, cols] = channel_sum(diff * diff)
    dist = np.sqrt(d2, out=d2)
    delta = cfg.margin
    match = (y[:, None] == np.asarray(init_ids)) & live[:, None]
    active = (dist < delta) & ~match & live[:, None]
    terms = np.where(active, delta - dist, 0.0)
    np.copyto(terms, dist, where=match)
    loss = channel_sum(terms)  # per pixel
    # weights sign / dist: +1 pulls a pixel toward its own prototype, -1
    # pushes it off a near other one, 0 leaves it (and distance 0) alone
    sign = match.astype(dtype)
    sign -= active
    w = np.divide(sign, dist, out=np.zeros_like(dist), where=dist != 0)
    w_near = w[rows, cols]
    w[rows, cols] = 0.0
    # sum_c w_c (f - p_c) = f sum_c w_c - W P, again one product per image;
    # the near pairs add their direct differences
    wp = np.empty((b, n, d), dtype)
    w3 = w.reshape(b, n, k)
    for i in range(b):
        np.matmul(w3[i], pm, out=wp[i])
    grad = f * channel_sum(w)[:, None]
    grad -= wp.reshape(b * n, d)
    np.add.at(grad, rows, w_near[:, None] * diff)
    dead = n_live == 0
    n_live = np.maximum(n_live, 1).astype(dtype)
    grad = grad.reshape(b, n, d)
    grad /= n_live[:, None, None]
    grad[dead] = 0.0  # +0.0, as the early return gives
    value = float(np.sum(loss.reshape(b, n).sum(axis=1) / n_live))
    return GradSlot(value=value, grads={"features": grad.reshape(shape)})


def _probs_to_logits_grad(probs, dprobs):
    inner = channel_sum(dprobs * probs)[..., None]
    return probs * (dprobs - inner)


def cons_loss(image, probs, cfg):
    """Structural consistency over color-similar neighbor pairs.

    Penalizes squared prediction differences weighted by a Gaussian
    color-affinity kernel, averaged over ordered neighbor pairs.  Gradients
    are returned on probs and, through the softmax Jacobian, on logits.
    """
    img, pr = np.asarray(image), np.asarray(probs)
    dtype = float_dtype(img, pr)
    img, pr = img.astype(dtype, copy=False), pr.astype(dtype, copy=False)
    if img.ndim not in (3, 4) or pr.ndim != img.ndim or img.shape[:-1] != pr.shape[:-1]:
        raise DimensionError(
            "image and probs must be (B, H, W, C) or (H, W, C) with equal B, H, W"
        )
    dprobs = np.zeros_like(pr)
    values = np.zeros(pr.shape[:-3], dtype)  # per image
    n_pairs = 0  # per image
    two_s1 = 2.0 * cfg.sigma_color**2
    for ra, ca, rb, cb in neighbor_pairs(*pr.shape[-3:-1], cfg.window):
        a, b = (..., ra, ca, slice(None)), (..., rb, cb, slice(None))
        color2 = channel_sum((img[a] - img[b]) ** 2)
        affinity = np.exp(-color2 / two_s1)
        pdiff = pr[a] - pr[b]
        # both ordered pairs: the mirrored one has the same affinity and
        # squared difference, and adds the same gradient at a and at b
        n_pairs += 2 * affinity.shape[-2] * affinity.shape[-1]
        values += 2.0 * np.sum(affinity * channel_sum(pdiff**2), axis=(-2, -1))
        contrib = 4.0 * affinity[..., None] * pdiff
        dprobs[a] += contrib
        dprobs[b] -= contrib
    if n_pairs == 0:
        return GradSlot(value=0.0, grads={"probs": dprobs, "logits": dprobs.copy()})
    dprobs /= n_pairs
    dlogits = _probs_to_logits_grad(pr, dprobs)
    value = float(np.sum(values / n_pairs))
    return GradSlot(value=value, grads={"probs": dprobs, "logits": dlogits})


def distill_loss(features_now, features_prev):
    """Mean per-pixel feature distance to the frozen previous-step model."""
    fn, fp = np.asarray(features_now), np.asarray(features_prev)
    shape, dtype = fn.shape, float_dtype(fn, fp)
    fn = _flatten_pixels(fn, "features_now", dtype=dtype)
    fp = _flatten_pixels(fp, "features_prev", dtype=dtype)
    if fn.shape != fp.shape:
        raise DimensionError(
            f"feature shapes differ: {fn.shape} vs {fp.shape}"
        )
    diff = fn - fp
    dist = np.sqrt(np.sum(diff**2, axis=2))
    n = fn.shape[1]
    value = float(np.sum(np.mean(dist, axis=1)))
    grad = np.zeros_like(fn)
    nz = dist > 0
    grad[nz] = diff[nz] / (dist[nz, None] * n)
    return GradSlot(value=value, grads={"features": grad.reshape(shape)})

