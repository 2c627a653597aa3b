"""Deterministic numeric substrate: seeded PRNG, channel reductions, softmax,
gradient checking.

The model computes in its parameters' 32-bit floats, and the losses,
softmax and channel reductions in the dtype of the arrays they are given
(``float_dtype``): float32 in gives float32 arithmetic, float64 stays
float64, and any other dtype, or a mix, is upcast to float64.  Prototypes,
banks and gradient checks are float64.
Image-like data ("grids") are C-contiguous arrays of shape (H, W, C).  Random
numbers come from a fixed, documented PCG32 generator so that runs are
bit-reproducible across platforms; sub-streams are derived by hashing
(seed, label) and are therefore independent of call order.  Array draws
(``u32s``, ``uniforms``, ``normals``) are computed a block at a time by LCG
jump-ahead: the same stream, bit for bit, as one ``next_u32`` call per
output.

Channel reductions.  ``np.sum(a, axis=-1)`` and ``np.max(a, axis=-1)`` run
one inner loop per pixel over a short channel axis (3 colours, K classes,
D features), which costs more than the arithmetic.  ``channel_sum`` and
``channel_max`` give the same bytes with one whole-array add or maximum per
channel.  Floating-point addition is not associative, so ``channel_sum``
adds in NumPy's own order for one contiguous row (its pairwise sum): from
+0.0, a running sum below 8 channels; eight interleaved partial sums
combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover
channels, from 8 to 128; halves of a multiple of 8 above that.  Every
kernel that moved from ``np.sum`` to these helpers therefore keeps the run
bytes.  ``tests/test_numerics.py::TestChannelReductions`` pins the rule
against ``np.sum`` and ``np.max`` for 1..300 channels, in float32 and
float64.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DeterminismError, DimensionError

RNG_ALGORITHM_ID = "pcg32-xsh-rr-v1"

_PCG_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1

# Outputs computed per array block by ``Rng.u32s``.
BLOCK = 4096


def _jump_tables(n):
    """M^i and sum_{j<i} M^j mod 2^64 for i = 0..n, as uint64 arrays.

    i LCG steps take state s to ``mul[i] * s + add[i] * inc`` (mod 2^64).
    """
    mul, add = [1], [0]
    for _ in range(n):
        mul.append(mul[-1] * _PCG_MULT & _MASK64)
        add.append((add[-1] * _PCG_MULT + 1) & _MASK64)
    return np.array(mul, dtype=np.uint64), np.array(add, dtype=np.uint64)


_JUMP_MUL, _JUMP_ADD = _jump_tables(BLOCK)


class Rng:
    """PCG32 (XSH-RR variant) with order-independent stream splitting.

    The generator state is a 64-bit LCG; output is a 32-bit xorshift-rotate
    of the old state.  ``split(label)`` derives a child generator whose seed
    and stream come from BLAKE2b(seed, label), so the set of sub-streams a
    run uses does not depend on the order in which they are requested.
    """

    __slots__ = ("seed", "state", "inc")

    def __init__(self, seed, stream=0):
        self.seed = int(seed) & _MASK64
        self.inc = ((int(stream) << 1) | 1) & _MASK64
        self.state = 0
        self.next_u32()
        self.state = (self.state + self.seed) & _MASK64
        self.next_u32()

    def next_u32(self):
        old = self.state
        self.state = (old * _PCG_MULT + self.inc) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def split(self, label):
        """Child generator keyed by (seed, label); independent of call order."""
        h = hashlib.blake2b(digest_size=16)
        h.update(self.seed.to_bytes(8, "little"))
        h.update(str(label).encode("utf-8"))
        digest = h.digest()
        child_seed = int.from_bytes(digest[:8], "little")
        child_stream = int.from_bytes(digest[8:], "little") >> 1
        return Rng(child_seed, stream=child_stream)

    def uniform(self):
        """Uniform double in [0, 1)."""
        return self.next_u32() * 2.0**-32

    def u32s(self, n):
        """The next n outputs as one uint64 array, equal to n ``next_u32`` calls.

        Each block of m outputs takes its old states from the jump tables in
        wrapping uint64 arithmetic, then steps ``state`` m ahead with Python
        ints, so the state ends where the n scalar calls would leave it.
        """
        out = np.empty(n, dtype=np.uint64)
        for start in range(0, n, BLOCK):
            m = min(BLOCK, n - start)
            old = _JUMP_MUL[:m] * np.uint64(self.state)
            old += _JUMP_ADD[:m] * np.uint64(self.inc)
            self.state = (int(_JUMP_MUL[m]) * self.state
                          + int(_JUMP_ADD[m]) * self.inc) & _MASK64
            xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
            rot = old >> 59
            out[start:start + m] = (
                (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))
            ) & 0xFFFFFFFF
        return out

    def uniforms(self, n):
        return self.u32s(n) * 2.0**-32

    def normals(self, n):
        """n standard normals via Box-Muller on the PCG32 stream."""
        pairs = (n + 1) // 2
        # shift into (0, 1] so log() is safe
        u = (self.u32s(2 * pairs) + 1.0) * 2.0**-32
        r = np.sqrt(-2.0 * np.log(u[:pairs]))
        theta = 2.0 * np.pi * u[pairs:]
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return z[:n]

    def randint(self, bound):
        """Unbiased integer in [0, bound) via rejection sampling."""
        if not 0 < bound <= 1 << 32:
            raise DimensionError(f"randint bound must be in [1, 2**32], got {bound}")
        threshold = (1 << 32) % bound
        while True:
            r = self.next_u32()
            if r >= threshold:
                return r % bound

    def shuffle(self, items):
        """Fisher-Yates shuffle of a list, in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


@dataclass
class GradSlot:
    """A scalar loss value plus gradients keyed by parameter-block name."""

    value: float
    grads: dict = field(default_factory=dict)


def _pairwise_sum(a, lo, n):
    """NumPy's pairwise sum of channels lo..lo+n-1, as a new array."""
    if n < 8:
        total = a[..., lo] + 0.0  # NumPy's running sum starts from +0.0
        for c in range(lo + 1, lo + n):
            total += a[..., c]
        return total
    if n <= 128:
        blocks = n - n % 8
        if blocks > 8:
            r = [a[..., lo + j] + a[..., lo + 8 + j] for j in range(8)]
            for i in range(lo + 16, lo + blocks, 8):
                for j in range(8):
                    r[j] += a[..., i + j]
        else:
            r = [a[..., lo + j] for j in range(8)]
        total = r[0] + r[1]
        total += r[2] + r[3]
        upper = r[4] + r[5]
        upper += r[6] + r[7]
        total += upper
        for c in range(lo + blocks, lo + n):
            total += a[..., c]
        return total
    half = n // 2
    half -= half % 8
    total = _pairwise_sum(a, lo, half)
    total += _pairwise_sum(a, lo + half, n - half)
    return total


def float_dtype(*arrays):
    """The dtype a kernel computes in for these arrays: float32 when every
    one is float32, else float64."""
    f32 = all(a.dtype == np.float32 for a in arrays)
    return np.dtype(np.float32 if f32 else np.float64)


def as_float(a):
    """``a`` as an array of ``float_dtype(a)``; no copy when it is one."""
    a = np.asarray(a)
    return a.astype(float_dtype(a), copy=False)


def channel_sum(a):
    """``np.sum`` over the last axis, in NumPy's order for a contiguous row.

    The same bytes as ``np.sum(np.ascontiguousarray(a), axis=-1)``, with one
    whole-array add per channel.  A NaN result is NaN in both; its sign and
    payload are unspecified where a row adds a NaN and makes another
    (inf - inf), as NumPy's compiled loop does not fix its operand order.
    """
    a = as_float(a)
    total = _pairwise_sum(a, 0, a.shape[-1])
    if a.shape[-1] >= 8:
        total += 0.0  # NumPy adds the row to +0.0: an all -0.0 row sums to +0.0
    return total


def channel_max(a):
    """``np.max`` over the last axis, with one whole-array maximum per channel.

    The same bytes as ``np.max(a, axis=-1)``, except the sign of a zero
    maximum that a row holds as both +0.0 and -0.0: NumPy's answer depends
    on its SIMD lane layout.  Subtracting either from the row gives the same
    exponentials, so ``softmax`` and ``log_softmax`` keep their bytes.
    """
    a = as_float(a)
    top = np.array(a[..., 0])
    for c in range(1, a.shape[-1]):
        np.maximum(top, a[..., c], out=top)
    return top


def neighbor_pairs(h, w, window):
    """Every unordered pair of pixels of an H x W grid within an odd window:
    the one neighbor walk, read by the consistency loss and the island count.

    Yields ``(rows_a, cols_a, rows_b, cols_b)`` slices, one tuple per offset
    (dr, dc) that leaves a pair inside the grid: pixel (i, j) of the ``a``
    block and pixel (i, j) of the ``b`` block are (dr, dc) apart.  Each
    unordered offset comes once (its mirror holds the same pairs, swapped),
    in the order (0, 1) ... (0, r), then dr = 1 ... r with dc = -r ... r,
    where r = window // 2.
    """
    r = window // 2
    for dr in range(r + 1):
        for dc in range(-r if dr else 1, r + 1):
            c0, c1 = max(0, -dc), min(w, w - dc)
            if dr < h and c0 < c1:
                yield (slice(0, h - dr), slice(c0, c1),
                       slice(dr, h), slice(c0 + dc, c1 + dc))


def softmax(logits):
    """Numerically stable softmax (max-subtracted) along the last axis, in
    the logits' ``float_dtype``."""
    z = as_float(logits)
    if z.size == 0:
        raise DimensionError("softmax of empty input")
    z = z - channel_max(z)[..., None]  # the output; exp and division in place
    np.exp(z, out=z)
    z /= channel_sum(z)[..., None]
    return z


def log_softmax(logits):
    """Max-subtracted log-probabilities along the last axis, in the logits'
    ``float_dtype``."""
    z = as_float(logits)
    if z.size == 0:
        raise DimensionError("log_softmax of empty input")
    z = z - channel_max(z)[..., None]
    z -= np.log(channel_sum(np.exp(z)))[..., None]
    return z


def relative_error(analytic, fd):
    """Symmetric relative error with a floor to avoid blowup at zero."""
    return abs(analytic - fd) / max(1e-12, abs(analytic) + abs(fd))


def finite_diff_check(loss, params, epsilon=1e-6):
    """Max relative error between analytic and central-difference gradients.

    ``loss`` maps a dict of parameter blocks to a GradSlot whose grads cover
    every block in ``params``.  Each coordinate of each block is perturbed by
    +/- epsilon; the central difference is compared against the analytic
    gradient with a symmetric relative-error formula.

    Raises DeterminismError if two evaluations at the same point disagree.
    """
    if not (1e-8 <= epsilon <= 1e-4):
        raise DimensionError(f"epsilon {epsilon} outside [1e-8, 1e-4]")
    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    first = loss(base)
    second = loss(base)
    if first.value != second.value:
        raise DeterminismError(
            f"loss is not deterministic: {first.value!r} != {second.value!r}"
        )
    max_err = 0.0
    for name, block in base.items():
        analytic = np.asarray(first.grads[name], dtype=np.float64)
        if analytic.shape != block.shape:
            raise DimensionError(
                f"gradient '{name}' shape {analytic.shape} != {block.shape}"
            )
        flat = block.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            plus = loss(base).value
            flat[i] = orig - epsilon
            minus = loss(base).value
            flat[i] = orig
            fd = (plus - minus) / (2.0 * epsilon)
            err = relative_error(analytic.reshape(-1)[i], fd)
            if err > max_err:
                max_err = err
    return max_err
