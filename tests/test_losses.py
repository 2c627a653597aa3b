"""Training objectives: hand-derived values, brute-force oracles, gradients."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import same_bytes
from fairseg.errors import ConfigError, DimensionError, LabelError
from fairseg.losses import (
    IGNORE_ID,
    NEAR,
    ConsConfig,
    LossWeights,
    _flatten_pixels,
    _probs_to_logits_grad,
    class_weights,
    cluster_loss,
    cons_loss,
    distill_loss,
    weighted_ce,
)
from fairseg.model import forward_batch, grow_head, init_params
from fairseg.numerics import GradSlot, Rng, finite_diff_check, log_softmax, softmax
from fairseg.prototypes import ClusterConfig, PrototypeBank


def make_protos(vectors, frozen=(), uninitialized=()):
    dim = len(next(iter(vectors.values())))
    protos = PrototypeBank(dim)
    protos.register(list(vectors) + list(uninitialized))
    for cid, vec in vectors.items():
        entry = protos.entries[cid]
        entry.vector = np.asarray(vec, dtype=np.float64)
        entry.initialized = True
        entry.frozen = cid in frozen
    return protos


class TestClassWeights:
    def test_balanced_weights_are_one(self):
        weights = class_weights([50, 50, 50, 50], 1.0, 0.1, 10.0)
        np.testing.assert_allclose(weights, 1.0, atol=1e-12)

    def test_weight_arithmetic(self):
        weights = class_weights([700, 100, 100, 100], 0.0, 0.1, 10.0)
        assert weights[0] == pytest.approx(0.25 / 0.7, abs=1e-12)
        np.testing.assert_allclose(weights[1:], 2.5, atol=1e-12)

    def test_same_floats_as_the_scalar_formula(self):
        counts = [7, 0, 123, 5, 1]
        s, k = 1.0, len(counts)
        expect = [
            min(max((1.0 / k) / ((n + s) / (sum(counts) + s * k)), 0.1), 5.0)
            for n in counts
        ]
        assert class_weights(counts, s, 0.1, 5.0).tolist() == expect

    def test_zero_mass_class_clamps_high(self):
        with np.errstate(all="raise"):
            weights = class_weights([100, 0], 0.0, 0.1, 10.0)
        assert weights[1] == 10.0

    def test_majority_clamps_low(self):
        weights = class_weights([10_000_000, 1], 0.0, 0.1, 10.0)
        assert weights[0] == pytest.approx(0.5, abs=1e-6)
        assert weights[1] == 10.0

    def test_validation_errors(self):
        for counts in ([5, -1], [], [[1, 2]]):
            with pytest.raises(ConfigError, match="pixel counts"):
                class_weights(counts, 1.0, 0.1, 10.0)
        with pytest.raises(ConfigError, match="no pixel counted"):
            class_weights([0, 0], 0.0, 0.1, 10.0)
        # Smoothing and the clamp range are validated with the other
        # [losses] values, before any weight is computed.
        with pytest.raises(ConfigError):
            LossWeights(smoothing=-0.5).validate()
        with pytest.raises(ConfigError):
            LossWeights(clamp_min=5.0, clamp_max=1.0).validate()
        with pytest.raises(ConfigError):
            LossWeights(clamp_min=-0.1).validate()


class TestWeightedCE:
    def test_uniform_weights_equal_plain_ce(self):
        rng = Rng(101)
        logits = rng.normals(12 * 4).reshape(12, 4)
        labels = np.array([rng.randint(4) for _ in range(12)])
        plain = weighted_ce(logits, labels)
        weighted = weighted_ce(logits, labels, row_weights=np.ones(4))
        assert plain.value == pytest.approx(weighted.value, abs=1e-15)
        logp = np.log(softmax(logits))
        expect = float(np.mean(-logp[np.arange(12), labels]))
        assert plain.value == pytest.approx(expect, abs=1e-12)

    def test_perfect_predictions_drive_loss_to_zero(self):
        labels = np.array([0, 1, 2])
        logits = np.full((3, 3), -50.0)
        logits[np.arange(3), labels] = 50.0
        out = weighted_ce(logits, labels, row_weights=np.array([9.0, 0.5, 3.0]))
        assert out.value < 1e-8

    def test_no_supervised_pixels(self):
        out = weighted_ce(np.zeros((4, 3)), np.full(4, IGNORE_ID))
        assert out.value == 0.0
        assert not out.grads["logits"].any()

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            weighted_ce(np.zeros((2, 3)), np.array([0, 3]))

    def test_bad_row_weights_shape(self):
        with pytest.raises(DimensionError):
            weighted_ce(np.zeros((2, 3)), np.zeros(2), row_weights=np.ones(2))

    def test_ignored_pixels_excluded(self):
        rng = Rng(102)
        logits = rng.normals(8 * 3).reshape(8, 3)
        labels = np.array([rng.randint(3) for _ in range(8)])
        labels[5:] = IGNORE_ID
        ignored = weighted_ce(logits, labels)
        direct = weighted_ce(logits[:5], labels[:5])
        assert ignored.value == pytest.approx(direct.value, abs=1e-15)
        assert not ignored.grads["logits"][5:].any()

    def test_shift_invariance(self):
        rng = Rng(103)
        logits = rng.normals(6 * 4).reshape(6, 4)
        labels = np.array([rng.randint(4) for _ in range(6)])
        a = weighted_ce(logits, labels)
        b = weighted_ce(logits + 13.5, labels)
        assert a.value == pytest.approx(b.value, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = Rng(104)
        labels = np.array([rng.randint(4) for _ in range(9)])
        labels[rng.uniforms(9) <= 0.3] = IGNORE_ID
        weights = np.asarray(rng.uniforms(4)) * 1.5 + 0.5

        def loss(params):
            return weighted_ce(params["logits"], labels, row_weights=weights)

        logits0 = rng.normals(9 * 4).reshape(9, 4)
        assert finite_diff_check(loss, {"logits": logits0}) <= 1e-5

    def test_grid_shaped_logits(self):
        rng = Rng(105)
        logits = rng.normals(4 * 4 * 3).reshape(4, 4, 3)
        labels = np.zeros((4, 4), dtype=np.int64)
        out = weighted_ce(logits, labels)
        assert out.grads["logits"].shape == (4, 4, 3)


def two_path_weighted_ce(logits, labels, mask, row_weights=None):
    """The earlier ``weighted_ce``: a boolean ``mask`` of supervised pixels,
    all rows when every pixel is supervised, and otherwise a gather of the
    supervised rows and a scatter of their gradient into zeros."""
    shape = np.asarray(logits).shape
    z = _flatten_pixels(logits, "logits")
    b, n, k = z.shape
    y = np.asarray(labels).reshape(-1)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    logp = log_softmax(z.reshape(-1, k))
    probs = np.exp(logp)
    whole = m.all()
    pix = np.arange(b * n) if whole else np.flatnonzero(m)
    if pix.size == 0:
        return 0.0, np.zeros(shape, z.dtype), probs.reshape(shape)
    ys = y[pix].astype(np.int64)
    if row_weights is None:
        w = np.ones(pix.size, z.dtype)
    else:
        w = np.asarray(row_weights, dtype=np.float64).astype(z.dtype)[ys]
    image = pix // n
    counts = np.bincount(image, minlength=b)
    sums = np.bincount(image, weights=-w * logp[pix, ys], minlength=b)
    value = float(np.sum(sums / np.maximum(counts, 1)))
    g = (probs if whole else probs[pix]) * w[:, None]
    g[np.arange(pix.size), ys] -= w
    g /= counts.astype(z.dtype)[image, None]
    if whole:
        grad = g
    else:
        grad = np.zeros((b * n, k), z.dtype)
        grad[pix] = g
    return value, grad.reshape(shape), probs.reshape(shape)


class TestOnePathCE:
    """``weighted_ce`` with ``IGNORE_ID`` labels gives the bytes of the
    earlier mask-and-two-path form: value, gradient, probabilities, dtype."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("supervision", ["all", "some", "none"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("grid", [(3, 5, 4), (5, 4)])
    def test_matches_two_path_form(self, dtype, supervision, weighted, grid):
        rng = Rng(160)
        k = 5
        # spread logits, so some probabilities underflow to exactly 0
        logits = (20.0 * rng.normals(int(np.prod(grid)) * k)).reshape(*grid, k)
        logits = logits.astype(dtype)
        labels = np.array([rng.randint(k) for _ in range(int(np.prod(grid)))])
        labels = labels.reshape(grid)
        if supervision == "some":
            labels[(rng.uniforms(labels.size) <= 0.4).reshape(grid)] = IGNORE_ID
            if len(grid) == 3:
                labels[1] = IGNORE_ID  # an image with nothing supervised
        elif supervision == "none":
            labels[...] = IGNORE_ID
        weights = 0.1 + 4.9 * rng.uniforms(k) if weighted else None
        live = labels != IGNORE_ID
        got = weighted_ce(logits, labels, weights)
        value, grad, probs = two_path_weighted_ce(logits, labels, live, weights)
        assert repr(got.value) == repr(value)
        assert same_bytes(got.grads["logits"], grad)
        assert same_bytes(got.probs, probs)
        assert got.grads["logits"].dtype == got.probs.dtype == dtype
        # unsupervised rows are +0.0, not -0.0 or NaN
        ignored = got.grads["logits"][~live]
        assert same_bytes(ignored, np.zeros(ignored.shape, dtype))


class TestClusterLoss:
    def cfg(self, margin=10.0):
        return ClusterConfig(margin=margin).validate()

    def test_zero_when_matched_and_separated(self):
        protos = make_protos({1: [0.0, 0.0], 2: [100.0, 100.0]})
        features = np.array([[[0.0, 0.0]]])
        labels = np.array([[1]])
        out = cluster_loss(features, labels, protos, self.cfg())
        assert out.value == 0.0
        assert not out.grads["features"].any()

    def test_hinge_arithmetic(self):
        protos = make_protos({1: [3.0, 4.0], 2: [0.0, 0.0]})
        features = np.array([[[3.0, 4.0]]])
        labels = np.array([[1]])
        out = cluster_loss(features, labels, protos, self.cfg(margin=10.0))
        assert out.value == pytest.approx(5.0, abs=1e-12)

    def test_saturated_hinge_contributes_nothing(self):
        protos = make_protos({1: [0.0, 0.0], 2: [12.0, 0.0]})
        features = np.array([[[0.0, 0.0]]])
        labels = np.array([[1]])
        out = cluster_loss(features, labels, protos, self.cfg(margin=10.0))
        assert out.value == 0.0
        assert not out.grads["features"].any()

    def test_boundary_distance_is_inactive(self):
        protos = make_protos({1: [0.0, 0.0], 2: [10.0, 0.0]})
        out = cluster_loss(
            np.array([[[0.0, 0.0]]]),
            np.array([[1]]),
            protos,
            self.cfg(margin=10.0),
        )
        assert out.value == 0.0

    def test_attraction_gradient_is_unit_direction(self):
        protos = make_protos({1: [0.0, 0.0]})
        features = np.array([[[3.0, 4.0]]])
        out = cluster_loss(features, np.array([[1]]), protos, self.cfg())
        np.testing.assert_allclose(
            out.grads["features"][0, 0], [0.6, 0.8], atol=1e-12
        )

    def test_repulsion_gradient_is_negative_unit_direction(self):
        # matched prototype sits exactly on the feature so only the active
        # hinge against prototype 2 contributes
        protos = make_protos({1: [3.0, 4.0], 2: [0.0, 0.0]})
        features = np.array([[[3.0, 4.0]]])
        out = cluster_loss(features, np.array([[1]]), protos, self.cfg())
        np.testing.assert_allclose(
            out.grads["features"][0, 0], [-0.6, -0.8], atol=1e-12
        )

    def test_ignore_pixels_excluded(self):
        protos = make_protos({1: [0.0, 0.0]})
        features = np.array([[[3.0, 4.0], [100.0, 0.0]]])
        labels = np.array([[1, IGNORE_ID]])
        out = cluster_loss(features, labels, protos, self.cfg())
        assert out.value == pytest.approx(5.0, abs=1e-12)
        assert not out.grads["features"][0, 1].any()

    def test_uninitialized_prototype_counted_and_skipped(self):
        """The pixel loses its attraction term; ``run_step`` counts it
        (``test_trainer.py::test_cluster_skipped_pixels_counted_per_step``)."""
        protos = make_protos({1: [0.0, 0.0]}, uninitialized=[7])
        features = np.array([[[100.0, 0.0]]])
        labels = np.array([[7]])
        out = cluster_loss(features, labels, protos, self.cfg())
        assert out.value == 0.0
        assert not out.grads["features"].any()

    def test_no_initialized_prototypes_is_warmup_noop(self):
        protos = PrototypeBank(2)
        protos.register([0, 1])
        out = cluster_loss(np.zeros((1, 3, 2)), np.zeros((1, 3)), protos, self.cfg())
        assert out.value == 0.0
        assert not out.grads["features"].any()

    def test_pixel_permutation_invariance(self):
        rng = Rng(110)
        protos = make_protos(
            {0: rng.normals(3), 1: rng.normals(3), 2: rng.normals(3)}
        )
        feats = rng.normals(30).reshape(10, 3)
        labels = np.array([rng.randint(3) for _ in range(10)])
        base = cluster_loss(feats, labels, protos, self.cfg(margin=2.0))
        perm = np.array(Rng(111).shuffle(list(range(10))))
        shuffled = cluster_loss(
            feats[perm], labels[perm], protos, self.cfg(margin=2.0)
        )
        assert base.value == pytest.approx(shuffled.value, abs=1e-12)

    def test_monotone_in_margin(self):
        rng = Rng(112)
        protos = make_protos({0: rng.normals(3), 1: rng.normals(3)})
        feats = rng.normals(24).reshape(8, 3)
        labels = np.array([rng.randint(2) for _ in range(8)])
        values = [
            cluster_loss(feats, labels, protos, self.cfg(margin=m)).value
            for m in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_gradient_matches_finite_differences(self):
        # geometry keeps every pixel away from hinge boundaries and every
        # gradient coordinate away from the finite-difference noise floor
        rng = Rng(113)
        dim = 3
        base = rng.normals(dim)
        direction = rng.normals(dim)
        direction /= np.linalg.norm(direction)
        protos = make_protos(
            {0: base, 1: base + 3.0 * direction, 2: base + 50.0},
            uninitialized=[3],
        )
        n = 12
        feats = np.empty((n, dim))
        labels = np.empty(n, dtype=np.int64)
        for i in range(n):
            off = 0.3 + 0.5 * np.asarray(rng.uniforms(dim))
            sign = np.where(np.asarray(rng.uniforms(dim)) < 0.5, -1.0, 1.0)
            if i % 2 == 0:
                feats[i] = base + 0.5 * off * sign
                labels[i] = 0
            else:
                feats[i] = base + 3.0 * direction + 0.5 * off * sign
                labels[i] = 3
        cfg = self.cfg(margin=1.0)

        def loss(params):
            return cluster_loss(params["features"], labels, protos, cfg)

        assert finite_diff_check(loss, {"features": feats}) <= 1e-5


def brute_force_cons(image, probs, cfg):
    """O(H*W*window^2) double-loop reimplementation of the pair sum."""
    h, w = image.shape[:2]
    r = cfg.window // 2
    total = 0.0
    pairs = 0
    for i in range(h):
        for j in range(w):
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    if (di, dj) == (0, 0):
                        continue
                    ni, nj = i + di, j + dj
                    if not (0 <= ni < h and 0 <= nj < w):
                        continue
                    color2 = float(
                        np.sum((image[i, j] - image[ni, nj]) ** 2)
                    )
                    pred2 = float(np.sum((probs[i, j] - probs[ni, nj]) ** 2))
                    total += (
                        math.exp(-color2 / (2 * cfg.sigma_color**2)) * pred2
                    )
                    pairs += 1
    return total / pairs


class TestConsLoss:
    def test_constant_probs_zero(self):
        rng = Rng(120)
        image = rng.uniforms(5 * 5 * 3).reshape(5, 5, 3)
        probs = np.tile(np.array([0.2, 0.3, 0.5]), (5, 5, 1))
        out = cons_loss(image, probs, ConsConfig())
        assert out.value == 0.0
        assert not out.grads["probs"].any()

    def test_two_region_oracle_on_constant_image(self):
        # constant color -> every affinity is exactly 1; only pairs that
        # straddle the region boundary contribute, each the same amount
        h = w = 6
        image = np.full((h, w, 3), 0.5)
        a = np.array([0.7, 0.2, 0.1])
        b = np.array([0.1, 0.6, 0.3])
        probs = np.where(
            (np.arange(w) < 3)[None, :, None], a, b
        ) * np.ones((h, w, 1))
        cfg = ConsConfig().validate()
        out = cons_loss(image, probs, cfg)
        # ordered cross-boundary pairs within the 3x3 window: offsets with
        # dc != 0 connect columns 2<->3 only; count by hand
        jump = float(np.sum((a - b) ** 2))
        boundary_pairs = 0
        for dr, dc in [
            (dr, dc)
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if (dr, dc) != (0, 0)
        ]:
            for r in range(h):
                for c in range(w):
                    rn, cn = r + dr, c + dc
                    if 0 <= rn < h and 0 <= cn < w:
                        if (c < 3) != (cn < 3):
                            boundary_pairs += 1
        total_pairs = sum(
            1
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if (dr, dc) != (0, 0)
            for r in range(h)
            for c in range(w)
            if 0 <= r + dr < h and 0 <= c + dc < w
        )
        expect = boundary_pairs * jump / total_pairs
        assert out.value == pytest.approx(expect, abs=1e-14)
        assert out.value == pytest.approx(
            brute_force_cons(image, probs, cfg), abs=1e-14
        )

    def test_matches_brute_force_on_random_input(self):
        rng = Rng(121)
        h, w, k = 5, 4, 3
        image = rng.uniforms(h * w * 3).reshape(h, w, 3)
        probs = softmax(rng.normals(h * w * k).reshape(h, w, k))
        cfg = ConsConfig(sigma_color=0.25).validate()
        out = cons_loss(image, probs, cfg)
        assert out.value == pytest.approx(
            brute_force_cons(image, probs, cfg), abs=1e-13
        )

    def test_tiny_color_scale_kills_loss(self):
        rng = Rng(122)
        image = rng.uniforms(6 * 6 * 3).reshape(6, 6, 3)
        probs = softmax(rng.normals(6 * 6 * 3).reshape(6, 6, 3))
        out = cons_loss(image, probs, ConsConfig(sigma_color=1e-3))
        assert out.value < 1e-12

    def test_flip_symmetry(self):
        rng = Rng(123)
        image = rng.uniforms(5 * 7 * 3).reshape(5, 7, 3)
        probs = softmax(rng.normals(5 * 7 * 2).reshape(5, 7, 2))
        cfg = ConsConfig()
        a = cons_loss(image, probs, cfg)
        b = cons_loss(image[::-1, ::-1], probs[::-1, ::-1], cfg)
        assert a.value == pytest.approx(b.value, abs=1e-13)

    def test_probs_gradient_matches_brute_force_fd(self):
        rng = Rng(124)
        image = (0.5 + 0.1 * (2 * rng.uniforms(4 * 4 * 3) - 1)).reshape(4, 4, 3)
        a = softmax(rng.normals(3))
        b = softmax(rng.normals(3))
        region = (np.arange(4) < 2)[:, None] & np.ones(4, bool)[None, :]
        probs0 = np.where(region[..., None], a, b)
        cfg = ConsConfig(sigma_color=0.3)

        def loss(params):
            out = cons_loss(image, params["probs"], cfg)
            return GradSlot(
                value=out.value, grads={"probs": out.grads["probs"]}
            )

        assert finite_diff_check(loss, {"probs": probs0}) <= 1e-5

    def test_logits_gradient_matches_finite_differences(self):
        # verifies the softmax chain: perturb logits, probs follow
        rng = Rng(125)
        image = (0.5 + 0.1 * (2 * rng.uniforms(4 * 4 * 3) - 1)).reshape(4, 4, 3)
        logits0 = rng.normals(4 * 4 * 3).reshape(4, 4, 3)
        cfg = ConsConfig(sigma_color=0.3)

        def loss(params):
            probs = softmax(params["logits"])
            out = cons_loss(image, probs, cfg)
            return GradSlot(
                value=out.value, grads={"logits": out.grads["logits"]}
            )

        assert finite_diff_check(loss, {"logits": logits0}) <= 1e-4

    def test_softmax_jacobian_identity(self):
        rng = Rng(126)
        for _ in range(20):
            p = softmax(rng.normals(5))
            d = rng.normals(5)
            jac = np.diag(p) - np.outer(p, p)
            np.testing.assert_allclose(
                _probs_to_logits_grad(p, d), jac @ d, atol=1e-14
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cons_loss(np.zeros((4, 4, 3)), np.zeros((5, 4, 2)), ConsConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ConsConfig(sigma_color=0.0).validate()
        with pytest.raises(ConfigError):
            ConsConfig(window=4).validate()


class TestDistillLoss:
    def test_identical_features_zero(self):
        f = Rng(130).normals(4 * 4 * 3).reshape(4, 4, 3)
        out = distill_loss(f, f.copy())
        assert out.value == 0.0
        assert not out.grads["features"].any()

    def test_three_four_five_mean(self):
        now = np.tile(np.array([3.0, 4.0]), (2, 5, 1))
        prev = np.zeros((2, 5, 2))
        out = distill_loss(now, prev)
        assert out.value == pytest.approx(5.0, abs=1e-12)

    def test_gradient_is_unit_direction_over_n(self):
        now = np.array([[[3.0, 4.0]], [[0.0, 0.0]]])
        prev = np.zeros((2, 1, 2))
        out = distill_loss(now, prev)
        np.testing.assert_allclose(
            out.grads["features"][0, 0], [0.3, 0.4], atol=1e-12
        )
        assert not out.grads["features"][1, 0].any()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            distill_loss(np.zeros((2, 2, 3)), np.zeros((2, 2, 4)))

    def test_gradient_matches_finite_differences(self):
        rng = Rng(131)
        now = rng.normals(5 * 5 * 4).reshape(5, 5, 4)
        off = 0.3 + 0.5 * np.asarray(rng.uniforms(5 * 5 * 4)).reshape(5, 5, 4)
        prev = now - off

        def loss(params):
            return distill_loss(params["features"], prev)

        assert finite_diff_check(loss, {"features": now}) <= 1e-5


def test_loss_weights_validation():
    LossWeights().validate()
    with pytest.raises(ConfigError):
        LossWeights(lambda_cluster=-0.1).validate()


class TestBatchContract:
    """A (B, H, W, C) call is the sum of B single-image calls.

    Values agree to rounding; every image's gradient slice is bit-equal to
    the gradient of that image alone.  Image 1 of each batch contributes
    nothing (no supervised, live or distinct pixels).
    """

    B, H, W = 3, 5, 4

    def normals(self, rng, *shape):
        return rng.normals(int(np.prod(shape))).reshape(shape)

    def assert_batch_is_sum(self, loss, *batched):
        whole = loss(*batched)
        parts = [loss(*(arr[i] for arr in batched)) for i in range(self.B)]
        assert parts[1].value == 0.0
        assert whole.value == pytest.approx(
            sum(p.value for p in parts), rel=1e-12, abs=1e-12
        )
        for name, grad in whole.grads.items():
            assert grad.shape == batched[0].shape[:3] + grad.shape[3:]
            for i, part in enumerate(parts):
                assert grad[i].tobytes() == part.grads[name].tobytes()

    def test_weighted_ce(self):
        rng = Rng(140)
        k = 4
        logits = self.normals(rng, self.B, self.H, self.W, k)
        labels = np.array(
            [rng.randint(k) for _ in range(self.B * self.H * self.W)]
        ).reshape(self.B, self.H, self.W)
        unsupervised = rng.uniforms(self.B * self.H * self.W) <= 0.3
        labels[unsupervised.reshape(labels.shape)] = IGNORE_ID
        labels[1] = IGNORE_ID
        weights = 0.5 + rng.uniforms(k)
        self.assert_batch_is_sum(
            lambda z, y: weighted_ce(z, y, row_weights=weights), logits, labels
        )

    def test_cluster_loss(self):
        rng = Rng(141)
        protos = make_protos(
            {0: rng.normals(3), 1: rng.normals(3), 2: rng.normals(3)},
            uninitialized=[3],
        )
        cfg = ClusterConfig(margin=2.0).validate()
        feats = self.normals(rng, self.B, self.H, self.W, 3)
        labels = np.array(
            [rng.randint(4) for _ in range(self.B * self.H * self.W)]
        ).reshape(self.B, self.H, self.W)
        labels[1] = IGNORE_ID
        labels[2, 0] = IGNORE_ID
        self.assert_batch_is_sum(
            lambda f, y: cluster_loss(f, y, protos, cfg), feats, labels
        )

    @pytest.mark.parametrize(
        "b, h, w, d, k", [(4, 1, 1, 5, 4), (3, 1, 1, 16, 8), (6, 15, 15, 9, 1), (3, 3, 1, 16, 1)]
    )
    def test_cluster_loss_product_shapes(self, b, h, w, d, k):
        """Shapes where one (B*N, D) product would round a row block
        differently from B (N, D) products: one-pixel images, and a single
        prototype.  Every image keeps the bytes it gets alone."""
        rng = Rng(144 + d + k)
        protos = make_protos({c: rng.normals(d) for c in range(k)})
        cfg = ClusterConfig(margin=5.0).validate()
        feats = self.normals(rng, b, h, w, d)
        labels = np.array(
            [rng.randint(k) for _ in range(b * h * w)]
        ).reshape(b, h, w)
        whole = cluster_loss(feats, labels, protos, cfg)
        for i in range(b):
            part = cluster_loss(feats[i], labels[i], protos, cfg)
            assert whole.grads["features"][i].tobytes() == part.grads["features"].tobytes()

    def test_cons_loss(self):
        rng = Rng(142)
        cfg = ConsConfig(sigma_color=0.3)
        image = rng.uniforms(self.B * self.H * self.W * 3).reshape(
            self.B, self.H, self.W, 3
        )
        probs = softmax(self.normals(rng, self.B, self.H, self.W, 4))
        probs[1] = probs[1, 0, 0]
        self.assert_batch_is_sum(lambda x, p: cons_loss(x, p, cfg), image, probs)
        # an (H, W, C) image takes the batch path: the bytes of a batch of one
        alone, one = cons_loss(image[0], probs[0], cfg), cons_loss(image[:1], probs[:1], cfg)
        assert alone.value == one.value
        for name, grad in alone.grads.items():
            assert grad.shape == probs.shape[1:]
            assert grad.tobytes() == one.grads[name].tobytes()

    def test_distill_loss(self):
        rng = Rng(143)
        now = self.normals(rng, self.B, self.H, self.W, 3)
        prev = self.normals(rng, self.B, self.H, self.W, 3)
        prev[1] = now[1]
        self.assert_batch_is_sum(distill_loss, now, prev)


def loop_cluster_loss(features, labels, protos, cfg):
    """Per-prototype boolean gather/scatter form of ``cluster_loss``."""
    shape = features.shape
    b, n, d = shape[0], shape[1] * shape[2], shape[3]
    f = features.reshape(b * n, d)
    y = labels.reshape(-1)
    grad = np.zeros_like(f)
    live = y != IGNORE_ID
    n_live = np.count_nonzero(live.reshape(b, n), axis=1)
    loss = np.zeros(b * n)
    delta = cfg.margin
    for cid in protos.initialized_ids():
        p = protos.entries[cid].vector
        diff = f - p[None, :]
        dist = np.sqrt(np.sum(diff**2, axis=1))
        match = live & (y == cid)
        other = live & (y != cid)
        if match.any():
            loss[match] += dist[match]
            nz = match & (dist > 0)
            grad[nz] += diff[nz] / dist[nz, None]
        if other.any():
            active = other & (dist < delta)
            loss[active] += delta - dist[active]
            nz = active & (dist > 0)
            grad[nz] -= diff[nz] / dist[nz, None]
    n_live = np.maximum(n_live, 1)
    value = float(np.sum(loss.reshape(b, n).sum(axis=1) / n_live))
    grad = grad.reshape(b, n, d) / n_live[:, None, None]
    return value, grad.reshape(shape)


def loop_cons_loss(image, probs, cfg):
    """``cons_loss`` computing every ordered offset on its own."""
    h, w = probs.shape[1:3]
    dprobs = np.zeros_like(probs)
    values = np.zeros(probs.shape[0])
    n_pairs = 0
    two_s1 = 2.0 * cfg.sigma_color**2
    r = cfg.window // 2
    for dr in range(-r, r + 1):
        for dc in range(-r, r + 1):
            if (dr, dc) == (0, 0):
                continue
            r0, r1 = max(0, -dr), min(h, h - dr)
            c0, c1 = max(0, -dc), min(w, w - dc)
            if r0 >= r1 or c0 >= c1:
                continue
            a = (slice(None), slice(r0, r1), slice(c0, c1))
            b = (slice(None), slice(r0 + dr, r1 + dr), slice(c0 + dc, c1 + dc))
            color2 = np.sum((image[a] - image[b]) ** 2, axis=-1)
            affinity = np.exp(-color2 / two_s1)
            pdiff = probs[a] - probs[b]
            n_pairs += affinity[0].size
            pdiff2 = np.sum(pdiff**2, axis=-1)
            values += np.sum(affinity * pdiff2, axis=(1, 2))
            contrib = 2.0 * affinity[..., None] * pdiff
            dprobs[a] += contrib
            dprobs[b] -= contrib
    if n_pairs == 0:
        return 0.0, dprobs, dprobs.copy()
    dprobs /= n_pairs
    dlogits = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
    return float(np.sum(values / n_pairs)), dprobs, dlogits


def near_loop(got, ref):
    """``got`` is within 1e-12 * (1 + |ref|) of the loop reference ``ref``,
    element by element, and every gradient row the loop gives as exactly 0
    is exactly 0 here too."""
    got, ref = np.asarray(got), np.asarray(ref)
    if not np.all(np.abs(got - ref) <= 1e-12 * (1 + np.abs(ref))):
        return False
    if ref.ndim == 0:
        return True
    return bool(np.all(got[np.all(ref == 0, axis=-1)] == 0))


class TestBitIdentity:
    """The product-form cluster kernel and the one-visit consistency kernel
    stay within 1e-12 * (1 + |loop|) of the loop forms, and keep the loop's
    exact zeros."""

    def normals(self, rng, *shape):
        return rng.normals(int(np.prod(shape))).reshape(shape)

    def cluster_case(self, seed, b=3, h=6, w=5, d=4):
        rng = Rng(seed)
        protos = make_protos(
            {c: rng.normals(d) * 1.5 for c in range(4)}, uninitialized=[4]
        )
        feats = self.normals(rng, b, h, w, d)
        labels = np.array(
            [rng.randint(5) for _ in range(b * h * w)], dtype=np.int64
        ).reshape(b, h, w)
        labels[0, 0, :2] = IGNORE_ID
        labels[1] = IGNORE_ID  # an image with no live pixels
        # pixels exactly on a prototype: their own (attraction at distance
        # 0) and another class's (repulsion at distance 0)
        feats[0, 1, 0] = protos.entries[2].vector
        labels[0, 1, 0] = 2
        feats[2, 3, 4] = protos.entries[1].vector
        labels[2, 3, 4] = 3
        feats[2, 0, 0] = protos.entries[0].vector
        labels[2, 0, 0] = 4  # uninitialized class, repulsion only
        # a pixel that differs from its prototype, at a distance that
        # underflows to 0: it gets no gradient
        protos.entries[3].vector[0] = 0.0
        feats[0, 2, 0] = protos.entries[3].vector
        feats[0, 2, 0, 0] = 1e-170
        labels[0, 2, 0] = 3
        return feats, labels, protos

    def assert_cluster_near_loop(self, feats, labels, protos, cfg):
        got = cluster_loss(feats, labels, protos, cfg)
        value, grad = loop_cluster_loss(feats, labels, protos, cfg)
        assert near_loop(got.value, value)
        assert near_loop(got.grads["features"], grad)
        return got, grad

    @pytest.mark.parametrize("seed", [150, 151, 152])
    @pytest.mark.parametrize("margin", [0.5, 2.0, 10.0])
    def test_cluster_loss_equals_loop(self, seed, margin):
        feats, labels, protos = self.cluster_case(seed)
        cfg = ClusterConfig(margin=margin).validate()
        got, grad = self.assert_cluster_near_loop(feats, labels, protos, cfg)
        # the image with no live pixel gets +0.0 rows, as it would alone
        assert same_bytes(got.grads["features"][1], np.zeros_like(grad[1]))

    def test_cluster_loss_exact_zero_rows(self):
        """With a small margin nothing repels the pixels on their own
        prototype or the underflow pixel: the loop gives their rows as
        exactly 0, and so must the product form."""
        feats, labels, protos = self.cluster_case(150)
        cfg = ClusterConfig(margin=0.5).validate()
        got, grad = self.assert_cluster_near_loop(feats, labels, protos, cfg)
        for pixel in [(0, 1, 0), (2, 0, 0), (0, 2, 0)]:
            assert np.all(grad[pixel] == 0)
            assert np.all(got.grads["features"][pixel] == 0)

    @pytest.mark.parametrize("d", [9, 16])
    @pytest.mark.parametrize("margin", [2.0, 10.0])
    def test_cluster_loss_equals_loop_wide_features(self, d, margin):
        """D >= 8 takes the eight-partial-sum order of the norm sums."""
        feats, labels, protos = self.cluster_case(155 + d, d=d)
        cfg = ClusterConfig(margin=margin).validate()
        self.assert_cluster_near_loop(feats, labels, protos, cfg)

    def test_cluster_loss_with_uninitialized_prototypes_equals_loop(self):
        feats, labels, protos = self.cluster_case(153)
        protos.entries[1].initialized = False
        protos.entries[3].initialized = False
        cfg = ClusterConfig(margin=3.0).validate()
        self.assert_cluster_near_loop(feats, labels, protos, cfg)

    @pytest.mark.parametrize("side", [0.99, 1.01])
    @pytest.mark.parametrize("d", [4, 16])
    @pytest.mark.parametrize("seed", range(180, 185))
    def test_cluster_loss_near_the_fallback_threshold(self, side, d, seed):
        """A one-pixel image whose expanded squared distance to its own
        prototype is just below (direct difference) or just above (product
        form) ``NEAR * (|f|^2 + |p|^2)``; a second image holds a pixel just
        below the threshold for a hinge."""
        rng = Rng(seed)
        protos = make_protos({c: rng.normals(d) * 1.5 for c in range(3)})
        feats = np.empty((2, 1, 1, d))
        for i, cid in enumerate((1, 2)):
            p = protos.entries[cid].vector
            u = rng.normals(d)
            u /= np.sqrt(np.sum(u * u))
            ratio = side if i == 0 else 0.99
            t = 0.0
            for _ in range(6):  # |f - p|^2 = ratio * NEAR * (|f|^2 + |p|^2)
                f = p + t * u
                t = math.sqrt(ratio * NEAR * (f @ f + p @ p))
            feats[i, 0, 0] = p + t * u
        labels = np.array([1, 0]).reshape(2, 1, 1)
        f, p = feats[0, 0, 0], protos.entries[1].vector
        expanded = f @ f - 2.0 * (f @ p) + p @ p
        assert (expanded > NEAR * (f @ f + p @ p)) == (side > 1)
        self.assert_cluster_near_loop(
            feats, labels, protos, ClusterConfig(margin=2.0).validate()
        )

    @pytest.mark.parametrize("label", [IGNORE_ID, 4, 1])
    def test_cluster_loss_non_finite_feature(self, label):
        """The product form gives a non-finite feature a NaN gradient row
        whatever its label; the loop form does so only on a live pixel of an
        initialized class (1) and leaves ignore and uninitialized-class (4)
        pixels at 0.  The value and every other row stay near the loop."""
        feats, labels, protos = self.cluster_case(154)
        feats[2, 4, 1, 0] = np.inf
        labels[2, 4, 1] = label
        cfg = ClusterConfig(margin=3.0).validate()
        with np.errstate(invalid="ignore"):
            got = cluster_loss(feats, labels, protos, cfg)
            value, grad = loop_cluster_loss(feats, labels, protos, cfg)
        assert got.value == value or near_loop(got.value, value)
        dense = got.grads["features"].copy()
        assert np.isnan(dense[2, 4, 1]).any()
        assert np.isnan(grad[2, 4, 1]).any() == (label == 1)
        dense[2, 4, 1] = grad[2, 4, 1] = 0.0
        assert near_loop(dense, grad)

    def cons_case(self, seed, b, h, w, k=4):
        rng = Rng(seed)
        image = rng.uniforms(b * h * w * 3).reshape(b, h, w, 3)
        probs = softmax(self.normals(rng, b, h, w, k))
        # equal neighbours: zero differences in both directions
        image[0, : h // 2] = image[0, 0, 0]
        probs[0, : h // 2] = probs[0, 0, 0]
        return image, probs

    def assert_cons_near_loop(self, image, probs, cfg):
        got = cons_loss(image, probs, cfg)
        value, dprobs, dlogits = loop_cons_loss(image, probs, cfg)
        assert near_loop(got.value, value)
        assert near_loop(got.grads["probs"], dprobs)
        assert near_loop(got.grads["logits"], dlogits)

    @pytest.mark.parametrize("window", [3, 5])
    @pytest.mark.parametrize("grid", [(3, 7, 6), (2, 5, 1), (2, 1, 6), (1, 2, 2), (1, 1, 1)])
    def test_cons_loss_equals_loop(self, window, grid):
        image, probs = self.cons_case(160 + window, *grid)
        cfg = ConsConfig(sigma_color=0.3, window=window).validate()
        self.assert_cons_near_loop(image, probs, cfg)

    @pytest.mark.parametrize("window", [3, 5])
    @pytest.mark.parametrize("k", [6, 9])
    def test_cons_loss_equals_loop_many_classes(self, window, k):
        """K = 6 keeps a running sum over classes; K = 9 takes the
        eight-partial-sum order and one leftover class."""
        image, probs = self.cons_case(170 + k, 3, 7, 6, k=k)
        cfg = ConsConfig(sigma_color=0.3, window=window).validate()
        self.assert_cons_near_loop(image, probs, cfg)


class TestFloat32Accuracy:
    """Each loss computes in the dtype of the model outputs it is given.

    On float32 inputs at the acceptance sizes (6 images of 32 x 32, D = 16,
    K = 9) each loss's value and gradients stay within a stated bound of
    the float64 result on the same values.  Bounds are in float32 epsilons
    of the float64 value, or of each float64 gradient's largest magnitude.
    """

    EPS = float(np.finfo(np.float32).eps)
    # a few roundings per element, and float32 sums over 1024 pixels
    BOUND = 16 * EPS
    # a pair just above the direct-difference threshold keeps about
    # EPS / NEAR of its expanded squared distance
    CLUSTER_BOUND = EPS / NEAR

    @pytest.fixture(scope="class")
    def case(self):
        rng = Rng(310)
        params = grow_head(init_params(3, (1, 2, 3, 4, 5), 5, 16, (64, 32)),
                           (6, 7, 8), rng.split("grow"))
        for name, arr in params.blocks.items():
            if name.endswith(".b"):  # nonzero biases, so every term counts
                params.blocks[name] = (0.1 * rng.normals(arr.size)).astype(np.float32)
        images = rng.uniforms(6 * 32 * 32 * 3).reshape(6, 32, 32, 3).astype(np.float32)
        logits, cache = forward_batch(params, images)
        k = logits.shape[-1]
        labels = np.array(
            [rng.randint(k) for _ in range(6 * 32 * 32)]
        ).reshape(6, 32, 32)
        return images, logits, cache.feats.reshape(6, 32, 32, 16), labels

    def assert_close(self, got, want, bound):
        """float32 ``got`` against float64 ``want``: the dtypes, then the bound."""
        if isinstance(want, float):
            assert abs(got - want) <= bound * abs(want), (got, want)
            return
        assert got.dtype == np.float32 and want.dtype == np.float64
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= bound, err / self.EPS

    @pytest.mark.parametrize("supervised", [1.0, 0.2])
    def test_weighted_ce(self, case, supervised):
        _, logits, _, labels = case
        rng = Rng(311)
        unsupervised = rng.uniforms(labels.size).reshape(labels.shape) >= supervised
        labels = np.where(unsupervised, IGNORE_ID, labels)
        weights = 0.1 + 4.9 * rng.uniforms(logits.shape[-1])
        got = weighted_ce(logits, labels, weights)
        want = weighted_ce(logits.astype(np.float64), labels, weights)
        self.assert_close(got.value, want.value, self.BOUND)
        self.assert_close(got.grads["logits"], want.grads["logits"], self.BOUND)
        self.assert_close(got.probs, want.probs, self.BOUND)
        # the probabilities are exp(log-probabilities): the softmax, to rounding
        probs = softmax(logits.astype(np.float64))
        assert np.max(np.abs(want.probs - probs)) <= 8 * np.finfo(np.float64).eps

    @pytest.mark.parametrize("margin", [2.0, 10.0])
    def test_cluster_loss(self, case, margin):
        """Prototypes near some pixels (float32 values, so a pixel on one is
        at distance 0 in both dtypes), and pixels whose expanded squared
        distance to their own prototype sits around ``NEAR``."""
        _, _, feats, labels = case
        rng = Rng(312)
        feats = feats.copy()
        k = 9
        protos = make_protos({
            c: (feats[c % 6, 3 * c, c] + 0.1 * rng.normals(16)).astype(np.float32)
            for c in range(k)
        })
        labels = labels.copy()
        labels[labels == 8] = IGNORE_ID
        for j, ratio in enumerate([0.0, 0.5, 0.99, 1.01, 1.5, 2.0, 4.0, 10.0, 100.0] * 6):
            cid = j % k
            p = protos.entries[cid].vector
            u = rng.normals(16)
            u /= np.sqrt(u @ u)
            t = 0.0
            for _ in range(6):  # |f - p|^2 = ratio * NEAR * (|f|^2 + |p|^2)
                f = p + t * u
                t = math.sqrt(ratio * NEAR * (f @ f + p @ p))
            feats[j % 6, 5 + j // 6, 7] = p + t * u
            labels[j % 6, 5 + j // 6, 7] = cid
        cfg = ClusterConfig(margin=margin).validate()
        got = cluster_loss(feats, labels, protos, cfg)
        want = cluster_loss(feats.astype(np.float64), labels, protos, cfg)
        self.assert_close(got.value, want.value, self.BOUND)
        self.assert_close(got.grads["features"], want.grads["features"],
                          self.CLUSTER_BOUND)

    @pytest.mark.parametrize("sigma", [0.1, 0.3])
    def test_cons_loss(self, case, sigma):
        images, logits, _, _ = case
        cfg = ConsConfig(sigma_color=sigma).validate()
        got = cons_loss(images, softmax(logits), cfg)
        want = cons_loss(images.astype(np.float64),
                         softmax(logits).astype(np.float64), cfg)
        self.assert_close(got.value, want.value, self.BOUND)
        for name in ("probs", "logits"):
            self.assert_close(got.grads[name], want.grads[name], self.BOUND)

    def test_distill_loss(self, case):
        _, _, feats, _ = case
        rng = Rng(313)
        prev = (feats + 0.3 * rng.normals(feats.size).reshape(feats.shape)).astype(np.float32)
        prev[0, 0, 0] = feats[0, 0, 0]  # distance 0: no gradient in either dtype
        got = distill_loss(feats, prev)
        want = distill_loss(feats.astype(np.float64), prev.astype(np.float64))
        self.assert_close(got.value, want.value, self.BOUND)
        self.assert_close(got.grads["features"], want.grads["features"], self.BOUND)
        assert not got.grads["features"][0, 0, 0].any()

    def test_other_dtypes_compute_in_float64(self):
        """float16 and integer inputs are upcast to float64, as before, and
        so are inputs of mixed dtypes."""
        z = np.arange(12, dtype=np.float16).reshape(4, 3)
        ce = weighted_ce(z, np.zeros(4, np.int64))
        assert ce.grads["logits"].dtype == ce.probs.dtype == np.float64
        di = distill_loss(np.ones((2, 2), np.float32), np.zeros((2, 2)))
        assert di.grads["features"].dtype == np.float64
        image = np.zeros((3, 3, 3), np.uint8)
        co = cons_loss(image, softmax(np.zeros((3, 3, 2), np.float32)), ConsConfig())
        assert co.grads["logits"].dtype == np.float64


# A training-shaped forward, every float32 loss of the full preset and
# backward; prints a digest of every output byte.  Run in a fresh interpreter
# so that the BLAS thread count in its environment holds when NumPy is
# imported.
BLAS_CHILD = """
import hashlib
import numpy as np
from fairseg.losses import IGNORE_ID, ConsConfig, cluster_loss, cons_loss, weighted_ce
from fairseg.model import backward_batch, forward_batch, init_params
from fairseg.numerics import Rng
from fairseg.prototypes import ClusterConfig, PrototypeBank

rng = Rng(190)
params = init_params(3, (1, 2, 3, 4, 5), 5, 16, (64, 32))
images = rng.uniforms(6 * 32 * 32 * 3).reshape(6, 32, 32, 3).astype(np.float32)
_, cache = forward_batch(params, images)
feats = cache.feats.reshape(6, 32, 32, 16)
protos = PrototypeBank(16)
protos.register(range(6))
for cid, entry in protos.entries.items():
    entry.vector = feats[cid, cid, cid] + 0.1 * rng.normals(16)
    entry.initialized = True
feats[0, 3, 3] = protos.entries[2].vector
labels = np.array([rng.randint(7) for _ in range(6 * 32 * 32)]).reshape(6, 32, 32)
labels[labels == 6] = IGNORE_ID
labels[4] = IGNORE_ID
cl = cluster_loss(feats, labels, protos, ClusterConfig(margin=10.0).validate())
ce = weighted_ce(cache.logits.reshape(6, 32, 32, -1), labels, 0.5 + rng.uniforms(6))
co = cons_loss(images, ce.probs, ConsConfig().validate())
dlogits = ce.grads["logits"] + 10.0 * co.grads["logits"]
grads = backward_batch(params, cache, cl.grads["features"].reshape(-1, 16),
                       dlogits.reshape(cache.logits.shape))
h = hashlib.sha256(np.float64([cl.value, ce.value, co.value]).tobytes())
for arr in (cache.feats, cache.logits, cl.grads["features"], ce.grads["logits"],
            ce.probs, co.grads["logits"], *(grads[name] for name in sorted(grads))):
    assert arr.dtype == np.float32
    h.update(np.ascontiguousarray(arr).tobytes())
print(h.hexdigest())
"""


def test_bytes_do_not_depend_on_blas_threads():
    """The float32 forward and backward passes (sgemm) and the float32 CE,
    cluster and consistency values and gradients give the same bytes with
    one and with two BLAS threads, each count set before NumPy is
    imported.  This includes the cluster loss's per-image products and the
    first-layer weight gradient, a (64, 6144) x (6144, 75) product at the
    acceptance sizes, which two OpenBLAS 0.3.31 threads round differently
    in float64 (dgemm)."""
    import fairseg

    src = os.path.dirname(os.path.dirname(os.path.abspath(fairseg.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_CHILD], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
