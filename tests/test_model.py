"""Patch-MLP forward/backward, head growth, checkpoint persistence."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import ContainerRefusals, join_container, same_bytes, split_container
from fairseg import model
from fairseg.errors import ConfigError, DimensionError, FormatError, StateError
from fairseg.losses import (
    ConsConfig,
    cluster_loss,
    cons_loss,
    distill_loss,
    weighted_ce,
)
from fairseg.prototypes import ClusterConfig
from fairseg.model import (
    CHECKPOINT_MAGIC,
    TrainState,
    backward_batch,
    forward_batch,
    grow_head,
    init_params,
    load_checkpoint,
    patch_matrix,
    save_checkpoint,
)
from fairseg.numerics import GradSlot, Rng, finite_diff_check, softmax
from fairseg.prototypes import FeatureBank, PrototypeBank


def small_params(seed=5, classes=(1, 2), patch_size=3, feature_dim=4,
                 hidden=(6,)):
    return init_params(
        seed,
        classes,
        patch_size=patch_size,
        feature_dim=feature_dim,
        hidden=hidden,
    )


def random_image(rng, h, w):
    return rng.uniforms(h * w * 3).reshape(h, w, 3)


def forward_one(params, image):
    """One image's features and logits grids."""
    logits, cache = forward_batch(params, [image])
    return SimpleNamespace(features=cache.feats.reshape(*image.shape[:2], -1),
                           logits=logits[0])


class TestForward:
    def test_constant_image_constant_output(self):
        params = small_params()
        image = np.full((7, 9, 3), 0.4)
        pred = forward_one(params, image)
        probs = softmax(pred.logits)
        first_feat = pred.features[0, 0]
        first_prob = probs[0, 0]
        assert np.all(pred.features == first_feat)
        assert np.all(probs == first_prob)

    def test_zero_params_uniform_probs(self):
        params = small_params()
        for name in params.blocks:
            params.blocks[name] = np.zeros_like(params.blocks[name])
        pred = forward_one(params, random_image(Rng(3), 6, 6))
        k = params.num_rows
        np.testing.assert_allclose(
            softmax(pred.logits.astype(np.float64)), 1.0 / k, atol=1e-15
        )
        # the float32 logits' softmax is float32: exp(0) / k, rounded once
        probs = softmax(pred.logits)
        assert probs.dtype == np.float32
        assert np.all(probs == np.float32(1.0) / np.float32(k))

    def test_probs_are_distributions(self):
        params = small_params()
        pred = forward_one(params, random_image(Rng(4), 8, 5))
        sums = softmax(pred.logits.astype(np.float64)).sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        # in float32 each of the k terms and the running sum round once
        probs = softmax(pred.logits)
        assert probs.dtype == np.float32
        k = params.num_rows
        bound = (2 * k + 2) * np.finfo(np.float32).eps
        assert np.max(np.abs(probs.sum(axis=2) - 1.0)) <= bound

    def test_locality(self):
        params = small_params(patch_size=5)
        rng = Rng(6)
        image = random_image(rng, 12, 12)
        base = forward_one(params, image)
        bumped = image.copy()
        bumped[6, 7] += 0.05
        after = forward_one(params, bumped)
        changed = np.any(base.features != after.features, axis=2)
        rr, cc = np.nonzero(changed)
        assert len(rr) > 0
        assert np.max(np.abs(rr - 6)) <= 2
        assert np.max(np.abs(cc - 7)) <= 2

    def test_forward_batch_matches_single(self):
        params = small_params()
        rng = Rng(7)
        images = [random_image(rng, 6, 6) for _ in range(3)]
        logits, cache = forward_batch(params, images)
        assert logits.shape == (3, 6, 6, params.num_rows)
        feats = cache.feats.reshape(3, 6, 6, -1)
        for i, img in enumerate(images):
            alone = forward_one(params, img)
            np.testing.assert_array_equal(alone.features, feats[i])
            np.testing.assert_array_equal(alone.logits, logits[i])

    def test_deterministic(self):
        params = small_params()
        image = random_image(Rng(8), 6, 6)
        a = forward_one(params, image)
        b = forward_one(params, image)
        assert np.array_equal(a.logits, b.logits)

    def test_mixed_sizes_rejected(self):
        params = small_params()
        rng = Rng(97)
        with pytest.raises(DimensionError, match="one size"):
            forward_batch(params, [random_image(rng, 6, 6), random_image(rng, 6, 7)])

    def test_patch_larger_than_image_rejected(self):
        params = small_params(patch_size=5)
        with pytest.raises(ConfigError):
            forward_one(params, np.zeros((4, 4, 3)))


class TestPatchMatrix:
    def test_reflect_padding_oracle(self):
        rng = Rng(9)
        image = random_image(rng, 5, 6)
        k = 3
        mats = patch_matrix(image[None], k)
        padded = np.pad(image, ((1, 1), (1, 1), (0, 0)), mode="reflect")
        for r in (0, 2, 4):
            for c in (0, 3, 5):
                window = padded[r : r + k, c : c + k, :]
                np.testing.assert_array_equal(
                    mats[r * 6 + c], window.reshape(-1)
                )

    def test_shape(self):
        mats = patch_matrix(np.zeros((2, 8, 9, 3)), 5)
        assert mats.shape == (144, 75)

    def test_bad_image_shape(self):
        with pytest.raises(DimensionError):
            patch_matrix(np.zeros((1, 8, 9, 4)), 3)
        with pytest.raises(DimensionError):  # one image, not a batch
            patch_matrix(np.zeros((8, 9, 3)), 3)


def patch_matrix_one(image, patch_size):
    """Per-image patch rows, the form the batch matrix must reproduce."""
    h, w, _ = image.shape
    k = patch_size
    r = k // 2
    padded = np.pad(image, ((r, r), (r, r), (0, 0)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(0, 1))
    patches = np.ascontiguousarray(windows.transpose(0, 1, 3, 4, 2))
    return patches.reshape(h * w, k * k * 3)


def reference_forward(params, images):
    """Fresh-array forward pass in the parameters' dtype, keeping the
    pre-activations; the probabilities are taken in the logits' dtype, as
    the losses take them.  Returns a dict."""
    x = np.vstack([patch_matrix_one(img.astype(params.dtype), params.patch_size)
                   for img in images])
    a = x
    pre, act = [], []
    for i in range(len(params.hidden)):
        z = a @ params.blocks[f"enc{i}.W"].T + params.blocks[f"enc{i}.b"]
        a = np.maximum(z, 0.0)
        pre.append(z)
        act.append(a)
    feats = a @ params.blocks["feat.W"].T + params.blocks["feat.b"]
    logits = feats @ params.blocks["head.W"].T + params.blocks["head.b"]
    e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    return dict(x=x, pre=pre, act=act, feats=feats, logits=logits,
                probs=e / np.sum(e, axis=1, keepdims=True))


def reference_backward(params, ref, dfeats, dlogits):
    """Backward pass masking with ``pre > 0`` and fresh arrays throughout,
    on upstream gradients cast to the parameters' dtype."""
    dfeats = dfeats.astype(params.dtype)
    dlogits = dlogits.astype(params.dtype)
    grads = {}
    grads["head.W"] = dlogits.T @ ref["feats"]
    grads["head.b"] = dlogits.sum(axis=0)
    df = dfeats + dlogits @ params.blocks["head.W"]
    last_act = ref["act"][-1] if ref["act"] else ref["x"]
    grads["feat.W"] = df.T @ last_act
    grads["feat.b"] = df.sum(axis=0)
    da = df @ params.blocks["feat.W"]
    for i in range(len(params.hidden) - 1, -1, -1):
        dz = da * (ref["pre"][i] > 0)
        below = ref["act"][i - 1] if i > 0 else ref["x"]
        grads[f"enc{i}.W"] = dz.T @ below
        grads[f"enc{i}.b"] = dz.sum(axis=0)
        if i > 0:
            da = dz @ params.blocks[f"enc{i}.W"]
    return grads


class TestBitIdentity:
    """The batched, in-place model gives the per-image, fresh-array bytes."""

    @pytest.mark.parametrize("shape", [(3, 7, 6), (2, 5, 5), (1, 9, 5)])
    @pytest.mark.parametrize("patch_size", [3, 5])
    def test_patch_matrix_equals_per_image_vstack(self, shape, patch_size):
        b, h, w = shape
        rng = Rng(90 + h)
        images = [random_image(rng, h, w) for _ in range(b)]
        want = np.vstack([patch_matrix_one(img, patch_size) for img in images])
        assert same_bytes(patch_matrix(np.stack(images), patch_size), want)

    @pytest.mark.parametrize("hidden", [(6,), (7, 5), ()])
    def test_forward_and_backward_equal_reference(self, hidden):
        self.assert_equal_reference(hidden, feature_dim=4, seed=94)

    @pytest.mark.parametrize("hidden, feature_dim", [((1,), 4), ((6,), 1)],
                             ids=["hidden", "feature"])
    def test_one_wide_layer_equals_reference(self, hidden, feature_dim):
        """A one-wide layer's bias gradient is a one-column sum, which NumPy
        adds pairwise; on this seed's data adding the rows in order gives
        other bytes for both layers."""
        self.assert_equal_reference(hidden, feature_dim, seed=99)

    def assert_equal_reference(self, hidden, feature_dim, seed):
        params = small_params(seed=93, classes=(1, 2, 3), hidden=hidden,
                              feature_dim=feature_dim)
        rng = Rng(seed)
        images = [random_image(rng, 6, 5).astype(np.float32) for _ in range(3)]
        # a bias shift that zeroes many ReLU units, so the mask matters
        for i in range(len(hidden)):
            shifted = rng.normals(hidden[i]) - 0.5
            params.blocks[f"enc{i}.b"] = shifted.astype(params.dtype)
        logits, cache = forward_batch(params, images)
        ref = reference_forward(params, images)
        for name in ("x", "feats", "logits"):
            assert same_bytes(getattr(cache, name), ref[name]), name
        assert same_bytes(softmax(cache.logits), ref["probs"])
        # against the float64 softmax of the same logits: each probability
        # rounds in the subtraction, exp, the k-term sum and the division
        probs64 = softmax(cache.logits.astype(np.float64))
        bound = (params.num_rows + 4) * np.finfo(np.float32).eps
        assert np.max(np.abs(ref["probs"] - probs64)) <= bound
        assert len(cache.act) == len(hidden)
        for got, want in zip(cache.act, ref["act"]):
            assert same_bytes(got, want)
        assert same_bytes(logits, ref["logits"].reshape(3, 6, 5, -1))
        dfeats = rng.normals(cache.feats.size).reshape(cache.feats.shape)
        dlogits = rng.normals(cache.logits.size).reshape(cache.logits.shape)
        dfeats[::4] = 0.0
        grads = backward_batch(params, cache, dfeats, dlogits)
        want = reference_backward(params, ref, dfeats, dlogits)
        assert sorted(grads) == sorted(want)
        for name in want:
            assert same_bytes(grads[name], want[name]), name

    def test_relu_mask_from_activations_equals_pre_activation_mask(self):
        params = small_params(seed=95, hidden=(8, 6))
        images = [random_image(Rng(96), 7, 7)]
        _, cache = forward_batch(params, images)
        ref = reference_forward(params, images)
        for act, pre in zip(cache.act, ref["pre"]):
            assert np.array_equal(act > 0, pre > 0)
            assert (pre <= 0).any() and (pre > 0).any()


class TestFloat32Accuracy:
    """The float32 model against the same parameters in float64."""

    # relative to each float64 array's largest magnitude; ~840 float32
    # epsilons, room for the rounding of sums over 6144 batch rows
    RTOL = 1e-4

    def test_agrees_with_float64_at_acceptance_sizes(self):
        rng = Rng(300)
        p32 = grow_head(init_params(3, (1, 2, 3, 4, 5), 5, 16, (64, 32)),
                        (6, 7, 8), rng.split("grow"))
        for name, arr in p32.blocks.items():
            if name.endswith(".b"):  # nonzero biases, so every term counts
                p32.blocks[name] = (0.1 * rng.normals(arr.size)).astype(np.float32)
        p64 = p32.copy()
        p64.blocks = {k: v.astype(np.float64) for k, v in p32.blocks.items()}
        images = rng.uniforms(6 * 32 * 32 * 3).reshape(6, 32, 32, 3).astype(np.float32)
        _, c32 = forward_batch(p32, images)
        _, c64 = forward_batch(p64, images)
        dfeats = rng.normals(c64.feats.size).reshape(c64.feats.shape)
        dlogits = rng.normals(c64.logits.size).reshape(c64.logits.shape)
        g32 = backward_batch(p32, c32, dfeats, dlogits)
        g64 = backward_batch(p64, c64, dfeats, dlogits)
        # the dtype follows the parameters
        for arr in [c32.x, c32.feats, c32.logits, *c32.act, *g32.values()]:
            assert arr.dtype == np.float32
        for arr in [c64.x, c64.feats, c64.logits, *c64.act, *g64.values()]:
            assert arr.dtype == np.float64
        pairs = [("feats", c32.feats, c64.feats), ("logits", c32.logits, c64.logits)]
        pairs += [(name, g32[name], g64[name]) for name in g64]
        for name, got, want in pairs:
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= self.RTOL, (name, err)


class TestGrowHead:
    def test_rows_preserved(self):
        params = small_params(2, (1, 2, 3, 4, 5))
        assert params.num_rows == 6
        grown = grow_head(params, (6, 7, 8), Rng(77).split("grow/step2"))
        assert grown.num_rows == 9
        assert all(arr.dtype == np.float32 for arr in grown.blocks.values())
        np.testing.assert_array_equal(
            grown.blocks["head.W"][:6], params.blocks["head.W"]
        )
        np.testing.assert_array_equal(
            grown.blocks["head.b"][:6], params.blocks["head.b"]
        )

    def test_old_logits_unchanged(self):
        params = small_params()
        image = random_image(Rng(10), 6, 6)
        before = forward_one(params, image)
        grown = grow_head(params, (3,), Rng(1))
        after = forward_one(grown, image)
        np.testing.assert_array_equal(
            before.logits, after.logits[:, :, : params.num_rows]
        )

    def test_new_rows_deterministic_in_seed(self):
        params = small_params()
        a = grow_head(params, (3, 4), Rng(123))
        b = grow_head(params, (3, 4), Rng(123))
        np.testing.assert_array_equal(a.blocks["head.W"], b.blocks["head.W"])
        c = grow_head(params, (3, 4), Rng(124))
        assert not np.array_equal(a.blocks["head.W"], c.blocks["head.W"])

    def test_empty_growth_rejected(self):
        with pytest.raises(ConfigError):
            grow_head(small_params(), (), Rng(1))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        params = small_params()
        _, cache = forward_batch(params, [random_image(Rng(11), 6, 6)])
        grads = backward_batch(
            params,
            cache,
            np.zeros_like(cache.feats),
            np.zeros_like(cache.logits),
        )
        for g in grads.values():
            assert not g.any()

    def test_linearity(self):
        params = small_params()
        rng = Rng(12)
        _, cache = forward_batch(params, [random_image(rng, 6, 6)])
        df = rng.normals(cache.feats.size).reshape(cache.feats.shape)
        dl = rng.normals(cache.logits.size).reshape(cache.logits.shape)
        one = backward_batch(params, cache, df, dl)
        two = backward_batch(params, cache, 2.0 * df, 2.0 * dl)
        for name in one:
            np.testing.assert_allclose(
                two[name], 2.0 * one[name], atol=1e-12
            )

    def test_no_feature_grad_equals_zero_feature_grad(self):
        """``dfeats=None`` (no feature loss on) gives the gradient bytes of
        a zero feature gradient, also for pixels no loss supervises."""
        params = small_params()
        rng = Rng(14)
        _, cache = forward_batch(params, [random_image(rng, 6, 6)] * 2)
        dl = rng.normals(cache.logits.size).reshape(cache.logits.shape)
        dl[::3] = 0.0  # unsupervised pixels
        dl = dl.astype(np.float32)
        none = backward_batch(params, cache, None, dl)
        zero = backward_batch(params, cache, np.zeros_like(cache.feats), dl)
        assert none.keys() == zero.keys()
        for name, g in zero.items():
            assert same_bytes(none[name], g), name

    def test_shape_mismatch_rejected(self):
        params = small_params()
        _, cache = forward_batch(params, [random_image(Rng(13), 5, 5)])
        with pytest.raises(DimensionError):
            backward_batch(
                params, cache, np.zeros((3, 4)), np.zeros_like(cache.logits)
            )

    def test_quadratic_surrogate_matches_finite_differences(self):
        """Parameter-space check through every layer of the network."""
        params = small_params(seed=21, classes=(1, 2), patch_size=3,
                              feature_dim=4, hidden=(6,))
        rng = Rng(22)
        image = random_image(rng, 5, 5)
        wf = rng.uniforms(25 * 4).reshape(25, 4) + 0.5
        wl = rng.uniforms(25 * 3).reshape(25, 3) + 0.5

        def loss(blocks):
            trial = params.copy()
            trial.blocks = {k: np.asarray(v) for k, v in blocks.items()}
            _, cache = forward_batch(trial, [image])
            value = float(
                np.sum(wf * cache.feats**2) + np.sum(wl * cache.logits**2)
            )
            grads = backward_batch(
                trial, cache, 2.0 * wf * cache.feats, 2.0 * wl * cache.logits
            )
            return GradSlot(value=value, grads=grads)

        err = finite_diff_check(loss, params.blocks, epsilon=1e-6)
        assert err <= 1e-5

    def test_full_loss_stack_matches_finite_differences(self):
        """CE + clustering + smoothness + distillation, 8x8 image, 4 classes."""
        params = small_params(seed=31, classes=(1, 2, 3, 4), patch_size=3,
                              feature_dim=5, hidden=(6,))
        rng = Rng(32)
        h = w = 8
        image = random_image(rng, h, w)
        labels = np.array(
            [rng.randint(5) for _ in range(h * w)], dtype=np.int64
        ).reshape(h, w)
        protos = PrototypeBank(5)
        protos.register([0, 1, 2, 3, 4])
        for cid in range(5):
            entry = protos.entries[cid]
            entry.vector = rng.normals(5) * 2.0
            entry.initialized = True
        ccfg = ClusterConfig(margin=1.0).validate()
        ncfg = ConsConfig().validate()
        feats_prev = rng.normals(h * w * 5).reshape(h, w, 5)
        row_weights = np.asarray(rng.uniforms(5) + 0.5)

        def loss(blocks):
            trial = params.copy()
            trial.blocks = {k: np.asarray(v) for k, v in blocks.items()}
            _, cache = forward_batch(trial, [image])
            feats = cache.feats.reshape(h, w, 5)
            logits = cache.logits.reshape(h, w, -1)
            ce = weighted_ce(
                logits.reshape(h * w, -1), labels.reshape(-1), row_weights=row_weights
            )
            clu = cluster_loss(feats, labels, protos, ccfg)
            con = cons_loss(image, softmax(cache.logits).reshape(h, w, -1), ncfg)
            dis = distill_loss(feats, feats_prev)
            value = ce.value + 0.5 * clu.value + 0.25 * con.value + dis.value
            dfeats = (
                0.5 * clu.grads["features"] + dis.grads["features"]
            ).reshape(h * w, 5)
            dlogits = ce.grads["logits"] + 0.25 * con.grads[
                "logits"
            ].reshape(h * w, -1)
            grads = backward_batch(trial, cache, dfeats, dlogits)
            return GradSlot(value=value, grads=grads)

        err = finite_diff_check(loss, params.blocks, epsilon=1e-6)
        assert err <= 1e-5


def make_checkpoint(seed=51, with_distill=False):
    """A TrainState in the middle of step 2, after two epochs of step 1 and
    three of step 2; ``with_distill`` keeps the step-1 model as the
    distillation teacher."""
    rng = Rng(seed)
    step1 = small_params(seed=seed, classes=(1, 2))
    params = grow_head(step1, (3,), rng.split("grow"))
    distill_params = step1 if with_distill else None
    # momentum in the parameters' dtype, as init_state makes it
    momentum = {k: (rng.normals(v.size).reshape(v.shape) * 0.01).astype(v.dtype)
                for k, v in params.blocks.items()}
    protos = PrototypeBank(params.feature_dim)
    protos.register([0, 1, 2])
    protos.entries[1].vector = rng.normals(params.feature_dim)
    protos.entries[1].initialized = True
    protos.entries[1].frozen = True
    bank = FeatureBank(params.feature_dim, 7)
    bank.deposit_many(0, [rng.normals(params.feature_dim)])
    bank.deposit_many(2, [rng.normals(params.feature_dim)])
    bank.deposit_many(2, [rng.normals(params.feature_dim)])
    return TrainState(
        params=params,
        momentum=momentum,
        protos=protos,
        bank=bank,
        preset="cluster-class",
        distill_params=distill_params,
        log=[dict(row) for row in MID_STEP_2_LOG],
        mious=[0.625],
    )


# a loss-log row, as run_continual appends one per epoch
LOG_ROW = {"step": 1, "epoch": 0, "iteration": 1, "lr": 0.05, "ce": 1.5,
           "cluster": 0.25, "cons": 0.0, "distill": 0.0, "total": 1.5}
# make_checkpoint's log: epochs 0-1 of step 1, then epochs 0-2 of step 2
MID_STEP_2_LOG = [dict(LOG_ROW, step=s, epoch=e, iteration=e + 1)
                  for s, epochs in ((1, 2), (2, 3)) for e in range(epochs)]
LOG_ORDER = re.escape("log does not run through epochs 0, 1, ... of steps 1 to 2 in order")


class TestCheckpoint(ContainerRefusals):
    kind = "checkpoint"
    magic = CHECKPOINT_MAGIC
    old_version = 3

    def save(self, path, variant=0):
        save_checkpoint(path, make_checkpoint(seed=51 + variant))

    def load(self, path):
        return load_checkpoint(path)

    @pytest.mark.parametrize("with_distill", [False, True])
    def test_save_load_save_byte_identical(self, tmp_path, with_distill):
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        ckpt = make_checkpoint(with_distill=with_distill)
        save_checkpoint(first, ckpt)
        loaded = load_checkpoint(first)
        save_checkpoint(second, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_preserves_state(self, tmp_path):
        path = tmp_path / "c.ckpt"
        ckpt = make_checkpoint(with_distill=True)
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert (back.step, back.epoch) == (ckpt.step, ckpt.epoch) == (2, 3)
        assert back.preset == "cluster-class"
        assert back.params.class_steps == ckpt.params.class_steps
        assert back.params.hidden == ckpt.params.hidden
        for name, arr in ckpt.params.blocks.items():
            np.testing.assert_array_equal(back.params.blocks[name], arr)
        for name, arr in ckpt.momentum.items():
            np.testing.assert_array_equal(back.momentum[name], arr)
        assert back.distill_params.class_steps == ((1, 2),)
        assert back.distill_params.hidden == ckpt.params.hidden
        for name, arr in ckpt.distill_params.blocks.items():
            np.testing.assert_array_equal(back.distill_params.blocks[name], arr)
        assert sorted(back.protos.entries) == [0, 1, 2]
        assert back.protos.entries[1].frozen and back.protos.is_initialized(1)
        np.testing.assert_array_equal(
            back.protos.entries[1].vector, ckpt.protos.entries[1].vector
        )
        assert len(back.bank.queues[2]) == 2
        np.testing.assert_array_equal(
            back.bank.mean(2), ckpt.bank.mean(2)
        )
        assert back.bank.capacity == 7
        assert back.log == ckpt.log
        assert back.mious == ckpt.mious

    def test_version_4_checkpoint_refused(self, tmp_path, monkeypatch):
        """A version-4 file, every array float64, is refused, not misread."""
        path = tmp_path / "v4.ckpt"
        ckpt = make_checkpoint()
        ckpt.params.blocks = {k: v.astype(np.float64) for k, v in ckpt.params.blocks.items()}
        ckpt.momentum = {k: v.astype(np.float64) for k, v in ckpt.momentum.items()}
        with monkeypatch.context() as old:
            old.setattr(model, "CHECKPOINT_VERSION", 4)
            old.setattr(model, "_dtype_of", lambda name: "<f8")
            save_checkpoint(path, ckpt)
        with pytest.raises(FormatError,
                           match="unsupported checkpoint version 4") as info:
            load_checkpoint(path)
        assert info.value.offset == 4

    def test_version_6_checkpoint_refused(self, tmp_path):
        """A version-6 file keeps a header iteration count that this
        version derives from the epoch."""
        path = tmp_path / "v6.ckpt"
        save_checkpoint(path, make_checkpoint())
        raw = bytearray(path.read_bytes())
        raw[4:6] = (6).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: unsupported checkpoint version 6")) as info:
            load_checkpoint(path)
        assert info.value.offset == 4

    @pytest.mark.parametrize("key, value, message", [
        ("log", None, r"KeyError\('log'\)"),
        ("mious", None, r"KeyError\('mious'\)"),
        ("log", {"0": LOG_ROW}, "log is not a list of step, epoch, iteration"),
        ("log", [[1, 0, 1]], "log is not a list of step"),
        ("log", [{k: v for k, v in LOG_ROW.items() if k != "total"}],
         "log is not a list of step"),
        ("log", [dict(LOG_ROW, seconds=0.5)], "log is not a list of step"),
        ("log", [dict(LOG_ROW, epoch=0.0)], "log is not a list of step"),
        ("log", [dict(LOG_ROW, ce="1.5")], "log is not a list of step"),
        ("mious", 0.625, r"mious is not a list of at most 1 mIoU values"),
        ("mious", ["0.625"], r"mious is not a list of at most 1 mIoU values"),
        ("mious", [0.625, 0.5], r"mious is not a list of at most 1 mIoU values"),
        ("log", MID_STEP_2_LOG[:2] + [dict(LOG_ROW, step=2, epoch=-1)], LOG_ORDER),
        ("log", MID_STEP_2_LOG + [dict(LOG_ROW, step=3)], LOG_ORDER),
        ("log", MID_STEP_2_LOG[:2] + [dict(LOG_ROW, step=2, epoch=e) for e in (0, 2)],
         LOG_ORDER),
        ("log", MID_STEP_2_LOG[2:] + MID_STEP_2_LOG[:2], LOG_ORDER),
        ("log", MID_STEP_2_LOG[2:], LOG_ORDER),
    ], ids=["log_missing", "mious_missing", "log_not_list", "row_not_dict",
            "row_short", "row_extra", "row_int_as_float", "row_string",
            "mious_not_list", "miou_string", "mious_too_long", "epoch_negative",
            "step_past_model", "epoch_skipped", "steps_out_of_order",
            "step_without_rows"])
    def test_malformed_log_or_mious_rejected(self, tmp_path, key, value, message):
        """The loss log is a list of rows of exactly the loss-log fields,
        and mious at most one float per step before the checkpoint's.  The
        log is the resume point: its rows run through epochs 0, 1, ... of
        each of the model's steps in order, every step but the last with at
        least one."""
        self.assert_header_refused(tmp_path, key, value, message)

    @pytest.mark.parametrize("key, value, message", [
        ("patch_size", 3.0, "patch_size 3.0 is not an odd int >= 1"),
        ("patch_size", 4, "patch_size 4 is not an odd int >= 1"),
        ("feature_dim", 0, "feature_dim 0 is not an int >= 1"),
        ("feature_dim", True, "feature_dim True is not an int >= 1"),
        ("hidden", [0], "hidden width 0 is not an int >= 1"),
        ("hidden", [6.0], "hidden width 6.0 is not an int >= 1"),
        ("bank_capacity", 0, "bank_capacity 0 is not an int >= 1"),
        ("bank_capacity", "7", "bank_capacity '7' is not an int >= 1"),
    ], ids=["patch_float", "patch_even", "feature_dim_zero", "feature_dim_bool",
            "hidden_zero", "hidden_float", "bank_capacity_zero", "bank_capacity_string"])
    def test_malformed_model_size_rejected(self, tmp_path, key, value, message):
        """Each size is an int >= 1 and the patch odd, so that a bad header
        stops as a format error naming the file, not as a config error or
        a TypeError when the model is built or used."""
        self.assert_header_refused(tmp_path, key, value, message)

    def assert_header_refused(self, tmp_path, key, value, message):
        """A checkpoint whose header entry ``key`` is ``value``, or missing
        when that is None, is refused by name with ``message``."""
        path = tmp_path / "header.ckpt"
        save_checkpoint(path, make_checkpoint())
        header, body = split_container(path)
        if value is None:
            del header[key]
        else:
            header[key] = value
        join_container(path, json.dumps(header).encode(), body)
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: .*{message}"):
            load_checkpoint(path)

    def test_version_7_checkpoint_refused(self, tmp_path):
        """A version-7 file stores the step and epoch in its header, which
        this version derives from the model and the loss log."""
        path = tmp_path / "v7.ckpt"
        save_checkpoint(path, make_checkpoint())
        raw = bytearray(path.read_bytes())
        raw[4:6] = (7).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: unsupported checkpoint version 7")) as info:
            load_checkpoint(path)
        assert info.value.offset == 4

    def test_bank_queue_of_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "bank.ckpt"
        ckpt = make_checkpoint()
        ckpt.bank.queues[2] = np.zeros((2, ckpt.params.feature_dim + 1))
        save_checkpoint(path, ckpt)
        with pytest.raises(FormatError,
                           match=r"bank/2 is \(2, 5\), expected shape \(n <= 7, 4\)"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(path, make_checkpoint())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_header_lists_every_array_in_file_order(self, tmp_path):
        path = tmp_path / "layout.ckpt"
        ckpt = make_checkpoint(with_distill=True)
        save_checkpoint(path, ckpt)
        header, body = split_container(path)
        names = [name for name, _ in header["arrays"]]
        assert names[0].startswith("params/")
        assert names[-3:] == ["proto/2", "bank/0", "bank/2"]
        assert [n.split("/")[0] for n in names] == sorted(
            (n.split("/")[0] for n in names),
            key=["params", "momentum", "distill", "proto", "bank"].index,
        )
        assert header["protos"] == [[0, False, False], [1, True, True],
                                    [2, False, False]]
        assert header["bank_capacity"] == 7
        assert header["log"] == ckpt.log and header["mious"] == [0.625]
        # the model and the log's rows carry the position and the count
        assert not {"step", "epoch", "iteration"} & header.keys()
        # model blocks are float32; prototypes and banks float64
        sizes = [(8 if name.startswith(("proto/", "bank/")) else 4)
                 * int(np.prod(shape)) for name, shape in header["arrays"]]
        assert len(body) == sum(sizes)

    def test_other_prng_rejected(self, tmp_path):
        path = tmp_path / "rng.ckpt"
        save_checkpoint(path, make_checkpoint())
        header, body = split_container(path)
        header["rng"] = "mt19937"
        join_container(path, json.dumps(header).encode(), body)
        with pytest.raises(FormatError, match="PRNG 'mt19937'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("class_steps", [
        [[1, 3]], [[2, 1]], [[1], [1]], [[1, 2], []],
    ], ids=["gap", "out_of_order", "duplicate", "empty_step"])
    def test_class_registry_not_numbered_in_step_order_rejected(
            self, tmp_path, class_steps):
        path = tmp_path / "classes.ckpt"
        save_checkpoint(path, make_checkpoint())
        header, body = split_container(path)
        header["class_steps"] = class_steps
        join_container(path, json.dumps(header).encode(), body)
        with pytest.raises(FormatError, match="class registry"):
            load_checkpoint(path)

    def test_missing_prototype_array_rejected(self, tmp_path):
        path = tmp_path / "proto.ckpt"
        save_checkpoint(path, make_checkpoint())
        header, body = split_container(path)
        header["protos"].append([7, False, False])
        join_container(path, json.dumps(header).encode(), body)
        with pytest.raises(FormatError, match="proto/7"):
            load_checkpoint(path)

    def test_float64_model_block_refused_and_previous_file_kept(self, tmp_path):
        path = tmp_path / "f64.ckpt"
        save_checkpoint(path, make_checkpoint())
        before = path.read_bytes()
        ckpt = make_checkpoint(seed=52)
        ckpt.params.blocks["head.W"] = ckpt.params.blocks["head.W"].astype(np.float64)
        with pytest.raises(StateError, match="params/head.W is float64, stored as <f4"):
            save_checkpoint(path, ckpt)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f64.ckpt"]

    @pytest.mark.parametrize("name, shape, message", [
        ("params/enc0.b", None, "params/enc0.b is missing"),
        ("momentum/enc0.W", None, "momentum/enc0.W is missing"),
        ("distill/head.b", None, "distill/head.b is missing"),
        ("params/head.W", (3, 4), r"params/head.W is \(3, 4\), expected shape \(4, 4\)"),
        ("momentum/head.b", (3,), r"momentum/head.b is \(3,\), expected shape \(4,\)"),
        ("distill/head.W", (4, 4), r"distill/head.W is \(4, 4\), expected shape \(3, 4\)"),
        ("params/enc9.W", (2, 2), "params/enc9.W is not a model block"),
    ], ids=["params_missing", "momentum_missing", "distill_missing", "params_shape",
            "momentum_shape", "distill_shape", "extra_block"])
    def test_model_array_missing_or_misshaped_rejected(self, tmp_path, name,
                                                         shape, message):
        """Model, momentum and distill blocks must be exactly those of the
        header's model shape; the distill model has one step less."""
        path = tmp_path / "blocks.ckpt"
        ckpt = make_checkpoint(with_distill=True)
        prefix, block = name.split("/")
        arrays = {"params": ckpt.params.blocks, "momentum": ckpt.momentum,
                  "distill": ckpt.distill_params.blocks}[prefix]
        if shape is None:
            del arrays[block]
        else:
            arrays[block] = np.zeros(shape, dtype=np.float32)
        save_checkpoint(path, ckpt)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)
