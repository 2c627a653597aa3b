"""Continual training loop: determinism, resume, protocol enforcement."""

import os
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest

from conftest import same_bytes, separable_samples
from fairseg import trainer
from fairseg.errors import (
    ConfigError,
    DimensionError,
    FormatError,
    LabelError,
    ProtocolError,
)
from fairseg.losses import class_weights, weighted_ce
from fairseg.model import backward_batch, forward_batch, load_checkpoint, save_checkpoint
from fairseg.numerics import Rng
from fairseg.prototypes import ClusterConfig, PrototypeBank
from fairseg.synthdata import (
    IGNORE_ID,
    TaskSplit,
    collapse_labels,
    select_step_indices,
)
from fairseg.trainer import (
    LOG_FIELDS,
    TrackedDataset,
    TrainConfig,
    build_effective_labels,
    init_state,
    run_continual,
    run_step,
    sgd_update,
)


def tiny_config(**overrides):
    kwargs = dict(
        split=TaskSplit.from_sizes("2-2", 4),
        epochs=2,
        batch_size=4,
        patch_size=3,
        feature_dim=4,
        hidden=(8,),
        seed=1,
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs).validate()


# every file a run with test samples writes, config aside
RUN_FILES = (
    "step1.ckpt", "step2.ckpt", "latest.ckpt", "losses.csv",
    "summary_step1.txt", "summary_step2.txt", "summary.txt",
)
# the files a resume from a mid-step-2 checkpoint writes
STEP2_FILES = (
    "step2.ckpt", "latest.ckpt", "losses.csv", "summary_step2.txt", "summary.txt",
)


def assert_same_files(out, straight, names):
    """``out`` holds ``names``, each with the bytes of ``straight``'s file,
    and every other file it holds has those bytes too."""
    assert set(os.listdir(out)) >= set(names)
    for name in os.listdir(out):
        assert (out / name).read_bytes() == (straight / name).read_bytes(), name


def keep_mid_step(tmp_path, real_save, at=(2, 1)):
    """A save_checkpoint that also copies the latest.ckpt of (step, epoch)
    ``at`` to ``tmp_path / "mid.ckpt"``."""

    def save(path, state):
        real_save(path, state)
        if os.path.basename(path) == "latest.ckpt" and (
                state.step, state.epoch) == at:
            shutil.copy(path, tmp_path / "mid.ckpt")

    return save


def final_bytes(tmp_path, name, cfg, samples, **kwargs):
    out = tmp_path / name
    run_continual(cfg, samples, out_dir=out, **kwargs)
    return (out / f"step{cfg.split.num_steps}.ckpt").read_bytes()


class TestTrainConfig:
    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            tiny_config(epochs=0)
        with pytest.raises(ConfigError):
            tiny_config(batch_size=0)
        with pytest.raises(ConfigError):
            tiny_config(lr_initial=0.0)
        with pytest.raises(ConfigError):
            tiny_config(sgd_momentum=1.0)
        with pytest.raises(ConfigError):
            tiny_config(weight_decay=-1e-4)

    def test_ablation_presets(self):
        cfg = tiny_config()
        assert cfg.preset == "full"
        # (cluster, class weighting, cons, distill) of each preset
        grid = {
            "fine-tune": (False, False, False, False),
            "distill": (False, False, False, True),
            "cluster": (True, False, False, False),
            "cluster-class": (True, True, False, False),
            "full": (True, True, True, False),
        }
        assert list(trainer.ABLATIONS) == list(grid)
        for preset, terms in grid.items():
            got = cfg.ablation(preset)
            assert got.preset == preset
            assert tuple(trainer.ABLATIONS[got.preset]) == terms

    def test_unknown_ablation(self):
        with pytest.raises(ConfigError, match="preset.*'everything'"):
            tiny_config().ablation("everything")
        with pytest.raises(ConfigError, match="preset.*'everything'"):
            tiny_config(preset="everything")


class TestTrackedDataset:
    def test_fetch_outside_selection_rejected(self, tiny_dataset):
        train, _ = tiny_dataset
        tracker = TrackedDataset(train)
        tracker.begin_step(1, [0, 2, 4])
        tracker.fetch(2)
        with pytest.raises(ProtocolError):
            tracker.fetch(1)

    def test_fetch_before_begin_rejected(self, tiny_dataset):
        train, _ = tiny_dataset
        with pytest.raises(ProtocolError):
            TrackedDataset(train).fetch(0)


class TestEffectiveLabels:
    def protos_with(self, vectors):
        protos = PrototypeBank(2)
        protos.register([0] + sorted(vectors))
        for cid, vec in vectors.items():
            entry = protos.entries[cid]
            entry.vector = np.asarray(vec, dtype=np.float64)
            entry.initialized = True
            entry.frozen = cid != 0
        return protos

    def test_step_one_passthrough(self):
        labels = np.array([[0, 1], [2, IGNORE_ID]], dtype=np.uint16)
        eff = build_effective_labels(
            labels, np.zeros((2, 2, 2)), PrototypeBank(2), step=1
        )
        assert eff.tolist() == [[0, 1], [2, IGNORE_ID]]
        assert (eff != IGNORE_ID).tolist() == [[True, True], [True, False]]

    def test_pseudo_label_from_frozen_prototype(self):
        protos = self.protos_with({0: [0.0, 0.0], 3: [5.0, 5.0]})
        labels = np.array([[0, 4]], dtype=np.uint16)
        features = np.array([[[5.0, 5.0], [9.0, 9.0]]])
        eff = build_effective_labels(labels, features, protos, step=2)
        assert eff[0, 0] == 3  # background pixel adopts the nearest old class
        assert eff[0, 1] == 4  # supervised pixel untouched
        assert (eff != IGNORE_ID).all()  # pseudo-labels feed CE too

    def test_pseudo_label_can_stay_unknown(self):
        protos = self.protos_with({0: [0.0, 0.0], 3: [5.0, 5.0]})
        labels = np.array([[0]], dtype=np.uint16)
        features = np.array([[[0.1, -0.1]]])
        eff = build_effective_labels(labels, features, protos, step=2)
        assert eff[0, 0] == 0

    def test_no_initialized_prototypes_marks_ignore(self):
        labels = np.array([[0, 3]], dtype=np.uint16)
        eff = build_effective_labels(
            labels, np.zeros((1, 2, 2)), PrototypeBank(2), step=2
        )
        assert eff[0, 0] == IGNORE_ID
        assert eff[0, 1] == 3

    def test_ignore_sentinel_survives(self):
        protos = self.protos_with({0: [0.0, 0.0]})
        labels = np.array([[IGNORE_ID]], dtype=np.uint16)
        eff = build_effective_labels(labels, np.zeros((1, 1, 2)), protos, step=2)
        assert eff[0, 0] == IGNORE_ID


class TestSgdUpdate:
    def test_pure_decay_contracts_by_closed_form(self):
        # float64 parameters: the tolerance is about the update's arithmetic
        params = init_state(tiny_config()).params
        params.blocks = {n: a.astype(np.float64) for n, a in params.blocks.items()}
        theta0 = {n: a.copy() for n, a in params.blocks.items()}
        momentum = {n: np.zeros_like(a) for n, a in params.blocks.items()}
        zero = {n: np.zeros_like(a) for n, a in params.blocks.items()}
        lr, wd = 0.1, 0.01
        for k in range(1, 4):
            sgd_update(params, momentum, zero, lr, 0.0, wd)
            factor = (1.0 - lr * wd) ** k
            for name, a0 in theta0.items():
                np.testing.assert_allclose(
                    params.blocks[name], factor * a0, atol=1e-14
                )

    def test_matches_manual_momentum_simulation(self):
        rng = Rng(200)
        theta = np.asarray(rng.normals(6))
        params = init_state(tiny_config()).params
        params.blocks = {"w": theta.copy()}
        momentum = {"w": np.zeros(6)}
        mu, lr, wd = 0.9, 0.05, 1e-3
        v_ref = np.zeros(6)
        t_ref = theta.copy()
        for _ in range(5):
            g = np.asarray(rng.normals(6))
            sgd_update(params, momentum, {"w": g}, lr, mu, wd)
            v_ref = mu * v_ref - lr * (g + wd * t_ref)
            t_ref = t_ref + v_ref
        np.testing.assert_allclose(params.blocks["w"], t_ref, atol=1e-14)
        np.testing.assert_allclose(momentum["w"], v_ref, atol=1e-14)


class TestRunStep:
    def test_ce_only_loss_decreases_on_separable_set(self):
        cfg = tiny_config(
            split=TaskSplit.from_sizes("2", 2),
            epochs=4,
            preset="fine-tune",
        )
        samples = separable_samples(count=10)
        state = init_state(cfg)
        outcome = run_step(state, cfg, samples)
        ce = [t["ce"] for t in outcome.loss_trace]
        assert all(np.isfinite(ce))
        assert all(b < a for a, b in zip(ce, ce[1:]))

    def test_iteration_count(self, tiny_dataset, tiny_split):
        cfg = tiny_config(epochs=3, batch_size=5)
        train, _ = tiny_dataset
        idx = select_step_indices(train, tiny_split, 1)
        data = [collapse_labels(train[i], tiny_split, 1) for i in idx]
        state = init_state(cfg)
        outcome = run_step(state, cfg, data)
        per_epoch = (len(data) + 4) // 5
        assert outcome.iterations == 3 * per_epoch
        # each row counts the step's iterations through its epoch
        assert [row["iteration"] for row in state.log] == [
            per_epoch, 2 * per_epoch, 3 * per_epoch]
        assert outcome.loss_trace == state.log

    def test_same_seed_same_outcome(self, tiny_dataset):
        cfg = tiny_config()
        train, _ = tiny_dataset
        data = [collapse_labels(s, cfg.split, 1) for s in train[:10]]
        state_a, state_b = init_state(cfg), init_state(cfg)
        out_a = run_step(state_a, cfg, data)
        out_b = run_step(state_b, cfg, data)
        for name, arr in state_a.params.blocks.items():
            np.testing.assert_array_equal(arr, state_b.params.blocks[name])
        assert out_a.loss_trace == out_b.loss_trace

    def test_uncollapsed_labels_rejected(self, tiny_dataset):
        cfg = tiny_config()
        train, _ = tiny_dataset
        data = train[:10]
        assert max(s.labels.max() for s in data) > 2  # no head row at step 1
        with pytest.raises(LabelError, match="outside head range"):
            run_step(init_state(cfg), cfg, data)

    def test_empty_step_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ProtocolError):
            run_step(init_state(cfg), cfg, [])

    def test_mixed_image_sizes_rejected(self):
        cfg = tiny_config(split=TaskSplit.from_sizes("2", 2))
        samples = separable_samples(count=2) + separable_samples(
            count=2, width=14
        )
        state = init_state(cfg)
        with pytest.raises(DimensionError):
            run_step(state, cfg, samples)
        assert state.epoch == 0 and state.log == []

    def test_mid_step_resume_matches_uninterrupted(self, tmp_path,
                                                   tiny_dataset):
        train, _ = tiny_dataset
        data = [collapse_labels(s, tiny_config().split, 1) for s in train[:10]]

        straight_cfg = tiny_config(epochs=4)
        straight = init_state(straight_cfg)
        run_step(straight, straight_cfg, data)

        half_cfg = tiny_config(epochs=2)
        state = init_state(half_cfg)
        run_step(state, half_cfg, data)
        path = tmp_path / "half.ckpt"
        save_checkpoint(path, state)
        resumed_cfg = tiny_config(epochs=4)
        resumed = load_checkpoint(path)
        assert resumed.epoch == 2
        run_step(resumed, resumed_cfg, data)

        for name, arr in straight.params.blocks.items():
            np.testing.assert_array_equal(arr, resumed.params.blocks[name])
        for name, arr in straight.momentum.items():
            np.testing.assert_array_equal(arr, resumed.momentum[name])


class TestSupervisedRows:
    """Where CE is the only term, ``run_step`` forwards and backpropagates
    only the supervised pixels; every other preset trains on every pixel."""

    def one_iteration(self, state, cfg, data, monkeypatch):
        """One ``run_step`` iteration over all of ``data``: its stacked
        images, CE labels and value, the rows it backpropagated and their
        gradients."""
        seen = {}
        real_stack, real_ce = trainer.stack_images, trainer.weighted_ce
        real_backward = trainer.backward_batch

        def stack(images):
            seen["images"] = real_stack(images)
            return seen["images"]

        def ce(logits, labels, row_weights=None):
            out = real_ce(logits, labels, row_weights)
            seen["labels"], seen["value"] = labels, out.value
            return out

        def backward(params, cache, dfeats, dlogits):
            seen["rows"] = cache.x.shape[0]
            seen["grads"] = real_backward(params, cache, dfeats, dlogits)
            return seen["grads"]

        monkeypatch.setattr(trainer, "stack_images", stack)
        monkeypatch.setattr(trainer, "weighted_ce", ce)
        monkeypatch.setattr(trainer, "backward_batch", backward)
        run_step(state, replace(cfg, epochs=1, batch_size=len(data)), data)
        monkeypatch.undo()
        return seen

    @pytest.mark.parametrize("dtype, bound", [
        (np.float64, 1e-12),
        # the float32 bound of test_losses.py::TestFloat32Accuracy
        (np.float32, 16 * float(np.finfo(np.float32).eps)),
    ], ids=["float64", "float32"])
    def test_read_rows_give_the_whole_batch_gradient(self, tiny_dataset, monkeypatch,
                                                     dtype, bound):
        """A fine-tune step-2 batch: the CE value and every gradient from its
        supervised rows equal those of a forward and backward over every
        pixel."""
        train, _ = tiny_dataset
        cfg = tiny_config(preset="fine-tune")
        state = init_state(cfg)
        trainer.enter_step(state, cfg)
        for blocks in (state.params.blocks, state.momentum):
            blocks.update((k, a.astype(dtype)) for k, a in blocks.items())
        data = [collapse_labels(train[i], cfg.split, 2)
                for i in select_step_indices(train, cfg.split, 2)[:cfg.batch_size]]
        params = state.params.copy()
        seen = self.one_iteration(state, cfg, data, monkeypatch)

        labels = seen["labels"]
        supervised = np.count_nonzero(labels != IGNORE_ID)
        assert 0 < seen["rows"] == supervised < labels.size
        logits, cache = forward_batch(params, seen["images"])
        assert cache.logits.dtype == dtype
        want = weighted_ce(logits, labels)
        dlogits = want.grads["logits"].reshape(cache.logits.shape) / len(data)
        grads = backward_batch(params, cache, None, dlogits)
        assert abs(seen["value"] - want.value) <= bound * abs(want.value)
        assert seen["grads"].keys() == grads.keys()
        for name, g in grads.items():
            got = seen["grads"][name]
            assert got.dtype == dtype
            assert np.max(np.abs(got - g)) <= bound * np.max(np.abs(g)), name

    @pytest.mark.parametrize("preset", list(trainer.ABLATIONS))
    def test_rows_each_preset_trains_on(self, tmp_path, tiny_dataset, monkeypatch,
                                        preset):
        """fine-tune backpropagates a step-2 batch's supervised pixels; step 1
        and every step of a preset with a term that reads every pixel
        backpropagate all B*H*W."""
        train, _ = tiny_dataset
        batches = []  # (pixels, supervised pixels) of every CE call
        rows = []  # rows of every backward_batch call
        real_ce, real_backward = trainer.weighted_ce, trainer.backward_batch

        def ce(logits, labels, row_weights=None):
            batches.append((labels.size, np.count_nonzero(labels != IGNORE_ID)))
            return real_ce(logits, labels, row_weights)

        def backward(params, cache, dfeats, dlogits):
            rows.append(cache.x.shape[0])
            return real_backward(params, cache, dfeats, dlogits)

        monkeypatch.setattr(trainer, "weighted_ce", ce)
        monkeypatch.setattr(trainer, "backward_batch", backward)
        result = run_continual(tiny_config(preset=preset), train, tmp_path)
        n1, n2 = (outcome.iterations for outcome in result.outcomes)
        assert len(batches) == len(rows) == n1 + n2
        # step 2 leaves background unsupervised (no prototype initializes
        # at the default update period), so every preset could skip rows
        assert all(sup == px for px, sup in batches[:n1])
        assert all(sup < px for px, sup in batches[n1:])
        sparse = preset == "fine-tune"
        want = [px for px, _ in batches[:n1]] + [
            sup if sparse else px for px, sup in batches[n1:]]
        assert rows == want


class TestRunContinual:
    def test_two_runs_bit_identical(self, tmp_path, tiny_dataset):
        train, _ = tiny_dataset
        cfg = tiny_config()
        a = final_bytes(tmp_path, "a", cfg, train)
        b = final_bytes(tmp_path, "b", cfg, train)
        assert a == b

    def test_seed_changes_outcome(self, tmp_path, tiny_dataset):
        train, _ = tiny_dataset
        a = final_bytes(tmp_path, "s1", tiny_config(seed=1), train)
        b = final_bytes(tmp_path, "s2", tiny_config(seed=2), train)
        assert a != b

    def test_rehearsal_free_no_old_reads(self, tmp_path, tiny_dataset, tiny_split):
        train, _ = tiny_dataset
        cfg = tiny_config()
        result = run_continual(cfg, train, tmp_path)
        step1_only = set(select_step_indices(train, tiny_split, 1)) - set(
            select_step_indices(train, tiny_split, 2)
        )
        reads = result.tracker.reads
        assert not [i for s, i in reads if s == 2 and i in step1_only]
        assert [i for s, i in reads if s == 1 and i in step1_only]

    def test_class_weights_fill_the_step_rows(self, tmp_path, tiny_dataset,
                                              tiny_split, monkeypatch):
        train, _ = tiny_dataset
        seen = []  # the row weights of every CE call, in order

        def recording_ce(logits, labels, row_weights=None):
            seen.append(row_weights)
            return weighted_ce(logits, labels, row_weights)

        monkeypatch.setattr(trainer, "weighted_ce", recording_ce)
        cfg = tiny_config(preset="cluster-class", epochs=1)
        result = run_continual(cfg, train, tmp_path / "weighted")

        def weights_of(step, ids):
            labels = [collapse_labels(train[i], tiny_split, step).labels
                      for i in select_step_indices(train, tiny_split, step)]
            counts = [sum(np.count_nonzero(y == c) for y in labels) for c in ids]
            w = cfg.weights
            return class_weights(counts, w.smoothing, w.clamp_min, w.clamp_max)

        # step 1: rows 0-2 are background and classes 1, 2; step 2 adds
        # rows 3, 4 for classes 3, 4 and leaves the older rows at 1
        step1 = weights_of(1, [0, 1, 2])
        step2 = np.concatenate([np.ones(3), weights_of(2, [3, 4])])
        assert (step1 != 1.0).all() and (step2[3:] != 1.0).all()
        n1, n2 = (outcome.iterations for outcome in result.outcomes)
        assert len(seen) == n1 + n2
        assert all(same_bytes(w, step1) for w in seen[:n1])
        assert all(same_bytes(w, step2) for w in seen[n1:])

        seen.clear()
        run_continual(cfg.ablation("fine-tune"), train, tmp_path / "unweighted")
        assert seen and all(w is None for w in seen)

    def test_cluster_skipped_pixels_counted_per_step(self, tmp_path, tiny_dataset,
                                                     monkeypatch):
        """A step's count is its live pixels whose class had no initialized
        prototype when the cluster term read them: every live pixel of the
        step-1 warm-up, and step 2's new classes until they initialize."""
        train, _ = tiny_dataset
        calls = []  # (labels, initialized ids) of every cluster_loss call
        real_cluster = trainer.cluster_loss

        def recording_cluster(features, labels, protos, cfg):
            calls.append((labels.copy(), set(protos.initialized_ids())))
            return real_cluster(features, labels, protos, cfg)

        monkeypatch.setattr(trainer, "cluster_loss", recording_cluster)
        cfg = tiny_config(preset="cluster",
                          cluster=ClusterConfig(update_period=2, bank_capacity=64))
        result = run_continual(cfg, train, tmp_path)
        n1, n2 = (outcome.iterations for outcome in result.outcomes)
        assert len(calls) == n1 + n2
        for outcome, step_calls in zip(result.outcomes, (calls[:n1], calls[n1:])):
            want = sum(1 for labels, ids in step_calls for y in labels.ravel().tolist()
                       if y != IGNORE_ID and y not in ids)
            assert outcome.counters["cluster_skipped_pixels"] == want
        assert not calls[0][1]  # step-1 warm-up: every live pixel counts
        assert calls[n1 - 1][1] >= {1, 2}
        # step 2 starts with its new classes live and without prototypes
        assert not calls[n1][1] & {3, 4}
        assert np.isin(calls[n1][0], [3, 4]).any()

    def test_frozen_prototypes_constant_through_step_two(self, tmp_path,
                                                          tiny_dataset):
        train, _ = tiny_dataset
        # period 1 so step-1 prototypes actually initialize in a short run
        cfg = tiny_config(
            cluster=ClusterConfig(update_period=2, bank_capacity=64)
        )
        result = run_continual(cfg, train, out_dir=tmp_path)
        assert len(result.outcomes) == 2
        after_step1 = load_checkpoint(tmp_path / "step1.ckpt").protos
        after_step2 = load_checkpoint(tmp_path / "step2.ckpt").protos
        for cid in (1, 2):
            if after_step1.is_initialized(cid):
                assert after_step2.entries[cid].frozen
                np.testing.assert_array_equal(
                    after_step1.entries[cid].vector, after_step2.entries[cid].vector
                )

    def test_distill_keeps_frozen_previous_params(self, tmp_path, tiny_dataset):
        train, _ = tiny_dataset
        cfg = tiny_config(preset="distill")
        result = run_continual(cfg, train, tmp_path)
        step1_params = load_checkpoint(tmp_path / "step1.ckpt").params
        frozen = result.state.distill_params
        assert frozen is not None
        assert frozen.class_steps == step1_params.class_steps
        for name, arr in step1_params.blocks.items():
            np.testing.assert_array_equal(arr, frozen.blocks[name])
        assert result.outcomes[-1].loss_trace[-1]["distill"] > 0.0

    def test_previous_step_model_forwards_each_step_image_once(
            self, tmp_path, tiny_dataset, monkeypatch):
        """Once per run_step, mid-step resume included, not once per epoch."""
        train, _ = tiny_dataset
        cfg = tiny_config(preset="distill", epochs=3)
        step_images = len(select_step_indices(train, cfg.split, 2))
        real_forward = trainer.forward_batch
        calls = []  # (params, images) of every forward

        def counting_forward(params, images):
            calls.append((params, len(images)))
            return real_forward(params, images)

        monkeypatch.setattr(trainer, "forward_batch", counting_forward)
        monkeypatch.setattr(trainer, "save_checkpoint",
                            keep_mid_step(tmp_path, trainer.save_checkpoint))
        out = tmp_path / "run"
        for resume_from in (None, tmp_path / "mid.ckpt"):
            calls.clear()
            teacher = run_continual(cfg, train, out_dir=out,
                                    resume_from=resume_from).state.distill_params
            assert sum(n for params, n in calls if params is teacher) == step_images

    def test_resume_from_step_boundary_matches(self, tmp_path, tiny_dataset):
        train, _ = tiny_dataset
        cfg = tiny_config()
        out = tmp_path / "base"
        run_continual(cfg, train, out_dir=out)
        straight = (out / "step2.ckpt").read_bytes()

        redo = tmp_path / "redo"
        run_continual(
            cfg, train, out_dir=redo, resume_from=out / "step1.ckpt"
        )
        assert (redo / "step2.ckpt").read_bytes() == straight
        assert (redo / "losses.csv").read_bytes() == (
            out / "losses.csv"
        ).read_bytes()

    @pytest.mark.parametrize("preset", ["fine-tune", "distill", "full"])
    def test_model_stays_float32_and_resumes_byte_identically(
            self, tmp_path, tiny_dataset, monkeypatch, preset):
        """Head growth keeps every model array float32, so the float32
        checkpoint holds it exactly: resuming from step1.ckpt and from a
        mid-step latest.ckpt leaves the uninterrupted run's files."""
        train, test = tiny_dataset
        cfg = tiny_config(preset=preset)
        straight = tmp_path / "straight"
        monkeypatch.setattr(trainer, "save_checkpoint",
                            keep_mid_step(tmp_path, trainer.save_checkpoint))
        state = run_continual(cfg, train, out_dir=straight,
                              test_samples=test).state
        monkeypatch.undo()
        models = [state.params.blocks, state.momentum]
        if preset == "distill":
            models.append(state.distill_params.blocks)
        assert all(arr.dtype == np.float32
                   for blocks in models for arr in blocks.values())
        assert all(entry.vector.dtype == np.float64
                   for entry in state.protos.entries.values())
        for resume_from, names in ((straight / "step1.ckpt", RUN_FILES),
                                   (tmp_path / "mid.ckpt", STEP2_FILES)):
            out = tmp_path / f"from-{resume_from.stem}"
            out.mkdir()
            shutil.copy(resume_from, out / "latest.ckpt")
            run_continual(cfg, train, out_dir=out, test_samples=test,
                          resume_from=out / "latest.ckpt")
            assert_same_files(out, straight, names)

    def test_resume_into_empty_directory_matches_uninterrupted(
            self, tmp_path, tiny_dataset, monkeypatch):
        """The checkpoint alone is the resume point: from the middle of
        step 1, the loss log's first rows come from it, not from the run
        directory."""
        train, test = tiny_dataset
        cfg = tiny_config()
        straight = tmp_path / "straight"
        monkeypatch.setattr(trainer, "save_checkpoint",
                            keep_mid_step(tmp_path, trainer.save_checkpoint, at=(1, 1)))
        run_continual(cfg, train, out_dir=straight, test_samples=test)
        monkeypatch.undo()
        out = tmp_path / "empty"
        run_continual(cfg, train, out_dir=out, test_samples=test,
                      resume_from=tmp_path / "mid.ckpt")
        assert_same_files(out, straight, RUN_FILES)

    def test_resume_after_prototype_refresh_matches_uninterrupted(
            self, tmp_path, tiny_dataset, monkeypatch):
        """A mid-step-2 checkpoint taken after the step's first prototype
        refresh resumes, from a directory that holds only it, to the
        uninterrupted run's files."""
        train, test = tiny_dataset
        cfg = tiny_config(cluster=ClusterConfig(update_period=2))
        per_epoch = -(-len(select_step_indices(train, cfg.split, 2)) // cfg.batch_size)
        # the first epoch boundary of step 2 after its first refresh
        epoch = -(-cfg.cluster.update_period // per_epoch)
        assert epoch < cfg.epochs
        straight = tmp_path / "straight"
        monkeypatch.setattr(trainer, "save_checkpoint",
                            keep_mid_step(tmp_path, trainer.save_checkpoint, at=(2, epoch)))
        run_continual(cfg, train, out_dir=straight, test_samples=test)
        monkeypatch.undo()
        mid = load_checkpoint(tmp_path / "mid.ckpt")
        assert mid.log[-1]["iteration"] >= cfg.cluster.update_period
        assert all(mid.protos.is_initialized(c) for c in cfg.split.classes_at(2))
        out = tmp_path / "resumed"
        out.mkdir()
        shutil.copy(tmp_path / "mid.ckpt", out / "latest.ckpt")
        run_continual(cfg, train, out_dir=out, test_samples=test,
                      resume_from=out / "latest.ckpt")
        assert_same_files(out, straight, STEP2_FILES)

    def test_resume_with_other_model_rejected(self, tmp_path, tiny_dataset):
        train, _ = tiny_dataset
        run_continual(tiny_config(), train, out_dir=tmp_path / "a")
        other = tiny_config(hidden=(16, 16), feature_dim=8)
        with pytest.raises(ConfigError, match="feature_dim.*hidden"):
            run_continual(
                other, train, out_dir=tmp_path / "a",
                resume_from=tmp_path / "a" / "step1.ckpt",
            )

    def test_resume_with_other_bank_capacity_rejected(self, tmp_path,
                                                      tiny_dataset):
        train, _ = tiny_dataset
        run_continual(tiny_config(), train, out_dir=tmp_path / "a")
        other = tiny_config(cluster=ClusterConfig(bank_capacity=7))
        with pytest.raises(ConfigError,
                           match=r"bank_capacity \(checkpoint 500, config 7\)"):
            run_continual(
                other, train, out_dir=tmp_path / "a",
                resume_from=tmp_path / "a" / "step1.ckpt",
            )

    def test_resume_with_other_preset_rejected(self, tmp_path, tiny_dataset):
        train, _ = tiny_dataset
        run_continual(tiny_config(), train, out_dir=tmp_path / "a")
        with pytest.raises(
            ConfigError,
            match=r"\[train\] preset \(checkpoint full, config distill\)",
        ):
            run_continual(
                tiny_config(preset="distill"), train, out_dir=tmp_path / "a",
                resume_from=tmp_path / "a" / "latest.ckpt",
            )

    def test_resume_with_other_split_rejected(self, tmp_path, tiny_dataset):
        train, _ = tiny_dataset
        run_continual(tiny_config(), train, out_dir=tmp_path / "a")
        other = tiny_config(split=TaskSplit.from_sizes("3-1", 4))
        with pytest.raises(
            ConfigError,
            match=re.escape("[split] steps (checkpoint ((1, 2),), config ((1, 2, 3),))"),
        ):
            run_continual(
                other, train, out_dir=tmp_path / "a",
                resume_from=tmp_path / "a" / "step1.ckpt",
            )

    def test_resume_from_finished_run_is_noop(self, tmp_path, tiny_dataset):
        train, _ = tiny_dataset
        cfg = tiny_config()
        out = tmp_path / "done"
        run_continual(cfg, train, out_dir=out)
        noop = tmp_path / "noop"
        again = run_continual(
            cfg, train, out_dir=noop, resume_from=out / "latest.ckpt",
        )
        assert again.outcomes == []
        assert again.tracker.reads == []

    def test_resume_finished_run_in_place_keeps_loss_log(self, tmp_path,
                                                         tiny_dataset):
        train, _ = tiny_dataset
        cfg = tiny_config()
        out = tmp_path / "done"
        run_continual(cfg, train, out_dir=out)
        log = (out / "losses.csv").read_bytes()
        run_continual(cfg, train, out_dir=out, resume_from=out / "latest.ckpt")
        assert (out / "losses.csv").read_bytes() == log

    def test_crash_in_step_two_then_resume_matches_uninterrupted(
            self, tmp_path, tiny_dataset, monkeypatch):
        train, test = tiny_dataset
        cfg = tiny_config()
        straight = tmp_path / "straight"
        done = run_continual(cfg, train, out_dir=straight, test_samples=test)

        out = tmp_path / "crashed"
        real_save = trainer.save_checkpoint

        def save_or_crash(path, state):
            if state.step == 2 and state.epoch == 1:
                raise OSError("killed")
            real_save(path, state)

        monkeypatch.setattr(trainer, "save_checkpoint", save_or_crash)
        with pytest.raises(OSError, match="killed"):
            run_continual(cfg, train, out_dir=out, test_samples=test)
        monkeypatch.undo()
        assert not (out / "step2.ckpt").exists()
        assert load_checkpoint(out / "latest.ckpt").step == 2
        resumed = run_continual(cfg, train, out_dir=out, test_samples=test,
                                resume_from=out / "latest.ckpt")
        assert resumed.reports[-1].miou_avg == done.reports[-1].miou_avg
        for name in RUN_FILES:
            assert (out / name).read_bytes() == (straight / name).read_bytes()

    def test_crash_after_last_epoch_then_resume_matches_uninterrupted(
            self, tmp_path, tiny_dataset, monkeypatch):
        train, test = tiny_dataset
        cfg = tiny_config()
        straight = tmp_path / "straight"
        done = run_continual(cfg, train, out_dir=straight, test_samples=test)

        out = tmp_path / "crashed"
        real_save = trainer.save_checkpoint

        def save_or_crash(path, state):
            if os.path.basename(path) == "step1.ckpt":
                raise OSError("killed")
            real_save(path, state)

        monkeypatch.setattr(trainer, "save_checkpoint", save_or_crash)
        with pytest.raises(OSError, match="killed"):
            run_continual(cfg, train, out_dir=out, test_samples=test)
        monkeypatch.undo()
        assert not (out / "step1.ckpt").exists()
        latest = load_checkpoint(out / "latest.ckpt")
        assert (latest.step, latest.epoch) == (1, cfg.epochs)
        resumed = run_continual(cfg, train, out_dir=out, test_samples=test,
                                resume_from=out / "latest.ckpt")
        assert resumed.reports[-1].miou_avg == done.reports[-1].miou_avg
        for name in RUN_FILES:
            assert (out / name).read_bytes() == (straight / name).read_bytes()

    def test_three_steps(self, tmp_path, tiny_dataset):
        train, test = tiny_dataset
        cfg = tiny_config(
            split=TaskSplit.from_sizes("2-1-1", 4),
            cluster=ClusterConfig(update_period=2, bank_capacity=64),
        )
        out = tmp_path / "straight"
        result = run_continual(cfg, train, out_dir=out, test_samples=test)
        ends = [load_checkpoint(out / f"step{t}.ckpt") for t in (1, 2, 3)]
        assert [end.params.num_rows for end in ends] == [3, 4, 5]
        # class 3 arrives at step 2 and is frozen, unchanged, at step 3
        after_step2, after_step3 = (end.protos for end in ends[1:])
        assert after_step2.is_initialized(3)
        assert not after_step2.entries[3].frozen
        assert after_step3.entries[3].frozen
        assert same_bytes(after_step3.entries[3].vector, after_step2.entries[3].vector)
        mious = [r.miou_all for r in result.reports]
        assert len(mious) == 3
        assert result.reports[-1].miou_avg == float(np.mean(mious))
        for k in (1, 2, 3):
            redo = tmp_path / f"from-step{k}"
            run_continual(cfg, train, out_dir=redo, test_samples=test,
                          resume_from=out / f"step{k}.ckpt")
            names = set(os.listdir(redo))
            assert names >= {"summary.txt"} | {
                f"{kind}{s}.{ext}" for s in range(k, 4)
                for kind, ext in (("step", "ckpt"), ("summary_step", "txt"))
            }
            for name in names:
                assert (redo / name).read_bytes() == (out / name).read_bytes(), (k, name)

    def test_resume_with_test_set_needs_earlier_mious(self, tmp_path,
                                                      tiny_dataset):
        """miou_avg takes each earlier step's mIoU(all) from the checkpoint,
        so a run trained without a test set cannot resume with one; a run
        trained with one resumes into an empty run directory."""
        train, test = tiny_dataset
        cfg = tiny_config()
        out = tmp_path / "run"
        run_continual(cfg, train, out_dir=out)
        latest = out / "latest.ckpt"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(FormatError, match=re.escape(
                f"{latest}: a resume with a test set needs the mIoU(all) of "
                "steps 1-1, but the checkpoint holds 0")):
            run_continual(cfg, train, out_dir=out, test_samples=test,
                          resume_from=latest)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        done = run_continual(cfg, train, out_dir=tmp_path / "tested",
                             test_samples=test)
        again = run_continual(cfg, train, tmp_path / "again", test_samples=test,
                              resume_from=tmp_path / "tested" / "latest.ckpt")
        assert again.reports[-1].miou_avg == done.reports[-1].miou_avg

    def test_loss_log_schema(self, tmp_path, tiny_dataset):
        train, _ = tiny_dataset
        cfg = tiny_config()
        out = tmp_path / "log"
        run_continual(cfg, train, out_dir=out)
        lines = (out / "losses.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(LOG_FIELDS)
        assert len(lines) == 1 + cfg.epochs * 2

    def test_evaluation_reports_and_avg(self, tmp_path, tiny_dataset):
        train, test = tiny_dataset
        cfg = tiny_config()
        result = run_continual(cfg, train, tmp_path, test_samples=test)
        assert len(result.reports) == 2
        expect_avg = float(
            np.mean([r.miou_all for r in result.reports])
        )
        assert result.reports[-1].miou_avg == pytest.approx(expect_avg)

    def test_head_grows_with_steps(self, tmp_path, tiny_dataset):
        train, _ = tiny_dataset
        run_continual(tiny_config(), train, tmp_path)
        assert load_checkpoint(tmp_path / "step1.ckpt").params.num_rows == 3
        assert load_checkpoint(tmp_path / "step2.ckpt").params.num_rows == 5
