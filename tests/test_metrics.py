"""Confusion matrices, IoU groups, fairness measures, island counts."""

import tracemalloc

import numpy as np
import pytest

from conftest import constant_sample, same_bytes
from fairseg.errors import DimensionError, LabelError, UnavailableError
from fairseg.metrics import (
    EVAL_BATCH,
    ConfusionMatrix,
    MetricsReport,
    evaluate_model,
    frequency_groups,
    grouped_report,
    iou_std,
    mean_iou,
    normalized_entropy,
    single_pixel_islands,
)
from fairseg.model import forward_batch, init_params
from fairseg.numerics import Rng
from fairseg.synthdata import IGNORE_ID, TaskSplit


def fill_cm(pairs, num_labels=6):
    """Build a matrix from (ref, pred, count) triples."""
    cm = ConfusionMatrix(num_labels)
    for ref, pred, count in pairs:
        cm.accumulate(np.full(count, ref), np.full(count, pred))
    return cm


class TestConfusionMatrix:
    def test_perfect_prediction_is_diagonal(self):
        cm = fill_cm([(0, 0, 10), (1, 1, 5), (2, 2, 3)])
        assert np.trace(cm.matrix) == cm.total() == 18
        assert cm.per_class_iou()[1] == 1.0

    def test_disjoint_prediction_zero_iou(self):
        cm = fill_cm([(1, 2, 8)])
        assert cm.per_class_iou() == {1: 0.0, 2: 0.0}

    def test_hand_arithmetic_point_five(self):
        cm = fill_cm([(1, 1, 50), (1, 2, 25), (2, 1, 25)])
        assert cm.per_class_iou()[1] == 0.5

    def test_absent_class_is_none_not_zero(self):
        cm = fill_cm([(1, 1, 10)])
        assert cm.per_class_iou() == {1: 1.0}

    def test_additivity_over_images(self):
        rng = np.random.default_rng(0)
        ref1, pred1 = rng.integers(0, 4, 50), rng.integers(0, 4, 50)
        ref2, pred2 = rng.integers(0, 4, 70), rng.integers(0, 4, 70)
        split_cm = ConfusionMatrix(4).accumulate(ref1, pred1)
        split_cm.accumulate(ref2, pred2)
        joint_cm = ConfusionMatrix(4).accumulate(
            np.concatenate([ref1, ref2]), np.concatenate([pred1, pred2])
        )
        assert np.array_equal(split_cm.matrix, joint_cm.matrix)

    def test_ignore_pixels_skipped(self):
        cm = ConfusionMatrix(3)
        ref = np.array([1, IGNORE_ID, 2])
        pred = np.array([1, 0, 2])
        cm.accumulate(ref, pred)
        assert cm.total() == 2

    def test_out_of_range_rejected(self):
        cm = ConfusionMatrix(3)
        with pytest.raises(LabelError):
            cm.accumulate(np.array([5]), np.array([0]))
        with pytest.raises(LabelError):
            cm.accumulate(np.array([0]), np.array([5]))

    def test_relabeling_equivariance(self):
        # swapping two class ids permutes the per-class IoUs accordingly
        cm = fill_cm([(1, 1, 40), (1, 2, 10), (2, 2, 20), (2, 1, 5)])
        swapped = fill_cm([(2, 2, 40), (2, 1, 10), (1, 1, 20), (1, 2, 5)])
        ious, swapped_ious = cm.per_class_iou(), swapped.per_class_iou()
        assert ious[1] == swapped_ious[2]
        assert ious[2] == swapped_ious[1]

    def test_support(self):
        cm = fill_cm([(1, 1, 7), (1, 0, 3), (0, 1, 2)])
        assert cm.support(1) == 10
        assert cm.support(0) == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_accumulate_equals_scatter_add(self, seed):
        # one bincount per batch counts what a per-pixel scatter-add counts
        rng = np.random.default_rng(seed)
        ref = rng.integers(0, 5, (3, 9, 11))
        pred = rng.integers(0, 5, (3, 9, 11))
        ref[rng.random(ref.shape) < 0.2] = IGNORE_ID
        cm = ConfusionMatrix(5).accumulate(ref, pred)
        cm.accumulate(ref[1:], pred[1:])
        want = np.zeros((5, 5), dtype=np.int64)
        for r, p in ((ref, pred), (ref[1:], pred[1:])):
            keep = r != IGNORE_ID
            np.add.at(want, (r[keep], p[keep]), 1)
        assert cm.matrix.dtype == want.dtype
        assert np.array_equal(cm.matrix, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_per_class_iou_equals_per_class_loop(self, seed):
        rng = np.random.default_rng(seed)
        cm = ConfusionMatrix(6)
        cm.matrix[:] = rng.integers(0, 50, (6, 6))
        cm.matrix[2, :] = cm.matrix[:, 2] = 0  # absent on both sides
        cm.matrix[4, :] = 0  # occurs only as a prediction
        cm.matrix[1, 4] = 7
        want = {}
        for c in range(6):
            tp = cm.matrix[c, c]
            union = cm.matrix[c].sum() + cm.matrix[:, c].sum() - tp
            if union:
                want[c] = float(tp / union)
        got = cm.per_class_iou()
        assert list(got) == list(want) == [0, 1, 3, 4, 5]
        assert got[4] == 0.0
        assert all(type(k) is int and type(v) is float for k, v in got.items())
        assert same_bytes(list(got.values()), list(want.values()))


class TestMeanAndStd:
    def test_mean_skips_missing(self):
        per_class = {1: 0.5, 3: 0.9}
        assert mean_iou(per_class, [1, 2, 3]) == pytest.approx(0.7)

    def test_mean_of_empty_is_nan(self):
        assert np.isnan(mean_iou({}, [1, 2]))

    def test_std_identical_is_zero(self):
        assert iou_std({1: 0.4, 2: 0.4, 3: 0.4}, [1, 2, 3]) < 1e-15

    def test_std_single_value_is_zero(self):
        assert iou_std({1: 0.4}, [1]) == 0.0

    def test_miou_between_min_and_max(self):
        per_class = {1: 0.2, 2: 0.9, 3: 0.55}
        m = mean_iou(per_class, [1, 2, 3])
        assert 0.2 <= m <= 0.9


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        assert normalized_entropy([5, 5, 5, 5]) == pytest.approx(1.0, abs=1e-12)

    def test_single_class_is_zero(self):
        assert normalized_entropy([9, 0, 0]) == 0.0

    def test_half_half_over_four(self):
        assert normalized_entropy([0.5, 0.5, 0.0, 0.0]) == 0.5

    def test_all_zero_unavailable(self):
        with pytest.raises(UnavailableError):
            normalized_entropy([0, 0, 0])

    def test_negative_count_rejected(self):
        with pytest.raises(LabelError):
            normalized_entropy([3, -1])

    def test_too_few_classes_rejected(self):
        with pytest.raises(DimensionError):
            normalized_entropy([7])


class TestSinglePixelIslands:
    def test_uniform_field_has_none(self):
        assert single_pixel_islands(np.zeros((6, 6), dtype=int)) == 0

    def test_isolated_center_pixel(self):
        y = np.zeros((5, 5), dtype=int)
        y[2, 2] = 3
        assert single_pixel_islands(y) == 1

    def test_isolated_corner_pixel(self):
        y = np.zeros((4, 4), dtype=int)
        y[0, 0] = 1
        assert single_pixel_islands(y) == 1

    def test_diagonal_pair_is_not_isolated(self):
        y = np.zeros((5, 5), dtype=int)
        y[2, 2] = 3
        y[3, 3] = 3
        assert single_pixel_islands(y) == 0

    def test_checkerboard_has_none(self):
        rr, cc = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
        assert single_pixel_islands((rr + cc) % 2) == 0

    def test_multiple_islands_counted(self):
        y = np.zeros((7, 7), dtype=int)
        y[1, 1] = 1
        y[5, 5] = 2
        y[1, 5] = 3
        assert single_pixel_islands(y) == 3

    def test_stack_counts_the_sum_over_its_maps(self):
        maps = np.array([[rng.randint(3) for _ in range(30)]
                         for rng in (Rng(s) for s in range(6))]).reshape(2, 3, 5, 6)
        per_map = [single_pixel_islands(y) for y in maps.reshape(6, 5, 6)]
        assert sum(per_map) > 0
        assert single_pixel_islands(maps) == sum(per_map)
        assert single_pixel_islands(maps[0]) == sum(per_map[:3])

    def test_requires_2d(self):
        with pytest.raises(DimensionError):
            single_pixel_islands(np.zeros(9, dtype=int))


class TestFrequencyGroups:
    def test_median_share_split(self):
        # shares: class1=100, class2=40, class3=10 -> median 40;
        # major = strictly above the median
        cm = fill_cm([(1, 1, 100), (2, 2, 40), (3, 3, 10)])
        major, minor = frequency_groups(cm, [1, 2, 3])
        assert major == [1]
        assert minor == [2, 3]

    def test_absent_classes_dropped(self):
        cm = fill_cm([(1, 1, 10), (2, 2, 30)])
        major, minor = frequency_groups(cm, [1, 2, 5])
        assert major == [2]
        assert minor == [1]

    def test_single_class_degenerates(self):
        cm = fill_cm([(1, 1, 10)])
        major, minor = frequency_groups(cm, [1, 4])
        assert major == [1] and minor == []


class TestGroupedReport:
    def split(self):
        return TaskSplit.from_sizes("2-2", 4)

    def test_group_means_match_hand_arithmetic(self):
        cm = fill_cm(
            [
                (0, 0, 100),
                (1, 1, 50),
                (1, 2, 25),
                (2, 1, 25),  # class 1 IoU 0.5, class 2 IoU 0/50
                (3, 3, 30),  # IoU 1.0
                (4, 4, 10),
                (4, 0, 10),  # class 4 IoU 0.5
            ]
        )
        report = grouped_report(cm, self.split(), step=2, num_images=4)
        assert report.per_class_iou[1] == 0.5
        assert report.per_class_iou[2] == 0.0
        assert report.per_class_iou[3] == 1.0
        assert report.per_class_iou[4] == 0.5
        assert report.miou_initial == pytest.approx(0.25)
        assert report.miou_later == pytest.approx(0.75)
        # background IoU: tp=100, fn=0, fp=10 -> 100/110
        assert report.miou_all == pytest.approx((100 / 110 + 2.0) / 5)
        assert report.num_images == 4

    def test_std_of_identical_ious_is_zero(self):
        cm = fill_cm([(1, 1, 10), (2, 2, 10), (3, 3, 10), (4, 4, 10)])
        report = grouped_report(cm, self.split(), step=2)
        assert report.iou_std_fg == 0.0

    def test_summary_fields_round_trip(self):
        cm = fill_cm([(1, 1, 10), (2, 2, 4)])
        report = grouped_report(cm, self.split(), step=1, num_images=2)
        fields = report.summary_fields()
        assert fields["step"] == "1"
        assert float(fields["miou_all"]) == report.miou_all
        assert float(fields["iou_class_1"]) == 1.0


def oracle_params():
    """Handcrafted weights that classify constant-color images perfectly.

    The first encoder unit copies the center pixel's red channel; the head
    rows are an upper envelope of lines in R that picks background for
    R near 0.05, class 1 near 0.2, class 2 near 0.8.
    """
    params = init_params(
        0, (1,), patch_size=3, feature_dim=2, hidden=(4,)
    )
    from fairseg.model import grow_head

    params = grow_head(params, (2,), Rng(0))
    for name in params.blocks:
        params.blocks[name] = np.zeros_like(params.blocks[name])
    center_red = ((3 // 2) * 3 + (3 // 2)) * 3 + 0
    params.blocks["enc0.W"][0, center_red] = 1.0
    params.blocks["feat.W"][0, 0] = 1.0
    params.blocks["head.W"][0, 0] = -20.0
    params.blocks["head.b"][0] = 2.0
    params.blocks["head.W"][2, 0] = 20.0
    params.blocks["head.b"][2] = -12.0
    return params


class TestEvaluateModel:
    def split(self):
        return TaskSplit(steps=((1,), (2,))).validate(2)

    def samples(self):
        return [
            constant_sample(8, 8, (0.05, 0.3, 0.3), 0),
            constant_sample(8, 8, (0.2, 0.6, 0.1), 1),
            constant_sample(8, 8, (0.8, 0.2, 0.9), 2),
        ]

    def test_perfect_oracle_scores_full_marks(self):
        report, cm = evaluate_model(
            oracle_params(), self.samples(), self.split(), step=2
        )
        assert report.miou_all == 1.0
        assert report.miou_initial == 1.0
        assert report.miou_later == 1.0
        assert report.iou_std_fg == 0.0
        assert report.islands_per_image == 0.0
        assert cm.total() == 3 * 64

    def test_constant_background_predictor_share_relation(self):
        params = oracle_params()
        for name in params.blocks:
            params.blocks[name] = np.zeros_like(params.blocks[name])
        samples = self.samples()
        report, cm = evaluate_model(params, samples, self.split(), step=2)
        bg_pixels = sum(
            int(np.count_nonzero(s.labels == 0)) for s in samples
        )
        total = sum(s.labels.size for s in samples)
        assert report.per_class_iou[0] == pytest.approx(bg_pixels / total)
        assert report.per_class_iou[1] == 0.0

    def test_future_classes_collapse_in_reference(self):
        report, cm = evaluate_model(
            oracle_params(), self.samples(), self.split(), step=1
        )
        # at step 1 the class-2 image counts as background reference;
        # the oracle still predicts class 2 there, which costs bg IoU
        assert 2 not in {
            int(i) for i in np.flatnonzero(cm.matrix.sum(axis=1))
        }
        assert report.per_class_iou[1] == 1.0

    def test_mixed_image_sizes_rejected(self):
        samples = self.samples()
        mixed = [samples[0], constant_sample(6, 7, (0.2, 0.6, 0.1), 1), samples[2]]
        with pytest.raises(DimensionError, match="one size"):
            evaluate_model(oracle_params(), mixed, self.split(), step=2)

    def test_one_batch_cache_live_at_a_time(self):
        # tracemalloc counts live NumPy bytes, so this does not depend on
        # how the allocator returns memory to the system
        params = init_params(0, (1, 2), patch_size=5, feature_dim=16, hidden=(64, 32))
        samples = [constant_sample(16, 16, (0.1 * (i % 9), 0.5, 0.2), i % 3)
                   for i in range(3 * EVAL_BATCH)]
        _, cache = forward_batch(params, [s.image for s in samples[:EVAL_BATCH]])
        cache_bytes = sum(a.nbytes for a in
                          [cache.x, *cache.act, cache.feats, cache.logits])
        del cache
        tracemalloc.start()
        try:
            evaluate_model(params, samples, self.split(), step=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * cache_bytes

    def test_batches_of_eight_evaluate_like_one_at_a_time(self):
        samples = self.samples() * 4  # 12 images: a batch of 8, then 4
        report, cm = evaluate_model(oracle_params(), samples, self.split(), step=2)
        for sample in samples:
            _, alone = evaluate_model(oracle_params(), [sample], self.split(), step=2)
            cm.matrix -= alone.matrix
        assert not cm.matrix.any()
        assert report.num_images == 12 and report.miou_all == 1.0

    def test_batch_island_count_is_the_per_image_sum(self):
        rng = Rng(5)
        params = init_params(3, (1, 2), patch_size=3, feature_dim=4, hidden=(8,))
        samples = [constant_sample(8, 8, (0.5, 0.5, 0.5), i % 3) for i in range(10)]
        for s in samples:
            s.image[:] = rng.uniforms(s.image.size).reshape(s.image.shape)
        report, _ = evaluate_model(params, samples, self.split(), step=2)
        alone = [evaluate_model(params, [s], self.split(), step=2)[0].islands_per_image
                 for s in samples]
        assert sum(alone) > 0
        assert round(report.islands_per_image * len(samples)) == sum(alone)


def test_report_default_nans():
    report = MetricsReport(step=1, num_images=0)
    assert np.isnan(report.miou_all)
    assert np.isnan(report.miou_avg)
