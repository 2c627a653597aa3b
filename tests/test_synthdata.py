"""Benchmark generation, continual splits, label collapse, dataset I/O."""

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ContainerRefusals,
    join_container,
    same_bytes,
    split_container,
    tiny_spec,
)
from fairseg.config import default_config
from fairseg.errors import ConfigError, DimensionError, FormatError
from fairseg.fileio import write_arrays
from fairseg.metrics import normalized_entropy, write_summary
from fairseg.model import stack_images
from fairseg.synthdata import (
    BACKGROUND_ID,
    DATASET_DTYPES,
    DATASET_MAGIC,
    DATASET_VERSION,
    IGNORE_ID,
    SegSample,
    TaskSplit,
    class_pixel_counts,
    collapse_labels,
    evaluation_labels,
    generate,
    read_dataset,
    select_step_indices,
    write_dataset,
    zipf_frequencies,
)


DEFAULT_BENCHMARK_SHA256 = (
    "5f48208a6aa5f02634294f12293fab3aa467eb21b99bf4a702c2a79571d29bc7"
)


def make_sample(labels):
    labels = np.asarray(labels, dtype=np.uint16)
    image = np.zeros(labels.shape + (3,), dtype=np.float64)
    return SegSample(image=image, labels=labels)


class TestSpecValidation:
    def test_default_benchmark_is_valid(self):
        spec = default_config().benchmark_spec()
        assert spec.num_classes == 8
        assert spec.zipf_exponent == 1.5

    def test_zipf_frequencies_are_rank_monotone(self):
        f = zipf_frequencies(8, exponent=1.5)
        assert all(a > b for a, b in zip(f, f[1:]))
        assert abs(sum(f) - 1.0) < 1e-12

    def test_zero_area_image_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(image_height=0)

    @pytest.mark.parametrize("exponent", [float("inf"), 2000.0, -2000.0])
    def test_exponent_without_positive_frequencies_rejected(self, exponent):
        with pytest.raises(ConfigError, match="zipf_exponent"):
            tiny_spec(zipf_exponent=exponent)


class TestGeneration:
    def test_same_spec_same_seed_bit_identical(self):
        a_train, a_test = generate(tiny_spec())
        b_train, b_test = generate(tiny_spec())
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.labels, b.labels)

    def test_default_benchmark_digest_is_pinned(self, shapes8_dataset):
        # sha256 of every array of the default benchmark with its dtype and
        # shape; a change to the RNG streams or the painting moves it.  The
        # float32 images are hashed as float64, which is exact, so the digest
        # pins the values the float64 images of earlier versions had
        train, test = shapes8_dataset
        h = hashlib.sha256()
        for s in train + test:
            assert s.image.dtype == np.float32
            for arr in (np.asarray(s.image, np.float64), s.labels):
                h.update(f"{arr.dtype.str}{arr.shape}".encode())
                h.update(arr.tobytes())
        assert h.hexdigest() == DEFAULT_BENCHMARK_SHA256

    def test_different_seed_differs(self):
        a_train, _ = generate(tiny_spec())
        b_train, _ = generate(tiny_spec(seed=99))
        assert any(
            not np.array_equal(a.labels, b.labels)
            for a, b in zip(a_train, b_train)
        )

    def test_values_in_range(self, tiny_dataset):
        train, test = tiny_dataset
        for s in train + test:
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            present = set(np.unique(s.labels).tolist())
            assert present <= set(range(5)) | {IGNORE_ID}

    def test_images_survive_float32_quantization(self, tiny_dataset):
        # the file format stores float32; generation gives float32 images,
        # so write/read round-trips are bit-exact
        train, test = tiny_dataset
        assert all(s.image.dtype == np.float32 for s in train + test)

    def test_dominant_class_dominates_pixel_share(self):
        spec = tiny_spec(train_count=200, seed=5, zipf_exponent=3.0)
        train, _ = generate(spec)
        counts = class_pixel_counts(train, spec.num_classes)
        fg = counts[1:]
        assert fg[0] > max(fg[1:])

    def test_uniform_frequencies_high_entropy(self):
        spec = tiny_spec(train_count=200, seed=21, zipf_exponent=0.0)
        train, _ = generate(spec)
        counts = class_pixel_counts(train, spec.num_classes)[1:]
        assert normalized_entropy(counts) >= 0.95

    def test_class_pixel_counts_equal_per_sample_sum(self):
        # one bincount over every sample counts what per-sample counts sum to;
        # the ignore sentinel is dropped and labels above num_classes are cut
        rng = np.random.default_rng(3)
        samples = []
        for shape in [(5, 7), (4, 4), (6, 3)]:
            labels = rng.integers(0, 5, shape).astype(np.uint16)
            labels[rng.random(shape) < 0.2] = IGNORE_ID
            samples.append(SimpleNamespace(labels=labels))
        samples[1].labels[0, :] = 4
        want = np.zeros(5, dtype=np.int64)
        for s in samples:
            kept = s.labels[s.labels != IGNORE_ID].astype(np.int64)
            want += np.bincount(kept, minlength=5)[:5]
        assert same_bytes(class_pixel_counts(samples, 4), want)
        assert same_bytes(class_pixel_counts(samples, 3), want[:4])

    def test_default_benchmark_skew_ratio(self, shapes8_dataset):
        train, _ = shapes8_dataset
        counts = class_pixel_counts(train, 8)[1:]
        present = counts[counts > 0]
        assert present.max() / present.min() >= 5.0


class TestTaskSplit:
    def test_from_sizes(self):
        split = TaskSplit.from_sizes("5-3", 8)
        assert split.num_steps == 2
        assert split.classes_at(1) == frozenset({1, 2, 3, 4, 5})
        assert split.classes_at(2) == frozenset({6, 7, 8})
        assert split.known_through(2) == frozenset(range(1, 9))

    def test_three_step_split(self):
        split = TaskSplit.from_sizes("4-2-2", 8)
        assert split.num_steps == 3
        assert split.classes_at(3) == frozenset({7, 8})

    def test_oversized_split_rejected(self):
        with pytest.raises(ConfigError):
            TaskSplit.from_sizes("5-5", 8)

    @pytest.mark.parametrize("steps", [
        ((1, 2), (2, 3)),
        ((1,), (3,)),
        ((2,), (1,)),
        ((2, 3),),
    ], ids=["duplicate", "gap", "out_of_order", "not_from_1"])
    def test_split_not_numbered_in_step_order_rejected(self, steps):
        with pytest.raises(ConfigError, match="in step order"):
            TaskSplit(steps=steps).validate(4)

    def test_step_out_of_range(self):
        split = TaskSplit.from_sizes("2-2", 4)
        with pytest.raises(ConfigError):
            split.classes_at(3)


class TestCollapse:
    def test_direct_application(self):
        split = TaskSplit.from_sizes("2-2-1", 5)
        sample = make_sample([[1, 2, 5], [0, 3, 4]])
        out = collapse_labels(sample, split, 1)
        assert out.labels.tolist() == [[1, 2, 0], [0, 0, 0]]

    def test_identity_when_step_covers_present(self):
        split = TaskSplit.from_sizes("2-2", 4)
        sample = make_sample([[1, 2], [0, 1]])
        out = collapse_labels(sample, split, 1)
        assert np.array_equal(out.labels, sample.labels)

    def test_all_background_passthrough(self):
        split = TaskSplit.from_sizes("2-2", 4)
        sample = make_sample(np.zeros((3, 3), dtype=np.uint16))
        out = collapse_labels(sample, split, 2)
        assert not out.labels.any()

    def test_ignore_passes_through(self):
        split = TaskSplit.from_sizes("2-2", 4)
        sample = make_sample([[IGNORE_ID, 3], [1, 4]])
        out = collapse_labels(sample, split, 2)
        assert out.labels.tolist() == [[IGNORE_ID, 3], [0, 4]]

    def test_idempotence(self, tiny_dataset, tiny_split):
        train, _ = tiny_dataset
        for sample in train[:8]:
            once = collapse_labels(sample, tiny_split, 2)
            twice = collapse_labels(once, tiny_split, 2)
            assert np.array_equal(once.labels, twice.labels)

    def test_image_is_shared_not_copied(self, tiny_dataset, tiny_split):
        train, _ = tiny_dataset
        out = collapse_labels(train[0], tiny_split, 1)
        assert out.image is train[0].image

    def test_evaluation_labels_keep_known_through(self):
        split = TaskSplit.from_sizes("2-2-1", 5)
        sample = make_sample([[1, 2, 3], [4, 5, 0]])
        step2 = evaluation_labels(sample, split, 2)
        assert step2.labels.tolist() == [[1, 2, 3], [4, 0, 0]]
        final = evaluation_labels(sample, split, 3)
        assert np.array_equal(final.labels, sample.labels)

    def test_overlap_property(self, tiny_dataset, tiny_split):
        # collapsed views at two steps differ only on pixels of the union
        # of those steps' class sets
        train, _ = tiny_dataset
        union = tiny_split.classes_at(1) | tiny_split.classes_at(2)
        for sample in train:
            a = collapse_labels(sample, tiny_split, 1).labels
            b = collapse_labels(sample, tiny_split, 2).labels
            diff = a != b
            assert set(np.unique(sample.labels[diff])).issubset(union)


class TestSelection:
    def test_future_only_sample_excluded(self):
        split = TaskSplit.from_sizes("2-2", 4)
        future_only = make_sample([[3, 4], [0, 0]])
        assert select_step_indices([future_only], split, 1) == []

    def test_single_pixel_included(self):
        split = TaskSplit.from_sizes("2-2", 4)
        sample = make_sample([[0, 0], [0, 3]])
        assert select_step_indices([sample], split, 2) == [0]

    def test_matches_brute_force_scan(self, tiny_dataset, tiny_split):
        train, _ = tiny_dataset
        for step in (1, 2):
            wanted = tiny_split.classes_at(step)
            expect = [
                i
                for i, s in enumerate(train)
                if any(int(c) in wanted for c in np.unique(s.labels))
            ]
            assert select_step_indices(train, tiny_split, step) == expect


class TestDatasetIO(ContainerRefusals):
    kind = "dataset"
    magic = DATASET_MAGIC
    old_version = 1

    @pytest.fixture(autouse=True)
    def _train(self, tiny_dataset):
        self.train = tiny_dataset[0]

    def save(self, path, variant=0):
        write_dataset(self.train[2 * variant : 2 * variant + 2], path, num_classes=4)

    def load(self, path):
        return read_dataset(path)

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "train.bin"
        write_dataset(self.train, path, num_classes=4)
        back, num_classes = read_dataset(path)
        assert num_classes == 4
        assert len(back) == len(self.train)
        for a, b in zip(self.train, back):
            assert same_bytes(a.image, b.image)
            assert same_bytes(a.labels, b.labels)

    def test_read_images_are_float32_views_of_one_array(self, tmp_path):
        path = tmp_path / "train.bin"
        write_dataset(self.train, path, num_classes=4)
        back, _ = read_dataset(path)
        images = back[0].image.base
        assert images.dtype == np.float32
        assert images.shape == (len(self.train),) + self.train[0].image.shape
        assert all(np.shares_memory(s.image, images) for s in back)
        # the model's batch holds the float32 images' bytes as they are
        assert same_bytes(stack_images([s.image for s in back]), images)

    def test_write_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_dataset(self.train, p1, num_classes=4)
        write_dataset(self.train, p2, num_classes=4)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.bin"
        self.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_truncation_names_field_and_end_of_file(self, tmp_path):
        path = tmp_path / "short.bin"
        self.save(path)
        header, body = split_container(path)
        assert header["arrays"] == [["images", [2, 16, 16, 3]], ["labels", [2, 16, 16]]]
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 2 * 16 * 16 * 2 - 7])
        with pytest.raises(FormatError, match="while reading array 'images'") as info:
            read_dataset(path)
        assert info.value.offset == len(raw) - 2 * 16 * 16 * 2 - 7

    def test_header_payload_mismatch(self, tmp_path):
        path = tmp_path / "miscount.bin"
        self.save(path)
        header, body = split_container(path)
        header["arrays"][0][1][0] = header["arrays"][1][1][0] = 5
        join_container(path, json.dumps(header).encode(), body)
        with pytest.raises(FormatError, match="truncated"):
            read_dataset(path)

    @pytest.mark.parametrize("name", ["summary.txt", "train.bin"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, name):
        path = tmp_path / name
        if name == "train.bin":
            self.assert_failed_write_keeps(path, monkeypatch)
            return

        class Unwritable:
            def __format__(self, spec):
                raise RuntimeError("interrupted")

        def report(**fields):
            return SimpleNamespace(summary_fields=lambda: fields)

        write_summary(path, report(step="1", miou_all="0.5"))
        before = path.read_bytes()
        # the first line is written before the second one fails
        with pytest.raises(RuntimeError):
            write_summary(path, report(step="2", miou_all=Unwritable()))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("mixed", [True, False], ids=["mixed", "empty"])
    def test_mixed_sizes_rejected_before_the_file_opens(self, tmp_path, mixed):
        path = tmp_path / "mixed.bin"
        samples = self.train[:2] + [make_sample(np.zeros((16, 15)))] if mixed else []
        with pytest.raises(DimensionError, match="one size"):
            write_dataset(samples, path, num_classes=4)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("arrays, match", [
        ([("images", (2, 4, 4, 3))], "dataset arrays"),
        ([("images", (2, 4, 4, 3)), ("labels", (2, 4, 4)), ("extra", (2,))], "extra"),
        ([("images", (2, 4, 4, 3)), ("labels", (2, 4, 5))], "not .N, H, W, 3."),
        ([("images", (2, 4, 4, 3)), ("labels", (1, 8, 4))], "not .N, H, W, 3."),
        ([("images", (2, 4, 4)), ("labels", (2, 4, 4))], "not .N, H, W, 3."),
        ([("images", (2, 0, 4, 3)), ("labels", (2, 0, 4))], "zero-area"),
        ([("labels", (2, 4, 4)), ("images", (2, 4, 4, 3))], "dataset arrays"),
    ], ids=["missing", "extra", "mismatched", "same_bytes_other_shape",
            "not_rgb", "zero_area", "out_of_order"])
    def test_array_set_and_shapes_rejected(self, tmp_path, arrays, match):
        path = tmp_path / "arrays.bin"
        dtypes = dict(DATASET_DTYPES, extra="<f4")
        write_arrays(path, DATASET_MAGIC, DATASET_VERSION, {"num_classes": 4},
                     [(name, np.zeros(shape)) for name, shape in arrays],
                     dtypes.__getitem__)
        with pytest.raises(FormatError, match=match):
            read_dataset(path)

    @pytest.mark.parametrize("num_classes", [0, 65535, "4", None])
    def test_num_classes_outside_range_rejected(self, tmp_path, num_classes):
        path = tmp_path / "classes.bin"
        self.save(path)
        header, body = split_container(path)
        header["num_classes"] = num_classes
        join_container(path, json.dumps(header).encode(), body)
        with pytest.raises(FormatError, match="num_classes"):
            read_dataset(path)

    @pytest.mark.parametrize("pixel", [np.nan, np.inf, -0.5, 1.5])
    def test_image_values_not_finite_or_outside_unit_range_rejected(self, tmp_path, pixel):
        path = tmp_path / "values.bin"
        sample = make_sample(np.zeros((4, 4)))
        sample.image[1, 2, 0] = pixel
        write_dataset([sample], path, num_classes=4)
        with pytest.raises(FormatError, match=r"not finite or outside \[0, 1\]"):
            read_dataset(path)

    def test_label_outside_classes_rejected(self, tmp_path):
        path = tmp_path / "labels.bin"
        sample = make_sample([[0, 1], [IGNORE_ID, 5]])
        write_dataset([sample], path, num_classes=4)
        with pytest.raises(FormatError, match=r"labels outside 0\.\.4"):
            read_dataset(path)
        write_dataset([sample], path, num_classes=5)
        assert read_dataset(path)[1] == 5


@given(st.integers(2, 12), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_split_partition_property(num_classes, chunk):
    sizes = []
    left = num_classes
    while left > 0:
        take = min(chunk, left)
        sizes.append(take)
        left -= take
    split = TaskSplit.from_sizes(sizes, num_classes)
    seen = set()
    for step in range(1, split.num_steps + 1):
        classes = split.classes_at(step)
        assert not (classes & seen)
        seen |= classes
    assert seen == set(range(1, num_classes + 1))
    assert split.known_through(split.num_steps) == frozenset(seen)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_generation_pure_in_seed(seed):
    spec_a = tiny_spec(train_count=2, test_count=1, seed=seed)
    spec_b = tiny_spec(train_count=2, test_count=1, seed=seed)
    (ta, sa), (tb, sb) = generate(spec_a), generate(spec_b)
    for a, b in zip(ta + sa, tb + sb):
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.labels, b.labels)


def test_background_color_is_dark(tiny_dataset):
    train, _ = tiny_dataset
    sample = train[0]
    bg = sample.labels == BACKGROUND_ID
    if bg.any():
        assert sample.image[bg].mean() < 0.3
