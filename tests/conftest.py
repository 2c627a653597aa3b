"""Shared fixtures: small benchmarks and handcrafted sample builders."""

import numpy as np
import pytest

from fairseg.config import default_config
from fairseg.synthdata import BenchmarkSpec, SegSample, TaskSplit, generate

# Verdict lines recorded by the acceptance tests; echoed after the run so
# they are visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def same_bytes(a, b):
    """Equal shape, dtype and bytes (so -0.0 and 0.0 differ)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def tiny_spec(**overrides):
    """A 4-class 16x16 benchmark small enough for per-test generation."""
    kwargs = dict(
        num_classes=4,
        image_height=16,
        image_width=16,
        noise_sigma=0.02,
        train_count=24,
        test_count=8,
        seed=11,
    )
    kwargs.update(overrides)
    return BenchmarkSpec(**kwargs).validate()


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate(tiny_spec())


@pytest.fixture(scope="session")
def tiny_split():
    return TaskSplit.from_sizes("2-2", 4)


@pytest.fixture(scope="session")
def shapes8_dataset():
    """The default committed benchmark, generated once per session."""
    return generate(default_config().benchmark_spec())


def constant_sample(height, width, color, class_id):
    """A single-class sample: constant color, constant label."""
    image = np.full((height, width, 3), color, dtype=np.float64)
    labels = np.full((height, width), class_id, dtype=np.uint16)
    return SegSample(image=image, labels=labels)


def separable_samples(count=12, height=12, width=12, seed=3):
    """Linearly separable 2-class set: red blobs on dark background.

    Class 1 regions are bright red, class 2 regions bright green, the rest
    near-black; a patch model can split them on color alone.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        image = np.full((height, width, 3), 0.05, dtype=np.float64)
        labels = np.zeros((height, width), dtype=np.uint16)
        for cid, color in ((1, (0.9, 0.1, 0.1)), (2, (0.1, 0.9, 0.1))):
            r0 = int(rng.integers(0, height - 4))
            c0 = int(rng.integers(0, width - 4))
            image[r0 : r0 + 4, c0 : c0 + 4] = color
            labels[r0 : r0 + 4, c0 : c0 + 4] = cid
        samples.append(SegSample(image=image, labels=labels))
    return samples
