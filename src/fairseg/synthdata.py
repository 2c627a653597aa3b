"""Procedural imbalanced segmentation benchmarks and the continual split.

Images are (H, W, 3) float32 grids in [0, 1]; label maps are (H, W) uint16 with
0 = background and 65535 = ignore.  Each class is keyed by a (shape kind,
base color) pair; shapes are painted back-to-front so later shapes occlude
earlier ones, which erodes minority classes the way real long-tail pixel
distributions do.  Generation is a pure function of the spec: every image
uses its own hash-derived PRNG stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError, DimensionError, FormatError
from .fileio import read_arrays, write_arrays
from .numerics import Rng

IGNORE_ID = 65535
BACKGROUND_ID = 0

DATASET_MAGIC = b"FCLS"
DATASET_VERSION = 2
DATASET_DTYPES = {"images": "<f4", "labels": "<u2"}  # the arrays in file order

SHAPE_KINDS = ("rect", "circle", "triangle")

BACKGROUND_COLOR = (0.08, 0.08, 0.08)

_BASE_COLORS = (
    (0.90, 0.15, 0.15),
    (0.15, 0.85, 0.15),
    (0.20, 0.30, 0.95),
    (0.95, 0.85, 0.20),
    (0.85, 0.20, 0.85),
    (0.20, 0.85, 0.85),
    (0.95, 0.55, 0.10),
    (0.90, 0.90, 0.90),
)

COLOR_JITTER = 0.1


@dataclass
class SegSample:
    """One RGB image grid plus its integer label map."""

    image: np.ndarray  # (H, W, 3) float32 in [0, 1]
    labels: np.ndarray  # (H, W) uint16


@dataclass(frozen=True)
class BenchmarkSpec:
    """The [benchmark] config section: one field per key, in dump order."""

    num_classes: int = 8
    image_height: int = 32
    image_width: int = 32
    noise_sigma: float = 0.04
    train_count: int = 200
    test_count: int = 50
    zipf_exponent: float = 1.5
    seed: int = 7

    def validate(self):
        if min(self.image_height, self.image_width) < 8:
            raise ConfigError("image sides must be at least 8 pixels")
        if self.num_classes < 1 or self.num_classes >= IGNORE_ID:
            raise ConfigError(f"invalid num_classes {self.num_classes}")
        with np.errstate(all="ignore"):  # an overflow is reported below
            freqs = zipf_frequencies(self.num_classes, self.zipf_exponent)
        if not all(f > 0 for f in freqs):
            raise ConfigError(
                f"zipf_exponent {self.zipf_exponent!r} gives a class a "
                "frequency that is not > 0"
            )
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.train_count < 1 or self.test_count < 1:
            raise ConfigError("train_count and test_count must be >= 1")
        return self


def zipf_frequencies(num_classes, exponent):
    """Frequencies proportional to rank^-exponent, normalized to sum 1."""
    ranks = np.arange(1, num_classes + 1, dtype=np.float64)
    f = ranks**-exponent
    f /= f.sum()
    return tuple(float(x) for x in f)


def default_palette(num_classes):
    palette = []
    for c in range(num_classes):
        kind = SHAPE_KINDS[c % len(SHAPE_KINDS)]
        base = _BASE_COLORS[c % len(_BASE_COLORS)]
        if c >= len(_BASE_COLORS):
            # darken repeated colors so ids stay visually distinct
            scale = 0.6 ** (c // len(_BASE_COLORS))
            base = tuple(v * scale for v in base)
        palette.append((kind, base))
    return tuple(palette)


@dataclass(frozen=True)
class TaskSplit:
    """Ordered class-id sets, one per continual step.

    A valid split numbers its classes 1, 2, ... in step order, so head row
    c of a model trained on it predicts class c.
    """

    steps: Tuple[Tuple[int, ...], ...]

    def validate(self, num_classes=None):
        if not all(self.steps):
            raise ConfigError("empty step in task split")
        ids = [c for step in self.steps for c in step]
        if ids != list(range(1, len(ids) + 1)):
            raise ConfigError(
                f"task split {self.steps} does not number its classes "
                f"1..{len(ids)} in step order"
            )
        if num_classes is not None and len(ids) > num_classes:
            raise ConfigError(f"class id {len(ids)} outside 1..{num_classes}")
        return self

    @property
    def num_steps(self):
        return len(self.steps)

    def classes_at(self, step):
        self._check_step(step)
        return frozenset(self.steps[step - 1])

    def known_through(self, step):
        self._check_step(step)
        out = set()
        for s in self.steps[:step]:
            out.update(s)
        return frozenset(out)

    def _check_step(self, step):
        if not 1 <= step <= len(self.steps):
            raise ConfigError(f"step {step} outside 1..{len(self.steps)}")

    @classmethod
    def from_sizes(cls, sizes, num_classes):
        """Build a split like "5-3": consecutive ids, ascending."""
        if isinstance(sizes, str):
            try:
                sizes = [int(tok) for tok in sizes.split("-")]
            except ValueError as exc:
                raise ConfigError(f"bad split spec {sizes!r}") from exc
        if sum(sizes) > num_classes:
            raise ConfigError(
                f"split sizes {sizes} exceed {num_classes} classes"
            )
        steps = []
        nxt = 1
        for n in sizes:
            if n < 1:
                raise ConfigError("split step sizes must be >= 1")
            steps.append(tuple(range(nxt, nxt + n)))
            nxt += n
        return cls(steps=tuple(steps)).validate(num_classes)


def _paint_shape(image, labels, rng, kind, color, class_id):
    h, w = labels.shape
    smin = max(3, min(h, w) // 6)
    smax = max(smin + 1, min(h, w) // 2)
    if kind == "rect":
        sh = smin + rng.randint(smax - smin + 1)
        sw = smin + rng.randint(smax - smin + 1)
        r0 = rng.randint(h - sh + 1)
        c0 = rng.randint(w - sw + 1)
        image[r0 : r0 + sh, c0 : c0 + sw, :] = color
        labels[r0 : r0 + sh, c0 : c0 + sw] = class_id
    elif kind == "circle":
        rmin = max(2, smin // 2)
        rmax = max(rmin + 1, smax // 2)
        radius = rmin + rng.randint(rmax - rmin + 1)
        cy = radius + rng.randint(h - 2 * radius)
        cx = radius + rng.randint(w - 2 * radius)
        rr, cc = np.ogrid[:h, :w]
        mask = (rr - cy) ** 2 + (cc - cx) ** 2 <= radius**2
        image[mask] = color
        labels[mask] = class_id
    else:  # triangle: right angle at the top-left corner
        sh = smin + rng.randint(smax - smin + 1)
        sw = smin + rng.randint(smax - smin + 1)
        r0 = rng.randint(h - sh + 1)
        c0 = rng.randint(w - sw + 1)
        dr = np.arange(sh, dtype=np.float64)[:, None] + 0.5
        dc = np.arange(sw, dtype=np.float64)[None, :] + 0.5
        mask = dr * sw + dc * sh <= sh * sw
        sub_img = image[r0 : r0 + sh, c0 : c0 + sw]
        sub_lab = labels[r0 : r0 + sh, c0 : c0 + sw]
        sub_img[mask] = color
        sub_lab[mask] = class_id


def _generate_image(spec, cdf, palette, rng):
    h, w = spec.image_height, spec.image_width
    image = np.empty((h, w, 3), dtype=np.float64)
    image[:, :] = BACKGROUND_COLOR
    labels = np.zeros((h, w), dtype=np.uint16)
    n_shapes = 1 + rng.randint(4)
    for _ in range(n_shapes):
        u = rng.uniform()
        class_id = 1 + int(np.searchsorted(cdf, u, side="right"))
        class_id = min(class_id, spec.num_classes)
        kind, base = palette[class_id - 1]
        jitter = [COLOR_JITTER * (2.0 * rng.uniform() - 1.0) for _ in range(3)]
        color = tuple(base[i] + jitter[i] for i in range(3))
        _paint_shape(image, labels, rng, kind, color, class_id)
    if spec.noise_sigma > 0:
        noise = rng.normals(h * w * 3).reshape(h, w, 3)
        image += spec.noise_sigma * noise
    np.clip(image, 0.0, 1.0, out=image)
    # float32, the file's dtype, so a write/read round trip is bit-exact
    return SegSample(image=image.astype(np.float32), labels=labels)


def generate(spec):
    """Generate (train, test) sample lists; pure function of the spec."""
    spec.validate()
    cdf = np.cumsum(zipf_frequencies(spec.num_classes, spec.zipf_exponent))
    palette = default_palette(spec.num_classes)
    root = Rng(spec.seed)
    train = [
        _generate_image(spec, cdf, palette, root.split(f"train/{i}"))
        for i in range(spec.train_count)
    ]
    test = [
        _generate_image(spec, cdf, palette, root.split(f"test/{i}"))
        for i in range(spec.test_count)
    ]
    return train, test


def _keep_only(sample, first, last):
    """Labels outside ``first..last`` become background; the ignore sentinel
    passes."""
    labels = sample.labels
    keep = ((labels >= first) & (labels <= last)) | (labels == IGNORE_ID)
    collapsed = np.where(keep, labels, np.uint16(BACKGROUND_ID))
    return SegSample(image=sample.image, labels=collapsed.astype(np.uint16))


def collapse_labels(sample, split, step):
    """Collapse labels outside the step's class set into background.

    Current-step classes keep their ids; the ignore sentinel passes through;
    everything else becomes background.  The image is shared, not copied.
    """
    ids = split.classes_at(step)
    return _keep_only(sample, min(ids), max(ids))


def evaluation_labels(sample, split, step):
    """Collapse labels to the classes known through `step`.

    Unlike :func:`collapse_labels` (the training view, which keeps only the
    current step's classes), evaluation after step t scores every class
    introduced at any step up to t; classes from future steps collapse into
    background.
    """
    return _keep_only(sample, 1, max(split.known_through(step)))


def select_step_indices(samples, split, step):
    """Indices of samples with at least one pixel of a current-step class."""
    classes = np.array(sorted(split.classes_at(step)), dtype=np.uint16)
    out = []
    for i, sample in enumerate(samples):
        if np.isin(sample.labels, classes).any():
            out.append(i)
    return out


def class_pixel_counts(samples, num_classes):
    """Pixel counts indexed 0..num_classes (0 = background); ignores excluded."""
    labels = np.concatenate([s.labels.ravel() for s in samples])
    labels = labels[labels != IGNORE_ID]
    return np.bincount(labels, minlength=num_classes + 1)[: num_classes + 1]


def write_dataset(samples, path, num_classes):
    """Write equal-size samples as a ``write_arrays`` container: the header
    holds ``num_classes``, then come ``images`` (N, H, W, 3) float32 and
    ``labels`` (N, H, W) uint16.  Mixed sizes, or no samples, raise
    DimensionError before the file is opened."""
    sizes = {(s.image.shape, s.labels.shape) for s in samples}
    if len(sizes) != 1:
        raise DimensionError(f"dataset images must share one size, got {sorted(sizes)}")
    arrays = [("images", [s.image for s in samples]),
              ("labels", [s.labels for s in samples])]
    write_arrays(path, DATASET_MAGIC, DATASET_VERSION,
                 {"num_classes": int(num_classes)}, arrays, DATASET_DTYPES.__getitem__)


def read_dataset(path):
    """Read a dataset file; returns (samples, num_classes).  The samples'
    images and labels are views of the file's two arrays."""
    return read_arrays(path, DATASET_MAGIC, DATASET_VERSION, "dataset",
                       DATASET_DTYPES.__getitem__, _samples_of)


def _samples_of(header, arrays):
    num_classes = header["num_classes"]
    if type(num_classes) is not int or not 1 <= num_classes < IGNORE_ID:
        raise FormatError(f"num_classes {num_classes!r} outside 1..{IGNORE_ID - 1}")
    names = [name for name, _ in header["arrays"]]
    if names != list(DATASET_DTYPES):
        raise FormatError(f"dataset arrays {names}, expected {list(DATASET_DTYPES)}")
    images, labels = arrays["images"], arrays["labels"]
    if images.ndim != 4 or images.shape[3] != 3 or labels.shape != images.shape[:3]:
        raise FormatError(f"images {images.shape} and labels {labels.shape} are "
                          "not (N, H, W, 3) and (N, H, W)")
    if 0 in images.shape[1:3]:
        raise FormatError(f"zero-area images {images.shape[1]}x{images.shape[2]}")
    if not np.all((images >= 0.0) & (images <= 1.0)):
        raise FormatError("image values not finite or outside [0, 1]")
    if np.any((labels > num_classes) & (labels != IGNORE_ID)):
        raise FormatError(f"labels outside 0..{num_classes} + ignore")
    samples = [SegSample(image=image, labels=lab)
               for image, lab in zip(images, labels)]
    return samples, num_classes
