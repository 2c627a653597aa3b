"""Segmentation quality, fairness, and structure metrics.

Everything works in class-id space (background 0, foreground ids as
assigned by the task split).  Pixels labeled with the ignore sentinel
never enter any statistic.  Classes absent from both reference and
prediction are excluded from mIoU instead of dragging it to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

import numpy as np

from .errors import DimensionError, FormatError, LabelError, UnavailableError
from .fileio import atomic_open
from .model import forward_batch
from .numerics import neighbor_pairs
from .synthdata import IGNORE_ID, evaluation_labels

EVAL_BATCH = 8  # test images per forward


class ConfusionMatrix:
    """Dense confusion counts indexed by class id (reference x prediction)."""

    def __init__(self, num_labels):
        if num_labels < 1:
            raise DimensionError("need at least one label id")
        self.num_labels = int(num_labels)
        self.matrix = np.zeros((num_labels, num_labels), dtype=np.int64)

    def accumulate(self, reference, prediction):
        ref = np.asarray(reference).reshape(-1)
        pred = np.asarray(prediction).reshape(-1)
        if ref.shape != pred.shape:
            raise DimensionError("reference and prediction sizes differ")
        valid = ref != IGNORE_ID
        ref = ref[valid].astype(np.int64)
        pred = pred[valid].astype(np.int64)
        if ref.size == 0:
            return self
        if ref.min() < 0 or ref.max() >= self.num_labels:
            raise LabelError("reference label outside matrix range")
        if pred.min() < 0 or pred.max() >= self.num_labels:
            raise LabelError("prediction label outside matrix range")
        np.add.at(self.matrix, (ref, pred), 1)
        return self

    def total(self):
        return int(self.matrix.sum())

    def support(self, class_id):
        """Number of reference pixels of the class."""
        return int(self.matrix[class_id].sum())

    def present_ids(self):
        """Ids that occur in the reference or the prediction."""
        occupied = (self.matrix.sum(axis=1) + self.matrix.sum(axis=0)) > 0
        return [int(i) for i in np.flatnonzero(occupied)]

    def iou(self, class_id):
        """tp/(tp+fp+fn); None when the class is absent on both sides."""
        tp = self.matrix[class_id, class_id]
        denom = (
            self.matrix[class_id].sum() + self.matrix[:, class_id].sum() - tp
        )
        if denom == 0:
            return None
        return float(tp / denom)

    def per_class_iou(self):
        out = {}
        for c in self.present_ids():
            v = self.iou(c)
            if v is not None:
                out[c] = v
        return out


def mean_iou(per_class, ids):
    """Mean IoU over the requested ids, skipping absent classes."""
    vals = [per_class[c] for c in ids if c in per_class]
    return float(np.mean(vals)) if vals else float("nan")


def iou_std(per_class, ids):
    vals = [per_class[c] for c in ids if c in per_class]
    return float(np.std(vals)) if len(vals) >= 2 else 0.0


def normalized_entropy(counts):
    """Entropy of a class histogram divided by log of the class count.

    1 for a uniform histogram, 0 when a single class holds all the mass;
    zero-count classes contribute nothing.
    """
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or c.size < 2:
        raise DimensionError("need a flat histogram over >= 2 classes")
    if np.any(c < 0):
        raise LabelError("histogram counts must be >= 0")
    total = c.sum()
    if total == 0:
        raise UnavailableError("all-zero histogram has no entropy")
    p = c / total
    nz = p > 0
    ent = -np.sum(p[nz] * np.log(p[nz]))
    return float(ent / np.log(c.size))


def single_pixel_islands(labels):
    """Count pixels whose label matches none of their 8 in-bounds neighbors,
    summed over the (H, W) maps of a (..., H, W) array."""
    y = np.asarray(labels)
    if y.ndim < 2:
        raise DimensionError("labels must be (..., H, W)")
    matches = np.zeros(y.shape, dtype=bool)
    for ra, ca, rb, cb in neighbor_pairs(*y.shape[-2:], 3):
        eq = y[..., ra, ca] == y[..., rb, cb]
        matches[..., ra, ca] |= eq
        matches[..., rb, cb] |= eq
    return int(np.count_nonzero(~matches))


@dataclass
class MetricsReport:
    """Evaluation summary for one step (or the final model)."""

    step: int
    num_images: int
    per_class_iou: Dict[int, float] = field(default_factory=dict)
    miou_initial: float = float("nan")
    miou_later: float = float("nan")
    miou_all: float = float("nan")
    miou_avg: float = float("nan")  # mean of per-step mIoU(all); filled by runs
    miou_major: float = float("nan")
    miou_minor: float = float("nan")
    iou_std_fg: float = 0.0
    islands_per_image: float = 0.0

    def summary_fields(self):
        """Every non-dict field (floats as repr), then iou_class_<c>."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        out = {name: repr(v) if isinstance(v, float) else str(v)
               for name, v in values.items() if not isinstance(v, dict)}
        for cid in sorted(self.per_class_iou):
            out[f"iou_class_{cid}"] = repr(self.per_class_iou[cid])
        return out


def frequency_groups(cm, ids):
    """Split ids into (major, minor) by reference pixel share.

    Major holds classes whose share is strictly above the median share;
    everything else (including classes at or below the median) is minor.
    """
    shares = {c: cm.support(c) for c in ids}
    counted = [c for c in ids if shares[c] > 0]
    if len(counted) < 2:
        return list(counted), []
    med = float(np.median([shares[c] for c in counted]))
    major = [c for c in counted if shares[c] > med]
    minor = [c for c in counted if shares[c] <= med]
    return major, minor


def grouped_report(cm, split, step, num_images=0):
    """Build a MetricsReport from an accumulated confusion matrix.

    Groups: initial = step-1 foreground classes, later = foreground classes
    introduced afterwards, all = background plus every foreground class,
    major/minor = frequency split of foreground ids by median pixel share.
    """
    fg = sorted(split.known_through(step))
    initial = sorted(split.classes_at(1))
    later = [c for c in fg if c not in initial]
    per_class = cm.per_class_iou()
    major, minor = frequency_groups(cm, fg)
    return MetricsReport(
        step=step,
        num_images=num_images,
        per_class_iou=per_class,
        miou_initial=mean_iou(per_class, initial),
        miou_later=mean_iou(per_class, later) if later else float("nan"),
        miou_all=mean_iou(per_class, [0] + fg),
        miou_major=mean_iou(per_class, major),
        miou_minor=mean_iou(per_class, minor),
        iou_std_fg=iou_std(per_class, fg),
    )


def evaluate_model(params, samples, split, step):
    """Run the model over a labeled test set and compute the full report.

    Images are forwarded ``EVAL_BATCH`` at a time, so a batch of mixed
    sizes raises DimensionError, and each batch's predicted ids enter the
    confusion matrix and the island count at once.  Labels are collapsed to
    the classes known through ``step``; later classes count as background,
    matching what the model could have seen.  Returns (MetricsReport,
    ConfusionMatrix).
    """
    num_labels = max(params.num_rows, max(split.known_through(step)) + 1)
    cm = ConfusionMatrix(num_labels)
    islands_total = 0
    for start in range(0, len(samples), EVAL_BATCH):
        chunk = samples[start : start + EVAL_BATCH]
        # only the ids outlive the forward, so one batch cache is live at a time
        ids = np.argmax(forward_batch(params, [s.image for s in chunk])[0], axis=3)
        cm.accumulate([evaluation_labels(s, split, step).labels for s in chunk], ids)
        islands_total += single_pixel_islands(ids)
    report = grouped_report(cm, split, step, num_images=len(samples))
    report.islands_per_image = islands_total / max(1, len(samples))
    return report, cm


def write_summary(path, report):
    """The report's summary fields as ``key=value`` lines."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for key, value in report.summary_fields().items():
            fh.write(f"{key}={value}\n")


def read_summary(path):
    """A summary file's fields as a dict of strings."""
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"summary line without '=': {line!r}")
            key, value = line.split("=", 1)
            fields[key] = value
    return fields
