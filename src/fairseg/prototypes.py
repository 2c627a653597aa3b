"""Per-class prototype vectors and bounded feature banks.

Prototype row c belongs to class c, as head row c does; row 0 is the
unknown/background cluster.  Row 0 stays active across steps while the
initialized rows of classes learned in earlier steps are frozen.
Prototypes are never touched by gradients: they follow the periodic
momentum-average schedule driven by the per-class FIFO feature banks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, UnavailableError

LABEL_CHUNK = 2048  # pixels per pseudo-labelling pass: bounds its difference array


@dataclass
class ClusterConfig:
    margin: float = 10.0
    momentum: float = 0.99
    update_period: int = 50
    bank_capacity: int = 500
    deposit_per_class: int = 32

    def validate(self):
        if self.margin <= 0:
            raise ConfigError("cluster margin must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("cluster momentum must be in [0, 1)")
        if self.update_period < 1:
            raise ConfigError("cluster update_period must be >= 1")
        if self.bank_capacity < 1:
            raise ConfigError("bank capacity must be >= 1")
        if self.deposit_per_class < 1:
            raise ConfigError("deposit_per_class must be >= 1")
        return self


class PrototypeBank:
    """One prototype per head row: row c is class c's, row 0 the unknown
    cluster's.

    ``vectors`` is (rows, D) float64; ``frozen`` and ``initialized`` are
    (rows,) bool masks.
    """

    def __init__(self, feature_dim, rows):
        self.vectors = np.zeros((rows, feature_dim))
        self.frozen = np.zeros(rows, dtype=bool)
        self.initialized = np.zeros(rows, dtype=bool)

    @property
    def feature_dim(self):
        return self.vectors.shape[1]

    def initialized_ids(self):
        return np.flatnonzero(self.initialized)

    def grow(self, rows):
        """Append unfrozen, uninitialized zero rows up to ``rows``."""
        extra = rows - len(self.vectors)
        self.vectors = np.pad(self.vectors, ((0, extra), (0, 0)))
        self.frozen = np.pad(self.frozen, (0, extra))
        self.initialized = np.pad(self.initialized, (0, extra))


class FeatureBank:
    """Per-class FIFO queues of feature vectors with bounded capacity.

    Each queue is one (n, D) array, oldest row first.
    """

    def __init__(self, feature_dim, capacity):
        if capacity < 1:
            raise ConfigError("bank capacity must be >= 1")
        self.feature_dim = int(feature_dim)
        self.capacity = int(capacity)
        self.queues = {}

    def deposit_many(self, class_id, features):
        """Append (n, D) rows in order; the oldest rows beyond capacity drop out."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.feature_dim:
            raise DimensionError(
                f"features shape {features.shape} != (n, {self.feature_dim})"
            )
        if len(features) == 0:
            return
        queue = self.queues.get(class_id)
        joined = features.copy() if queue is None else np.concatenate([queue, features])
        self.queues[class_id] = joined[-self.capacity:]

    def mean(self, class_id):
        queue = self.queues.get(class_id)
        return None if queue is None else np.mean(queue, axis=0)

    def reset(self):
        self.queues = {}


def update_prototypes(protos, bank, cfg, iteration):
    """Periodic prototype refresh from bank means (momentum schedule).

    At the first update point (iteration == update period) active prototypes
    are set to their bank means; at later multiples they follow
    p <- momentum * p + (1 - momentum) * mean.  A class whose bank was empty
    at the first update point is initialized at the first later update where
    it has features.  Frozen prototypes and empty queues are no-ops.
    """
    i = int(iteration)
    m = cfg.update_period
    if i < m or i % m != 0:
        return
    for cid in np.flatnonzero(~protos.frozen):
        mean = bank.mean(cid)
        if mean is None:
            continue
        if protos.initialized[cid]:
            mean = cfg.momentum * protos.vectors[cid] + (1.0 - cfg.momentum) * mean
        protos.vectors[cid] = mean
        protos.initialized[cid] = True


def pseudo_label_map(protos, features):
    """Nearest-prototype ids for an (N, D) feature array, LABEL_CHUNK rows at a time."""
    ids = protos.initialized_ids()
    if not ids.size:
        raise UnavailableError("no initialized prototypes")
    matrix = protos.vectors[ids]
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != protos.feature_dim:
        raise DimensionError(f"features must be (N, {protos.feature_dim})")
    nearest = np.empty(len(features), dtype=np.int64)
    for lo in range(0, len(features), LABEL_CHUNK):
        part = features[lo : lo + LABEL_CHUNK]
        # direct-difference distances so exact ties match a per-pair scan;
        # ids ascending, so argmin's first-hit rule is the smallest-id tie break
        d2 = np.sum((part[:, None, :] - matrix[None, :, :]) ** 2, axis=2)
        nearest[lo : lo + LABEL_CHUNK] = np.argmin(d2, axis=1)
    return ids[nearest]
