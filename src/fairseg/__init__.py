"""Fairness-aware continual semantic segmentation at desk scale.

A pixel classifier is trained over a sequence of steps that each
introduce new classes.  Prototype-based contrastive clustering with a
momentum feature bank fights catastrophic forgetting without storing old
images; importance weighting by the inverse class frequency keeps rare
classes from being drowned out; a color-conditioned smoothness term
cleans up the predictions.  Everything runs on procedurally generated
shape benchmarks with exact, finite-difference-verified gradients and
bit-reproducible training.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ConfigError,
    DeterminismError,
    DimensionError,
    FairsegError,
    FormatError,
    LabelError,
    ProtocolError,
    StateError,
    UnavailableError,
)
from .numerics import Rng, finite_diff_check  # noqa: F401
from .synthdata import (  # noqa: F401
    BenchmarkSpec,
    TaskSplit,
    generate,
    read_dataset,
    write_dataset,
)
from .prototypes import (  # noqa: F401
    ClusterConfig,
    FeatureBank,
    PrototypeBank,
    update_prototypes,
)
from .model import (  # noqa: F401
    ModelParams,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .losses import (  # noqa: F401
    ConsConfig,
    LossWeights,
    class_weights,
    cluster_loss,
    cons_loss,
    distill_loss,
    weighted_ce,
)
from .trainer import TrainConfig, run_continual  # noqa: F401
from .metrics import ConfusionMatrix, MetricsReport, evaluate_model  # noqa: F401
