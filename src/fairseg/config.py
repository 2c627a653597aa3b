"""Run configuration: INI sections with strict keys and full defaults.

Every knob lives in one of eight sections; missing keys fall back to the
documented defaults, unknown sections or keys are rejected outright, and
the fully resolved configuration can be dumped back out so a run
directory always records exactly what it ran with.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from typing import Dict

from .errors import ConfigError
from .fileio import atomic_open
from .losses import ConsConfig, LossWeights
from .prototypes import ClusterConfig
from .synthdata import TaskSplit, shapes_benchmark
from .trainer import TrainConfig

DEFAULTS = {
    "benchmark": {
        "name": "shapes-8",
        "num_classes": "8",
        "image_height": "32",
        "image_width": "32",
        "noise_sigma": "0.04",
        "train_count": "200",
        "test_count": "50",
        "zipf_exponent": "1.5",
        "seed": "7",
    },
    "split": {
        "steps": "5-3",
    },
    "model": {
        "patch_size": "5",
        "feature_dim": "16",
        "hidden": "64,32",
    },
    "train": {
        "epochs": "10",
        "batch_size": "6",
        "lr_initial": "0.05",
        "lr_continual": "0.005",
        "sgd_momentum": "0.9",
        "weight_decay": "1e-4",
        "seed": "1",
        "use_cluster": "true",
        "use_class_weighting": "true",
        "use_cons": "true",
        "use_distill": "false",
        "ce_on_pseudo": "false",
    },
    "losses": {
        "lambda_cluster": "0.001",
        "lambda_cons": "0.01",
        "lambda_distill": "1.0",
        "smoothing": "1.0",
        "clamp_min": "0.1",
        "clamp_max": "10.0",
    },
    "cluster": {
        "margin": "10.0",
        "momentum": "0.99",
        "update_period": "50",
        "bank_capacity": "500",
        "deposit_per_class": "32",
    },
    "cons": {
        "sigma_color": "0.1",
        "window": "3",
    },
    "output": {
        "dir": "runs/default",
    },
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass
class RunConfig:
    """Resolved string-valued configuration plus typed accessors."""

    values: Dict[str, Dict[str, str]] = field(default_factory=dict)

    # -- raw access -------------------------------------------------------
    def get(self, section, key):
        try:
            return self.values[section][key]
        except KeyError:
            raise ConfigError(f"no such config key [{section}] {key}")

    def set(self, section, key, value):
        if section not in DEFAULTS or key not in DEFAULTS[section]:
            raise ConfigError(f"unknown config key [{section}] {key}")
        self.values[section][key] = str(value)

    def get_int(self, section, key):
        raw = self.get(section, key)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}")

    def get_float(self, section, key):
        raw = self.get(section, key)
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}")

    def get_bool(self, section, key):
        raw = self.get(section, key).strip().lower()
        if raw in _TRUE:
            return True
        if raw in _FALSE:
            return False
        raise ConfigError(f"[{section}] {key} must be a boolean, got {raw!r}")

    # -- typed builders ---------------------------------------------------
    def benchmark_spec(self):
        height = self.get_int("benchmark", "image_height")
        width = self.get_int("benchmark", "image_width")
        return shapes_benchmark(
            num_classes=self.get_int("benchmark", "num_classes"),
            image_size=(height, width),
            noise_sigma=self.get_float("benchmark", "noise_sigma"),
            train_count=self.get_int("benchmark", "train_count"),
            test_count=self.get_int("benchmark", "test_count"),
            seed=self.get_int("benchmark", "seed"),
            zipf_exponent=self.get_float("benchmark", "zipf_exponent"),
        )

    def task_split(self, num_classes=None):
        if num_classes is None:
            num_classes = self.get_int("benchmark", "num_classes")
        return TaskSplit.from_sizes(self.get("split", "steps"), num_classes)

    def hidden_sizes(self):
        raw = self.get("model", "hidden")
        try:
            sizes = tuple(int(part) for part in raw.split(",") if part.strip())
        except ValueError:
            raise ConfigError(f"[model] hidden must be comma-separated ints, got {raw!r}")
        if not sizes or any(s < 1 for s in sizes):
            raise ConfigError(f"[model] hidden sizes must be >= 1, got {raw!r}")
        return sizes

    def train_config(self, num_classes=None):
        split = self.task_split(num_classes)
        cfg = TrainConfig(
            split=split,
            epochs=self.get_int("train", "epochs"),
            batch_size=self.get_int("train", "batch_size"),
            lr_initial=self.get_float("train", "lr_initial"),
            lr_continual=self.get_float("train", "lr_continual"),
            sgd_momentum=self.get_float("train", "sgd_momentum"),
            weight_decay=self.get_float("train", "weight_decay"),
            use_cluster=self.get_bool("train", "use_cluster"),
            use_class_weighting=self.get_bool("train", "use_class_weighting"),
            use_cons=self.get_bool("train", "use_cons"),
            use_distill=self.get_bool("train", "use_distill"),
            ce_on_pseudo=self.get_bool("train", "ce_on_pseudo"),
            weights=LossWeights(
                lambda_cluster=self.get_float("losses", "lambda_cluster"),
                lambda_cons=self.get_float("losses", "lambda_cons"),
                lambda_distill=self.get_float("losses", "lambda_distill"),
            ),
            cluster=ClusterConfig(
                margin=self.get_float("cluster", "margin"),
                momentum=self.get_float("cluster", "momentum"),
                update_period=self.get_int("cluster", "update_period"),
                bank_capacity=self.get_int("cluster", "bank_capacity"),
                deposit_per_class=self.get_int("cluster", "deposit_per_class"),
            ),
            cons=ConsConfig(
                sigma_color=self.get_float("cons", "sigma_color"),
                window=self.get_int("cons", "window"),
            ),
            smoothing=self.get_float("losses", "smoothing"),
            clamp=(
                self.get_float("losses", "clamp_min"),
                self.get_float("losses", "clamp_max"),
            ),
            patch_size=self.get_int("model", "patch_size"),
            feature_dim=self.get_int("model", "feature_dim"),
            hidden=self.hidden_sizes(),
            seed=self.get_int("train", "seed"),
        )
        return cfg.validate()

    # -- serialization ----------------------------------------------------
    def dump(self):
        """The fully resolved configuration as INI text."""
        out = io.StringIO()
        for section in DEFAULTS:
            out.write(f"[{section}]\n")
            for key in DEFAULTS[section]:
                out.write(f"{key} = {self.values[section][key]}\n")
            out.write("\n")
        return out.getvalue()

    def write(self, path):
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dump())


def default_config():
    return RunConfig(
        values={s: dict(kv) for s, kv in DEFAULTS.items()}
    )


def load_config(path=None, overrides=None):
    """Defaults, then the INI file, then explicit overrides — strictly keyed.

    ``overrides`` is an iterable of (section, key, value) applied last
    (CLI flags).  Unknown sections or keys anywhere raise ConfigError.
    """
    cfg = default_config()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}")
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                cfg.values[section][key] = value
    for section, key, value in overrides or ():
        cfg.set(section, key, value)
    return cfg
