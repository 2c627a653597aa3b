"""Run configuration: INI sections with strict keys and full defaults.

Every knob lives in one of eight sections; missing keys fall back to their
defaults, unknown sections or keys are rejected outright, and the fully
resolved configuration can be dumped back out so a run directory always
records exactly what it ran with.  The keys of the [benchmark], [model],
[train], [losses], [cluster] and [cons] sections are the fields of the
config dataclasses: each key has its field's name, and its field's default
gives the key's default and type.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict

from .errors import ConfigError
from .fileio import atomic_open
from .losses import ConsConfig, LossWeights
from .prototypes import ClusterConfig
from .synthdata import BenchmarkSpec, TaskSplit
from .trainer import MODEL_KEY, TrainConfig


def _keyed_fields(cls):
    return [f for f in fields(cls) if f.default is not MISSING]


# The dataclass fields behind each section, in dump order.
_SECTION_FIELDS = {
    "benchmark": _keyed_fields(BenchmarkSpec),
    "model": [f for f in _keyed_fields(TrainConfig) if f.metadata == MODEL_KEY],
    "train": [f for f in _keyed_fields(TrainConfig) if f.metadata != MODEL_KEY],
    "losses": _keyed_fields(LossWeights),
    "cluster": _keyed_fields(ClusterConfig),
    "cons": _keyed_fields(ConsConfig),
}


def _ini(value):
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


_TYPED_DEFAULTS = {
    section: {f.name: _ini(f.default) for f in keyed}
    for section, keyed in _SECTION_FIELDS.items()
}

# Dump order: [split] follows [benchmark] (re-adding a key keeps its place).
DEFAULTS = {
    "benchmark": _TYPED_DEFAULTS["benchmark"],
    "split": {"steps": "5-3"},
    **_TYPED_DEFAULTS,
    "output": {"dir": "runs/default"},
}


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
            value = float(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}")
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be a finite number, got {raw!r}")
        return value

    # -- typed builders ---------------------------------------------------
    def benchmark_spec(self):
        return BenchmarkSpec(**self._section("benchmark")).validate()

    def task_split(self, num_classes=None):
        if num_classes is None:
            num_classes = self.get_int("benchmark", "num_classes")
        return TaskSplit.from_sizes(self.get("split", "steps"), num_classes)

    def hidden_sizes(self):
        raw = self.get("model", "hidden")
        if not raw.strip():
            raise ConfigError(f"[model] hidden must list at least one width, got {raw!r}")
        try:  # an empty part ("8,,4", "64,32,") is an error, not skipped
            return tuple(int(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"[model] hidden must be comma-separated ints, got {raw!r}")

    def _section(self, section):
        """A dataclass-backed section as field values, typed by their defaults."""
        parse = {str: self.get, int: self.get_int, float: self.get_float,
                 tuple: lambda *_: self.hidden_sizes()}  # [model] hidden
        return {f.name: parse[type(f.default)](section, f.name)
                for f in _SECTION_FIELDS[section]}

    def train_config(self, num_classes=None):
        return TrainConfig(
            split=self.task_split(num_classes),
            **self._section("model"),
            **self._section("train"),
            weights=LossWeights(**self._section("losses")),
            cluster=ClusterConfig(**self._section("cluster")),
            cons=ConsConfig(**self._section("cons")),
        ).validate()

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
    return RunConfig({s: dict(kv) for s, kv in DEFAULTS.items()})


def load_config(path=None, overrides=None):
    """Defaults, then the INI file, then explicit overrides — strictly keyed.

    ``overrides`` is an iterable of (section, key, value) applied last
    (CLI flags).  Unknown sections or keys anywhere raise ConfigError.
    """
    cfg = default_config()
    if path is not None:
        # no file can name a section "\n", so a [DEFAULT] section is parsed
        # as an ordinary one and refused below, not merged into the others
        parser = configparser.ConfigParser(interpolation=None, default_section="\n")
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:  # skips a byte-order mark
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}")
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                cfg.set(section, key, value)
    for section, key, value in overrides or ():
        cfg.set(section, key, value)
    return cfg
