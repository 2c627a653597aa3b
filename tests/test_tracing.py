"""The benchmark (perfbench/) still works against the library: its tracer
finds and wraps the calls it times, so ``perfbench/run.py --trace 1`` keeps
working, and its workloads' bodies pass their own checks, so a change to
what they read (``StepOutcome``, ``RunResult``, ``evaluate_model``, the
checkpoint) fails here rather than in every benchmark body."""

import importlib.util
import os
import sys

import pytest

import fairseg
from fairseg import trainer
from fairseg.prototypes import ClusterConfig
from fairseg.synthdata import TaskSplit

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# a benchmark small enough for a body in well under a second; a refresh
# every 2 iterations, so the full preset's step 2 pseudo-labels
SMALL_INI = """\
[benchmark]
num_classes = 4
image_height = 16
image_width = 16
noise_sigma = 0.02
train_count = 20
test_count = 6

[split]
steps = 2-2

[model]
patch_size = 3
feature_dim = 4
hidden = 8

[train]
epochs = 2
batch_size = 4

[cluster]
update_period = 2
"""


def load_perfbench(name):
    """perfbench/<name>.py as a module, imported by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every name bound in fairseg's modules and in their classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "fairseg" or name.startswith("fairseg."):
            for attr, value in vars(module).items():
                out[name, attr] = value
                if isinstance(value, type):
                    out.update(((name, attr, k), v) for k, v in vars(value).items())
    return out


def test_every_target_is_a_callable_of_fairseg():
    for mod_name, attr, _, _ in load_perfbench("tracing").TARGETS:
        owner = getattr(fairseg, mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr}"


def test_traced_run_records_the_trainer_calls_and_restores_bindings(tmp_path,
                                                                    tiny_dataset):
    train, _ = tiny_dataset
    # a refresh every 2 iterations, so step 2 pseudo-labels
    cfg = trainer.TrainConfig(
        split=TaskSplit.from_sizes("2-2", 4), epochs=2, batch_size=4, patch_size=3,
        feature_dim=4, hidden=(8,), preset="full", cluster=ClusterConfig(update_period=2),
    ).validate()
    before = bindings()
    tracer = load_perfbench("tracing").Tracer()
    with tracer.installed(fairseg):
        trainer.run_continual(cfg, train, tmp_path)
    names = {name for name, *_ in tracer.spans}
    assert {"model.forward_batch", "trainer.build_effective_labels",
            "prototypes.pseudo_label_map"} <= names
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("workload", ["train-full", "train-finetune"])
def test_workload_bodies_pass_their_checks(tmp_path, monkeypatch, workload):
    """Two bodies of each benchmark workload, on a small config, fail none
    of the checks ``perfbench/run.py`` counts a body as failed by."""
    # workloads.py imports its sibling as ``tracing``; monkeypatch removes it after
    monkeypatch.setitem(sys.modules, "tracing", load_perfbench("tracing"))
    workloads = load_perfbench("workloads")
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI)
    monkeypatch.setattr(workloads, "CONFIG", str(ini))
    wl = workloads.TrainWorkload(workloads.PRESETS[workload], 1, tmp_path / "data")
    obs = {"miou_all": [], "iterations": [], "gen_rates": [], "eval_rates": []}
    out_dir = tmp_path / "body"
    for _ in range(2):
        _, _, result = workloads.run_body(wl, out_dir)
        assert wl.check(result, out_dir, obs) == []
    assert obs["iterations"][0] > 0 and len(obs["eval_rates"]) == 2 * workloads.EVAL_REPEATS
