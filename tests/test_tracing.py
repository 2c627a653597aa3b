"""The benchmark's tracer (perfbench/tracing.py) still finds and wraps the
library calls it times, so ``perfbench/run.py --trace 1`` keeps working."""

import importlib.util
import os
import sys

import fairseg
from fairseg import trainer
from fairseg.prototypes import ClusterConfig
from fairseg.synthdata import TaskSplit

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    """perfbench/tracing.py as a module, imported by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
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
    for mod_name, attr, _, _ in load_tracing().TARGETS:
        owner = getattr(fairseg, mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr}"


def test_traced_run_records_the_trainer_calls_and_restores_bindings(tiny_dataset):
    train, _ = tiny_dataset
    # a refresh every 2 iterations, so step 2 pseudo-labels
    cfg = trainer.TrainConfig(
        split=TaskSplit.from_sizes("2-2", 4), epochs=2, batch_size=4, patch_size=3,
        feature_dim=4, hidden=(8,), preset="full", cluster=ClusterConfig(update_period=2),
    ).validate()
    before = bindings()
    tracer = load_tracing().Tracer()
    with tracer.installed(fairseg):
        trainer.run_continual(cfg, train)
    names = {name for name, *_ in tracer.spans}
    assert {"model.forward_batch", "trainer.build_effective_labels",
            "prototypes.pseudo_label_map"} <= names
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
