"""Command-line entry points and INI configuration loading."""

import contextlib
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import join_container, split_container
from fairseg import cli, trainer
from fairseg.config import DEFAULTS, default_config, load_config
from fairseg.errors import ConfigError
from fairseg.model import load_checkpoint, save_checkpoint
from fairseg.synthdata import TaskSplit
from fairseg.trainer import TrainConfig

SMALL_INI = """\
[benchmark]
num_classes = 4
image_height = 16
image_width = 16
noise_sigma = 0.02
train_count = 20
test_count = 6
seed = 11

[split]
steps = 2-2

[model]
patch_size = 3
feature_dim = 4
hidden = 8

[train]
epochs = 2
batch_size = 4
"""


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared_console_script():
    """The ``fairseg`` entry of ``[project.scripts]`` in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO, "pyproject.toml"), "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["fairseg"]


def _is_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset plus two finished training runs."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "small.ini"
    ini.write_text(SMALL_INI)
    data = root / "data"
    code, gen_out = run_cli("gen", "--config", str(ini), "--out", str(data))
    assert code == 0
    runs = {}
    for name in ("full", "fine-tune"):
        out = root / name
        code, text = run_cli(
            "train",
            "--config", str(ini),
            "--dataset", str(data / "train.bin"),
            "--test", str(data / "test.bin"),
            "--ablation", name,
            "--out", str(out),
        )
        assert code == 0
        runs[name] = (out, text)
    return {"root": root, "ini": ini, "data": data,
            "runs": runs, "gen_out": gen_out}


class TestConfig:
    def test_defaults_complete(self):
        cfg = default_config()
        for section, keys in DEFAULTS.items():
            for key in keys:
                assert cfg.get(section, key) == DEFAULTS[section][key]

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.ini")

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[optimizer]\nlr = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 9\n",  # alone: configparser would ignore it
        "[DEFAULT]\nseed = 9\n[train]\nepochs = 2\n",  # merged into [train]
        "[DEFAULT]\nseed = 9\n[split]\nsteps = 5-3\n",  # "[split] seed"
    ], ids=["alone", "beside-train", "beside-split"])
    def test_default_section_refused(self, tmp_path, text):
        """configparser's [DEFAULT] is an unknown section like any other:
        it is neither dropped nor merged into the sections beside it."""
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
            load_config(str(path))
        code, _ = run_cli("gen", "--config", str(path), "--out", str(tmp_path / "x"))
        assert code == 2
        assert not (tmp_path / "x").exists()

    def test_utf8_byte_order_mark_accepted(self, workspace, tmp_path):
        """A file saved with a UTF-8 byte-order mark reads like one without."""
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + (SMALL_INI + "seed = 3\n").encode())
        assert load_config(str(path)).get_int("train", "seed") == 3
        code, out = run_cli(
            "train", "--config", str(path), "--print-config",
            "--dataset", str(workspace["data"] / "train.bin"),
            "--out", str(tmp_path / "run"),
        )
        assert code == 0
        assert "\nseed = 3\n" in out.split("[train]\n")[1].split("\n[")[0]

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("epochs = 3\n")  # key before any section header
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nseed = 5\n")
        cfg = load_config(str(path), overrides=[("train", "seed", "9")])
        assert cfg.get_int("train", "seed") == 9

    def test_typed_accessor_errors(self):
        cfg = default_config()
        cfg.values["train"]["epochs"] = "three"
        with pytest.raises(ConfigError):
            cfg.get_int("train", "epochs")
        cfg.values["cons"]["sigma_color"] = "wide"
        with pytest.raises(ConfigError):
            cfg.get_float("cons", "sigma_color")

    @pytest.mark.parametrize("key", ["use_cluster", "use_class_weighting",
                                     "use_cons", "use_distill"])
    def test_loss_toggle_keys_rejected(self, tmp_path, key):
        path = tmp_path / "run.ini"
        path.write_text(f"[train]\n{key} = false\n")
        with pytest.raises(ConfigError, match=rf"unknown config key \[train\] {key}"):
            load_config(str(path))

    def test_hidden_parsing(self):
        cfg = default_config()
        assert cfg.hidden_sizes() == (64, 32)
        cfg.values["model"]["hidden"] = "8"
        assert cfg.hidden_sizes() == (8,)
        cfg.values["model"]["hidden"] = "8,int"
        with pytest.raises(ConfigError):
            cfg.hidden_sizes()

    def test_train_config_threading(self):
        cfg = default_config()
        tc = cfg.train_config()
        assert tc.epochs == 10
        assert tc.weights.lambda_cluster == pytest.approx(1e-3)
        assert tc.cluster.margin == pytest.approx(10.0)
        assert tc.cons.window == 3
        assert tc.hidden == (64, 32)
        assert tc.split.num_steps == 2
        assert tc.split.classes_at(1) == frozenset({1, 2, 3, 4, 5})

    def test_dump_round_trip(self, tmp_path):
        cfg = default_config()
        cfg.set("train", "epochs", "7")
        path = tmp_path / "resolved.ini"
        cfg.write(str(path))
        again = load_config(str(path))
        assert again.values == cfg.values

    def test_set_rejects_unknown(self):
        with pytest.raises(ConfigError):
            default_config().set("train", "warmup", "1")

    def test_example_config_documents_every_default(self):
        import configparser

        parser = configparser.ConfigParser(interpolation=None)
        assert parser.read(os.path.join(REPO, "configs", "example.ini"))
        for section, keys in DEFAULTS.items():
            assert parser.has_section(section)
            assert set(parser.options(section)) == set(keys)
            for key, default in keys.items():
                assert parser.get(section, key) == default, (section, key)

    def test_defaults_are_the_acceptance_values(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[output]\ndir = runs/defaults\n")
        tc = load_config(str(path)).train_config(num_classes=8)
        accepted = load_config(os.path.join(REPO, "configs", "acceptance.ini"))
        assert tc == accepted.train_config(num_classes=8)
        assert load_config(None).train_config(num_classes=8) == TrainConfig(
            split=TaskSplit.from_sizes("5-3", 8)
        )

    @pytest.mark.parametrize("name, section, key, value", [
        ("heldout", "benchmark", "seed", "8"),
        ("reversed", "benchmark", "zipf_exponent", "-1.5"),
    ])
    def test_benchmark_configs_differ_from_acceptance_in_one_key(
            self, name, section, key, value):
        """The held-out and reversed configs are acceptance.ini with one
        [benchmark] key changed and their own output directory."""
        configs = os.path.join(REPO, "configs")
        cfg = load_config(os.path.join(configs, f"{name}.ini")).values
        want = load_config(os.path.join(configs, "acceptance.ini")).values
        assert (cfg[section][key], cfg["output"]["dir"]) == (value, f"runs/{name}")
        want[section][key], want["output"]["dir"] = value, f"runs/{name}"
        assert cfg == want

    @pytest.mark.parametrize("losses", [
        "clamp_min = 5\nclamp_max = 1\n",
        "smoothing = -0.5\n",
    ], ids=["clamp-range", "negative-smoothing"])
    def test_losses_validated_at_load(self, tmp_path, losses):
        path = tmp_path / "run.ini"
        path.write_text("[losses]\n" + losses)
        cfg = load_config(str(path))
        with pytest.raises(ConfigError):
            cfg.train_config()

    @pytest.mark.parametrize("key, value", [
        ("patch_size", "4"), ("patch_size", "0"), ("patch_size", "-3"),
        ("feature_dim", "0"), ("hidden", "0"), ("hidden", "8,0"),
        ("hidden", "8,,4"), ("hidden", "64,32,"), ("hidden", ",8"),
    ], ids=["patch-even", "patch-zero", "patch-negative", "feature-dim-zero",
            "hidden-zero", "hidden-second-zero", "hidden-empty-middle",
            "hidden-empty-last", "hidden-empty-first"])
    def test_model_validated_at_load(self, key, value):
        cfg = load_config(None, [("model", key, value)])
        with pytest.raises(ConfigError, match=key):
            cfg.train_config(num_classes=8)

    @pytest.mark.parametrize("command, old, new", [
        ("gen", "noise_sigma = 0.02", "noise_sigma = nan"),
        ("train", "[train]\n", "[train]\nlr_initial = nan\n"),
        ("train", "[train]\n", "[losses]\nclamp_max = inf\n\n[train]\n"),
    ], ids=["benchmark-noise_sigma", "train-lr_initial", "losses-clamp_max"])
    def test_non_finite_float_exits_2_and_writes_nothing(
            self, workspace, tmp_path, capsys, command, old, new):
        ini = tmp_path / "nonfinite.ini"
        ini.write_text(SMALL_INI.replace(old, new))
        out = tmp_path / "out"
        inputs = ("--dataset", str(workspace["data"] / "train.bin"))
        code, _ = run_cli(command, "--config", str(ini), "--out", str(out),
                          *(inputs if command == "train" else ()))
        assert code == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_acceptance_config_loads(self):
        cfg = load_config(os.path.join(REPO, "configs", "acceptance.ini"))
        tc = cfg.train_config()
        assert tc.split.num_steps == 2


class TestGen:
    def test_outputs_and_stdout(self, workspace):
        data = workspace["data"]
        for name in ("train.bin", "test.bin", "config.resolved.ini"):
            assert (data / name).exists()
        assert "20 train / 6 test" in workspace["gen_out"]
        assert "normalized entropy" in workspace["gen_out"]

    def test_deterministic_bytes(self, workspace, tmp_path):
        code, _ = run_cli(
            "gen", "--config", str(workspace["ini"]), "--out", str(tmp_path)
        )
        assert code == 0
        for name in ("train.bin", "test.bin"):
            assert (tmp_path / name).read_bytes() == (
                workspace["data"] / name
            ).read_bytes()

    def test_seed_flag_changes_data(self, workspace, tmp_path):
        code, _ = run_cli(
            "gen", "--config", str(workspace["ini"]),
            "--seed", "99", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "train.bin").read_bytes() != (
            workspace["data"] / "train.bin"
        ).read_bytes()

    def test_print_config(self, workspace, tmp_path):
        code, out = run_cli(
            "gen", "--config", str(workspace["ini"]),
            "--out", str(tmp_path), "--print-config",
        )
        assert code == 0
        assert "[benchmark]" in out
        assert "num_classes = 4" in out

    def test_one_class_benchmark_exits_0(self, tmp_path):
        ini = tmp_path / "one.ini"
        ini.write_text(SMALL_INI.replace("num_classes = 4", "num_classes = 1")
                       .replace("steps = 2-2", "steps = 1"))
        code, out = run_cli("gen", "--config", str(ini), "--out", str(tmp_path / "d"))
        assert code == 0
        assert sorted(os.listdir(tmp_path / "d")) == [
            "config.resolved.ini", "test.bin", "train.bin"]
        assert "class 1:" in out
        assert "normalized entropy" not in out

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[benchmark]\nshapes = 9\n")
        code, _ = run_cli("gen", "--config", str(bad),
                          "--out", str(tmp_path / "x"))
        assert code == 2


class TestTrain:
    def test_run_artifacts(self, workspace):
        out, text = workspace["runs"]["full"]
        assert sorted(os.listdir(out)) == [
            "config.resolved.ini", "latest.ckpt", "losses.csv",
            "step1.ckpt", "step2.ckpt",
            "summary.txt", "summary_step1.txt", "summary_step2.txt",
        ]
        assert "head rows 3" in text
        assert "head rows 5" in text
        assert "step 2 eval" in text

    def test_resolved_config_records_ablation(self, workspace):
        out, _ = workspace["runs"]["fine-tune"]
        resolved = (out / "config.resolved.ini").read_text()
        assert "\npreset = fine-tune\n" in resolved
        assert "use_" not in resolved

    def test_missing_dataset_exits_3(self, workspace, tmp_path):
        code, _ = run_cli(
            "train", "--dataset", str(tmp_path / "absent.bin"),
            "--out", str(tmp_path / "o"),
        )
        assert code == 3

    def test_unknown_ablation_exits_2(self, workspace, tmp_path, capsys):
        code, _ = run_cli(
            "train", "--config", str(workspace["ini"]),
            "--dataset", str(workspace["data"] / "train.bin"),
            "--ablation", "extra", "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "[train] preset must be one of" in capsys.readouterr().err

    def test_unknown_preset_in_ini_exits_2(self, workspace, tmp_path, capsys):
        ini = tmp_path / "bogus.ini"
        ini.write_text(SMALL_INI + "preset = bogus\n")  # SMALL_INI ends in [train]
        code, _ = run_cli(
            "train", "--config", str(ini),
            "--dataset", str(workspace["data"] / "train.bin"),
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "[train] preset must be one of fine-tune" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ini_preset_equals_ablation_flag(self, workspace, tmp_path):
        ini = tmp_path / "distill.ini"
        ini.write_text(SMALL_INI + "preset = distill\n")
        data = workspace["data"]
        runs = {
            "ini": ["--config", str(ini)],
            "flag": ["--config", str(workspace["ini"]), "--ablation", "distill",
                     "--print-config"],
        }
        for name, argv in runs.items():
            code, text = run_cli(
                "train", "--dataset", str(data / "train.bin"),
                "--test", str(data / "test.bin"), "--out", str(tmp_path / name),
                *argv,
            )
            assert code == 0
        assert "\npreset = distill\n" in text  # the flag run's --print-config
        names = sorted(os.listdir(tmp_path / "ini"))
        assert "step2.ckpt" in names
        assert sorted(os.listdir(tmp_path / "flag")) == names
        for name in names:
            ours, theirs = [(tmp_path / run / name).read_bytes() for run in runs]
            if name == "config.resolved.ini":  # all but the [output] dir line
                ours, theirs = [[ln for ln in raw.split(b"\n") if not ln.startswith(b"dir = ")]
                                for raw in (ours, theirs)]
            assert ours == theirs, name

    def test_resume_without_checkpoint_exits_3(self, workspace, tmp_path):
        code, _ = run_cli(
            "train", "--config", str(workspace["ini"]),
            "--dataset", str(workspace["data"] / "train.bin"),
            "--out", str(tmp_path / "o"), "--resume",
        )
        assert code == 3

    @pytest.mark.parametrize("ini_tail, argv, differ", [
        ("\n[cluster]\nbank_capacity = 7\n", (),
         "[cluster] bank_capacity (checkpoint 500, config 7)"),
        ("", ("--ablation", "distill"),
         "[train] preset (checkpoint full, config distill)"),
        ("", ("--steps", "3-1"),
         "[split] steps (checkpoint ((1, 2), (3, 4)), config ((1, 2, 3), (4,)))"),
    ], ids=["bank_capacity", "preset", "split"])
    def test_refused_resume_leaves_run_files(self, workspace, tmp_path, capsys,
                                             ini_tail, argv, differ):
        run = tmp_path / "run"
        shutil.copytree(workspace["runs"]["full"][0], run)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        ini = tmp_path / "resume.ini"
        ini.write_text(SMALL_INI + ini_tail)
        code, _ = run_cli(
            "train", "--config", str(ini),
            "--dataset", str(workspace["data"] / "train.bin"),
            "--test", str(workspace["data"] / "test.bin"),
            "--out", str(run), "--resume", *argv,
        )
        assert code == 2
        assert differ in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("source, prefix, block", [
        ("mid-step", "momentum", "enc0.W"),
        ("step1", "params", "enc0.b"),
        ("step1", "momentum", "enc0.W"),
    ], ids=["mid_step_momentum", "step1_params", "step1_momentum"])
    def test_resume_from_checkpoint_without_model_array_exits_3(
            self, workspace, tmp_path, monkeypatch, capsys, source, prefix, block):
        """Such a file must not load: a mid-step resume would stop in a bare
        KeyError, and a step-boundary one would zero-fill the momentum."""
        argv = ("train", "--config", str(workspace["ini"]),
                "--dataset", str(workspace["data"] / "train.bin"),
                "--test", str(workspace["data"] / "test.bin"))
        checkpoint = workspace["runs"]["full"][0] / "step1.ckpt"
        if source == "mid-step":
            real_save = trainer.save_checkpoint

            def save_and_keep_mid_step(path, state):
                real_save(path, state)
                if os.path.basename(path) == "latest.ckpt" and (
                        state.step, state.epoch) == (2, 1):
                    shutil.copy(path, tmp_path / "mid.ckpt")

            monkeypatch.setattr(trainer, "save_checkpoint", save_and_keep_mid_step)
            assert run_cli(*argv, "--out", str(tmp_path / "fresh"))[0] == 0
            monkeypatch.undo()
            checkpoint = tmp_path / "mid.ckpt"
        run = tmp_path / "run"
        shutil.copytree(workspace["runs"]["full"][0], run)
        state = load_checkpoint(checkpoint)
        del {"params": state.params.blocks, "momentum": state.momentum}[prefix][block]
        save_checkpoint(run / "latest.ckpt", state)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        code, _ = run_cli(*argv, "--out", str(run), "--resume")
        assert code == 3
        assert f"{prefix}/{block} is missing" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("case, message", [
        ("proto_width", "proto/1 is (7,), expected shape (4,)"),
        ("bank_width", "bank/0 is (3, 5), expected shape (n <= 500, 4)"),
        ("bank_length", "bank/0 is (501, 4), expected shape (n <= 500, 4)"),
        ("proto_unlisted", "proto/2 has no header entry"),
    ], ids=["proto_width", "bank_width", "bank_length", "proto_unlisted"])
    def test_resume_from_checkpoint_with_bad_prototype_or_bank_exits_3(
            self, workspace, tmp_path, capsys, case, message):
        """Prototype vectors are (feature_dim,), bank queues hold at most
        the capacity's rows of feature_dim, and every prototype array has
        its header entry; anything else is refused by name."""
        run = tmp_path / "run"
        shutil.copytree(workspace["runs"]["full"][0], run)
        state = load_checkpoint(run / "step1.ckpt")
        if case == "proto_width":
            state.protos.entries[1].vector = np.zeros(7)
        elif case == "bank_width":
            state.bank.queues[0] = np.zeros((3, 5))
        elif case == "bank_length":
            state.bank.queues[0] = np.zeros((501, 4))
        save_checkpoint(run / "latest.ckpt", state)
        if case == "proto_unlisted":
            path = run / "latest.ckpt"
            header, body = split_container(path)
            header["protos"] = [row for row in header["protos"] if row[0] != 2]
            join_container(path, json.dumps(header).encode(), body)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        code, _ = run_cli(
            "train", "--config", str(workspace["ini"]),
            "--dataset", str(workspace["data"] / "train.bin"),
            "--test", str(workspace["data"] / "test.bin"),
            "--out", str(run), "--resume",
        )
        assert code == 3
        assert message in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("case, message", [
        ("log", ": checkpoint log is not a list of step, epoch, iteration"),
        ("mious", ": checkpoint mious is not a list of at most 1 mIoU values"),
        ("version_6", ": unsupported checkpoint version 6"),
        ("no_test_set", ": a resume with a test set needs the mIoU(all) of steps 1-1"),
        ("epoch", ": checkpoint log does not run through epochs 0, 1, ... of steps 1 to 2"),
        ("step", ": checkpoint log does not run through epochs 0, 1, ... of steps 1 to 2"),
    ], ids=["log", "mious", "version_6", "no_test_set", "epoch", "step"])
    def test_resume_from_checkpoint_without_its_resume_point_exits_3(
            self, workspace, tmp_path, capsys, case, message):
        """The checkpoint is the whole resume point, so one whose loss log or
        mIoUs are malformed or absent, an older version, or one whose log
        is no position a run can resume from (a skipped epoch, or a row of
        a step past its model's), is refused by the file's name and leaves
        the run directory as it was."""
        train = ("train", "--config", str(workspace["ini"]),
                 "--dataset", str(workspace["data"] / "train.bin"))
        test = ("--test", str(workspace["data"] / "test.bin"))
        run = tmp_path / "run"
        if case == "no_test_set":
            assert run_cli(*train, "--out", str(run))[0] == 0
        else:
            shutil.copytree(workspace["runs"]["full"][0], run)
        path = run / "latest.ckpt"
        if case == "version_6":
            raw = bytearray(path.read_bytes())
            raw[4:6] = (6).to_bytes(2, "little")
            path.write_bytes(bytes(raw))
        elif case in ("epoch", "step"):
            state = load_checkpoint(run / "step2.ckpt")
            if case == "epoch":
                state.log[-1]["epoch"] += 1
            else:
                state.log.append(dict(state.log[-1], step=3, epoch=0))
            save_checkpoint(path, state)
        elif case in ("log", "mious"):
            header, body = split_container(path)
            header[case] = {"log": [{"step": 1}], "mious": [0.5, 0.5]}[case]
            join_container(path, json.dumps(header).encode(), body)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        code, _ = run_cli(*train, *test, "--out", str(run), "--resume")
        assert code == 3
        assert f"{path}{message}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_steps_flag_overrides_split(self, workspace, tmp_path):
        code, text = run_cli(
            "train", "--config", str(workspace["ini"]),
            "--dataset", str(workspace["data"] / "train.bin"),
            "--steps", "3-1", "--out", str(tmp_path / "o"),
        )
        assert code == 0
        assert "head rows 4" in text
        assert "head rows 5" in text


class TestEval:
    def test_eval_checkpoint(self, workspace, tmp_path):
        out, _ = workspace["runs"]["full"]
        code, text = run_cli(
            "eval", "--checkpoint", str(out / "step2.ckpt"),
            "--dataset", str(workspace["data"] / "test.bin"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert os.listdir(tmp_path) == ["summary.txt"]
        assert "mIoU all" in text

    def test_step_one_view(self, workspace, tmp_path):
        out, _ = workspace["runs"]["full"]
        code, text = run_cli(
            "eval", "--checkpoint", str(out / "step1.ckpt"),
            "--dataset", str(workspace["data"] / "test.bin"),
            "--out", str(tmp_path), "--step", "1",
        )
        assert code == 0
        assert "evaluated 6 images at step 1" in text

    def test_missing_checkpoint_exits_3(self, workspace, tmp_path):
        code, _ = run_cli(
            "eval", "--checkpoint", str(tmp_path / "no.ckpt"),
            "--dataset", str(workspace["data"] / "test.bin"),
        )
        assert code == 3

    def test_class_registry_mismatch_exits_3(self, workspace, tmp_path):
        small = tmp_path / "small"
        ini = tmp_path / "three.ini"
        ini.write_text(SMALL_INI.replace("num_classes = 4",
                                         "num_classes = 3"))
        code, _ = run_cli("gen", "--config", str(ini), "--out", str(small))
        assert code == 0
        out, _ = workspace["runs"]["full"]
        code, _ = run_cli(
            "eval", "--checkpoint", str(out / "step2.ckpt"),
            "--dataset", str(small / "test.bin"),
        )
        assert code == 3

    @pytest.mark.parametrize("key, value, message", [
        ("bank_capacity", 0, "bank_capacity 0 is not an int >= 1"),
        ("patch_size", 3.0, "patch_size 3.0 is not an odd int >= 1"),
    ], ids=["bank_capacity_zero", "patch_float"])
    def test_malformed_model_size_exits_3(self, workspace, tmp_path, capsys, key,
                                          value, message):
        """A size no model or bank can have is a format error naming the
        checkpoint, not a config error or a TypeError."""
        out, _ = workspace["runs"]["full"]
        path = tmp_path / "bad.ckpt"
        shutil.copy(out / "step2.ckpt", path)
        header, body = split_container(path)
        header[key] = value
        join_container(path, json.dumps(header).encode(), body)
        code, _ = run_cli(
            "eval", "--checkpoint", str(path),
            "--dataset", str(workspace["data"] / "test.bin"),
        )
        assert code == 3
        assert f"{path}: checkpoint {message}" in capsys.readouterr().err

    def test_version_3_checkpoint_exits_3(self, workspace, tmp_path, capsys):
        out, _ = workspace["runs"]["full"]
        raw = bytearray((out / "step2.ckpt").read_bytes())
        raw[4:6] = (3).to_bytes(2, "little")
        old = tmp_path / "v3.ckpt"
        old.write_bytes(bytes(raw))
        code, _ = run_cli(
            "eval", "--checkpoint", str(old),
            "--dataset", str(workspace["data"] / "test.bin"),
        )
        assert code == 3
        assert "unsupported checkpoint version 3" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_with_few_trials(self):
        code, text = run_cli("gradcheck", "--trials", "2")
        assert code == 0
        lines = [l for l in text.splitlines() if "e-" in l or "e+" in l]
        assert len(lines) == 4  # ce, cluster, cons, distill

    def test_failure_exits_4(self, monkeypatch):
        monkeypatch.setattr(
            cli, "run_gradcheck", lambda **kw: [("broken-loss", 1.0)]
        )
        code, text = run_cli("gradcheck")
        assert code == 4
        assert "broken-loss" in text


class TestReport:
    def test_missing_run_dir_exits_3(self, tmp_path):
        code, _ = run_cli("report", str(tmp_path / "ghost"))
        assert code == 3

    def test_summary_line_without_equals_exits_3(self, tmp_path, capsys):
        run = tmp_path / "broken"
        run.mkdir()
        (run / "summary.txt").write_text("miou_all=0.5\nno equals sign\n")
        code, _ = run_cli("report", str(run))
        assert code == 3
        assert "summary line without '='" in capsys.readouterr().err

    def test_seed_runs_form_one_group(self, tmp_path):
        for name, miou_all, miou_initial in (
                ("x-s1", 0.2, 0.5), ("x-s2", 0.4, 0.1), ("y", 0.5, 0.7)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "summary.txt").write_text(
                f"miou_all={miou_all!r}\nmiou_initial={miou_initial!r}\n")
        runs = (str(tmp_path / n) for n in ("x-s1", "x-s2", "y"))
        code, text = run_cli("report", *runs)
        assert code == 0
        assert [l.split()[0] for l in text.splitlines()[3:5]] == ["x", "y"]
        assert "0.3000 [0.2000, 0.4000]" in text.splitlines()[3]

    def test_older_run_directory_reports_and_resumes(self, workspace, tmp_path):
        # runs written before summaries lost miou_fg and pixel_accuracy also
        # hold report_step<t>.csv; report and --resume read neither
        fresh, _ = workspace["runs"]["full"]
        old = tmp_path / "full"
        shutil.copytree(fresh, old)
        for t in (1, 2):
            (old / f"report_step{t}.csv").write_text("class_id,pixels,iou\n0,9,0.5\n")
        for name in ("summary.txt", "summary_step1.txt", "summary_step2.txt"):
            text = (old / name).read_text()
            (old / name).write_text(text.replace(
                "miou_all=", "miou_fg=0.25\nmiou_all=").replace(
                "islands_per_image=", "pixel_accuracy=0.75\nislands_per_image="))
        assert run_cli("report", str(old)) == run_cli("report", str(fresh))
        shutil.copy(old / "step1.ckpt", old / "latest.ckpt")
        code, _ = run_cli(
            "train", "--config", str(workspace["ini"]),
            "--dataset", str(workspace["data"] / "train.bin"),
            "--test", str(workspace["data"] / "test.bin"),
            "--out", str(old), "--resume",
        )
        assert code == 0
        for name in ("step2.ckpt", "latest.ckpt", "losses.csv", "summary.txt"):
            assert (old / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_same_run_twice_exits_2(self, workspace, tmp_path, capsys):
        full, _ = workspace["runs"]["full"]
        shutil.copytree(full, tmp_path / "full")
        assert run_cli("report", str(full), str(tmp_path / "full"))[0] == 2
        assert "'full' is named twice" in capsys.readouterr().err


def claim_groups(values):
    """{preset: {seed: row}} for seeds 1-3 from {preset: {metric: 3 values}}."""
    return {p: {s: {m: v[s - 1] for m, v in ms.items()} for s in (1, 2, 3)}
            for p, ms in values.items()}


class TestClaims:
    def test_holds_on_mean_fails_on_one_seed(self):
        (cv,) = cli.claim_values(claim_groups({
            "cluster": {"miou_initial": (0.6, 0.1, 0.5)},
            "fine-tune": {"miou_initial": (0.0, 0.0, 0.0)}}))
        assert cv.preset == "cluster" and cv.holds
        assert [ok for _, _, ok in cv.seeds] == [True, False, True]
        assert cv.describe() == (
            "miou_initial, cluster vs fine-tune: +0.4000 (must be >= 0.15), "
            "per seed s1 +0.6000, s2 +0.1000 (fails), s3 +0.5000")

    def test_mean_is_bit_equal_to_np_mean_change(self):
        a, b, c = (0.1, 0.7, 0.2), (0.3, 0.11, 0.33), (1.1, 0.7, 1.3)
        groups = claim_groups({
            "cluster": {"iou_std_fg": b, "miou_all": c},
            "cluster-class": {"iou_std_fg": a, "miou_all": b, "islands_per_image": c},
            "full": {"miou_all": a, "islands_per_image": b}})
        got = {(cv.metric, cv.preset): cv.mean for cv in cli.claim_values(groups)}
        m = {v: float(np.mean(v)) for v in (a, b, c)}
        assert got == {
            ("iou_std_fg", "cluster-class"): m[a] - m[b],
            ("miou_all", "cluster-class"): m[b] - m[c],
            ("islands_per_image", "full"): (m[b] - m[c]) / m[c],
            ("miou_all", "full"): m[a] - m[b],
        }

    def test_missing_preset_not_returned(self):
        groups = claim_groups({
            "cluster": {"iou_std_fg": (3, 3, 3), "miou_all": (1, 1, 1)},
            "cluster-class": {"iou_std_fg": (2, 2, 2), "miou_all": (1, 1, 1)}})
        assert [(cv.preset, cv.base) for cv in cli.claim_values(groups)] == [
            ("cluster-class", "cluster")] * 2


class TestDispatch:
    def test_console_script_installed(self, tmp_path, monkeypatch):
        """Install the declared ``fairseg`` script into tmp_path and run it.

        The wrapper is the one an installer writes for a ``[project.scripts]``
        entry, so this checks the declaration and that ``main``'s return
        value becomes the process exit status, without a pip install.
        """
        target = declared_console_script()
        module, _, attr = target.partition(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        script = bindir / "fairseg"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        script.chmod(0o755)
        monkeypatch.setenv("PATH",
                           str(bindir) + os.pathsep + os.environ["PATH"])

        path = shutil.which("fairseg")
        assert path is not None
        assert os.access(path, os.X_OK)

        import fairseg

        src = os.path.dirname(os.path.dirname(
            os.path.abspath(fairseg.__file__)))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")

        def run(*argv):
            return subprocess.run(
                ["fairseg", *argv], cwd=tmp_path, env=env,
                capture_output=True, text=True, timeout=120,
            )

        proc = run("--help")
        assert proc.returncode == 0, proc.stderr
        for command in ("gen", "train", "eval", "gradcheck", "report"):
            assert command in proc.stdout

        ini = tmp_path / "small.ini"
        ini.write_text(SMALL_INI)
        proc = run("gen", "--config", str(ini),
                   "--out", str(tmp_path / "data"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "data" / "train.bin").exists()
        assert (tmp_path / "data" / "test.bin").exists()

        bad = tmp_path / "bad.ini"
        bad.write_text("[benchmark]\nshapes = 9\n")
        proc = run("gen", "--config", str(bad), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr

    @pytest.mark.skipif(not _is_installed("fairseg"),
                        reason="no installed fairseg distribution")
    def test_installed_console_script_matches_declaration(self):
        dist = importlib.metadata.distribution("fairseg")
        entries = [ep.value for ep in dist.entry_points
                   if ep.group == "console_scripts" and ep.name == "fairseg"]
        assert entries == [declared_console_script()]
        path = shutil.which("fairseg")
        assert path is not None
        assert os.access(path, os.X_OK)
