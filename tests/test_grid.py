"""The grid runner: each run a fresh one-BLAS-thread `fairseg` process."""

import os
import subprocess
import sys

import pytest

import fairseg
from fairseg.grid import BLAS_THREAD_VARS, run_grid

# The acceptance model on 32x32 images in batches of 6: a batch's
# first-layer weight gradient is the (64, 6144) x (6144, 75) product whose
# bytes differ between one and two OpenBLAS threads.
TINY_INI = "[benchmark]\ntrain_count = 24\ntest_count = 4\n[train]\nepochs = 1\n"


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("grid")
    (root / "tiny.ini").write_text(TINY_INI)
    run_grid([["gen", "--config", str(root / "tiny.ini"),
               "--out", str(root / "data")]])
    return root


def train_argv(root, out, *extra):
    data = root / "data"
    return ["train", "--config", str(root / "tiny.ini"),
            "--dataset", str(data / "train.bin"), "--test", str(data / "test.bin"),
            "--out", str(out), *extra]


def test_run_equals_one_thread_cli_run(root):
    before = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    (seconds,) = run_grid([train_argv(root, root / "grid")])
    assert seconds > 0
    assert {var: os.environ.get(var) for var in BLAS_THREAD_VARS} == before
    src = os.path.dirname(os.path.dirname(os.path.abspath(fairseg.__file__)))
    env = dict(os.environ, PYTHONPATH=src, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    cli_run = [sys.executable, "-m", "fairseg", *train_argv(root, root / "cli")]
    subprocess.run(cli_run, env=env, check=True, capture_output=True, timeout=300)
    names = sorted(os.listdir(root / "cli"))
    assert "latest.ckpt" in names and sorted(os.listdir(root / "grid")) == names
    for name in names:
        ours, theirs = [(root / run / name).read_bytes() for run in ("grid", "cli")]
        if name == "config.resolved.ini":  # all but the [output] dir line
            ours, theirs = [[ln for ln in raw.split(b"\n") if not ln.startswith(b"dir = ")]
                            for raw in (ours, theirs)]
        assert ours == theirs, name


def test_failed_run_named_and_no_worker_left(root):
    bad = train_argv(root, root / "bad", "--ablation", "nope")
    with pytest.raises(subprocess.CalledProcessError,
                       match=r"'--ablation', 'nope'\]' returned non-zero exit status 2"):
        run_grid([bad, train_argv(root, root / "good")])
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_ablation_script_defaults_follow_the_config(tmp_path):
    """Without --data and --out the ablation script generates and trains
    under the config's [output] dir, so another config's grid is never
    reused."""
    (tmp_path / "tiny.ini").write_text(TINY_INI + "[output]\ndir = tiny-grid\n")
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_ablations.py")
    proc = subprocess.run(
        [sys.executable, script, "--config", "tiny.ini",
         "--presets", "fine-tune", "--seeds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["tiny-grid", "tiny.ini"]
    grid = tmp_path / "tiny-grid"
    assert sorted(os.listdir(grid)) == ["data", "fine-tune-s1"]
    assert (grid / "data" / "train.bin").exists()
    assert (grid / "fine-tune-s1" / "summary.txt").exists()
    assert "fine-tune" in proc.stdout
