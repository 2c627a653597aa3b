"""Shared fixtures: small benchmarks, handcrafted sample builders, and the
binary container's refusals."""

import json

import numpy as np
import pytest

from fairseg import model
from fairseg.config import default_config
from fairseg.errors import FormatError
from fairseg.synthdata import BenchmarkSpec, SegSample, TaskSplit, generate

# Verdict lines recorded by the acceptance tests; echoed after the run so
# they are visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def same_bytes(a, b):
    """Equal shape, dtype and bytes (so -0.0 and 0.0 differ)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def tiny_spec(**overrides):
    """A 4-class 16x16 benchmark small enough for per-test generation."""
    kwargs = dict(
        num_classes=4,
        image_height=16,
        image_width=16,
        noise_sigma=0.02,
        train_count=24,
        test_count=8,
        seed=11,
    )
    kwargs.update(overrides)
    return BenchmarkSpec(**kwargs).validate()


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate(tiny_spec())


@pytest.fixture(scope="session")
def tiny_split():
    return TaskSplit.from_sizes("2-2", 4)


@pytest.fixture(scope="session")
def shapes8_dataset():
    """The default committed benchmark, generated once per session."""
    return generate(default_config().benchmark_spec())


def constant_sample(height, width, color, class_id):
    """A single-class sample: constant color, constant label."""
    image = np.full((height, width, 3), color, dtype=np.float64)
    labels = np.full((height, width), class_id, dtype=np.uint16)
    return SegSample(image=image, labels=labels)


def separable_samples(count=12, height=12, width=12, seed=3):
    """Linearly separable 2-class set: red blobs on dark background.

    Class 1 regions are bright red, class 2 regions bright green, the rest
    near-black; a patch model can split them on color alone.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        image = np.full((height, width, 3), 0.05, dtype=np.float64)
        labels = np.zeros((height, width), dtype=np.uint16)
        for cid, color in ((1, (0.9, 0.1, 0.1)), (2, (0.1, 0.9, 0.1))):
            r0 = int(rng.integers(0, height - 4))
            c0 = int(rng.integers(0, width - 4))
            image[r0 : r0 + 4, c0 : c0 + 4] = color
            labels[r0 : r0 + 4, c0 : c0 + 4] = cid
        samples.append(SegSample(image=image, labels=labels))
    return samples


def split_container(path):
    """A container file's parsed JSON header and the array bytes after it."""
    raw = path.read_bytes()
    size = int.from_bytes(raw[6:10], "little")
    return json.loads(raw[10 : 10 + size]), raw[10 + size :]


def join_container(path, header, body):
    """Rewrite a container file with these header bytes and array bytes."""
    magic_and_version = path.read_bytes()[:6]
    path.write_bytes(magic_and_version + len(header).to_bytes(4, "little")
                     + header + body)


def save_edited_checkpoint(path, state, monkeypatch, protos=None, add=(), drop=()):
    """Save ``state`` at ``path`` with the ``(name, array)`` pairs ``add``
    appended, the arrays named in ``drop`` left out, and the header's
    prototype registry replaced by ``protos(registry)`` when given."""
    arrays_of = model._arrays_of
    with monkeypatch.context() as patched:
        patched.setattr(model, "_arrays_of", lambda s: [
            (name, arr) for name, arr in arrays_of(s) if name not in drop] + list(add))
        model.save_checkpoint(path, state)
    if protos is not None:
        header, body = split_container(path)
        header["protos"] = protos(header["protos"])
        join_container(path, json.dumps(header).encode(), body)


class ContainerRefusals:
    """The refusals of ``fileio.read_arrays``/``write_arrays``, run once per
    file kind by each subclass.

    A subclass sets ``kind`` (as in "unsupported <kind> version"),
    ``magic`` and ``old_version``, and defines ``save(path, variant=0)``,
    which writes a valid file (another one for ``variant=1``), and
    ``load(path)``.
    """

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        self.save(path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=self.magic.decode()) as info:
            self.load(path)
        assert info.value.offset == 0

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "vers.bin"
        self.save(path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = self.old_version.to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        message = f"unsupported {self.kind} version {self.old_version}"
        with pytest.raises(FormatError, match=message) as info:
            self.load(path)
        assert info.value.offset == 4

    def test_header_not_json_rejected(self, tmp_path):
        path = tmp_path / "json.bin"
        self.save(path)
        _, body = split_container(path)
        join_container(path, b"{not json", body)
        with pytest.raises(FormatError, match=f"{self.kind} header is not JSON"):
            self.load(path)

    def test_negative_dimension_rejected(self, tmp_path):
        path = tmp_path / "dim.bin"
        self.save(path)
        header, body = split_container(path)
        header["arrays"][0][1] = [-1, 4]
        join_container(path, json.dumps(header).encode(), body)
        with pytest.raises(FormatError, match="bad shape"):
            self.load(path)

    def test_truncation_offset_is_the_end_of_file(self, tmp_path):
        path = tmp_path / "trunc.bin"
        self.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError, match="truncated file .* while reading") as info:
            self.load(path)
        assert info.value.offset == len(raw) - 3

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "tail.bin"
        self.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\0")
        with pytest.raises(FormatError, match="trailing") as info:
            self.load(path)
        assert info.value.offset == len(raw)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        self.assert_failed_write_keeps(tmp_path / "latest.bin", monkeypatch)

    def assert_failed_write_keeps(self, path, monkeypatch):
        """A write whose first array fails leaves the previous file whole."""
        self.save(path)
        before = path.read_bytes()
        written = []

        class FailingFile:
            """A real file whose fifth write, the first array's, raises."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

            def write(self, data):
                if len(written) == 4:
                    raise OSError("disk full")
                written.append(len(data))
                return self.fh.write(data)

        real_open = open
        with monkeypatch.context() as patched, \
                pytest.raises(OSError, match="disk full"):
            patched.setattr("builtins.open",
                            lambda *a, **kw: FailingFile(real_open(*a, **kw)))
            self.save(path, variant=1)
        assert len(written) == 4
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        self.load(path)
