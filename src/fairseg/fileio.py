"""Crash-safe writes shared by every writer of run artifacts, and the one
binary container that datasets and checkpoints are written in."""

from __future__ import annotations

import contextlib
import json
import math
import os

import numpy as np

from .errors import FormatError


@contextlib.contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Write a temporary file beside ``path`` that replaces it when complete.

    On any exception the temporary file is removed, so a failed write
    leaves the previous file at ``path`` as it was.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_exact(fh, n, what):
    """The next ``n`` bytes of ``fh``; fewer raise FormatError naming the
    file, ``what`` was being read and the offset where the file ended."""
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file {fh.name} while reading {what}",
                          offset=fh.tell())
    return data


def write_arrays(path, magic, version, header, arrays, dtype_of):
    """Write the container: ``magic``, u16 version, u32 header length, a
    sorted-key JSON header (``header`` plus an ``arrays`` list of
    ``[name, shape]`` in file order), then each of the ``(name, array)``
    pairs' bytes as ``dtype_of(name)``, a little-endian dtype.

    The file is replaced only once fully written (see ``atomic_open``).
    """
    arrays = [(name, np.asarray(arr, dtype=dtype_of(name))) for name, arr in arrays]
    header = json.dumps(
        {**header, "arrays": [[name, arr.shape] for name, arr in arrays]},
        sort_keys=True,
    ).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(magic)
        fh.write(version.to_bytes(2, "little"))
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        for _, arr in arrays:
            fh.write(arr.tobytes())


def read_arrays(path, magic, version, what, dtype_of, decode):
    """``decode(header, arrays)`` of a file written by ``write_arrays``.

    ``arrays`` maps each name to a writable array of ``dtype_of(name)``.
    Another magic or version, a header that is not JSON, a bad shape, a
    short file, trailing bytes, and a KeyError, TypeError or ValueError
    out of ``dtype_of`` or ``decode`` raise FormatError; ``what`` names the
    kind of file in the messages, and every message names ``path``.
    """
    with open(path, "rb") as fh:
        found = read_exact(fh, 4, "magic")
        if found != magic:
            raise FormatError(
                f"{path}: bad magic {found!r}, expected {magic.decode()!r}", offset=0
            )
        found = int.from_bytes(read_exact(fh, 2, "version"), "little")
        if found != version:
            raise FormatError(f"{path}: unsupported {what} version {found}", offset=4)
        size = int.from_bytes(read_exact(fh, 4, "header length"), "little")
        try:
            header = json.loads(read_exact(fh, size, "header"))
        except ValueError as exc:
            raise FormatError(f"{path}: {what} header is not JSON: {exc}") from exc
        try:
            arrays = {}
            for name, shape in header["arrays"]:
                if not all(type(d) is int and d >= 0 for d in shape):
                    raise FormatError(f"{path}: array {name!r} has a bad shape {shape}")
                dtype = np.dtype(dtype_of(name))
                payload = read_exact(fh, dtype.itemsize * math.prod(shape),
                                     f"array '{name}'")
                arrays[name] = np.frombuffer(payload, dtype).reshape(shape).copy()
            if fh.read(1):
                raise FormatError(f"{path}: trailing bytes after the last array",
                                  offset=fh.tell() - 1)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed {what}: {exc!r}") from exc
    try:
        return decode(header, arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed {what}: {exc!r}") from exc
    except FormatError as exc:  # decode's own refusals carry no offset
        raise FormatError(f"{path}: {exc}") from exc
