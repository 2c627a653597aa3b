"""Crash-safe writes shared by every writer of run artifacts, and the exact
reads of the binary formats."""

from __future__ import annotations

import contextlib
import os

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
