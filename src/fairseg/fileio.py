"""Crash-safe file writes shared by every writer of run artifacts."""

from __future__ import annotations

import contextlib
import os


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
