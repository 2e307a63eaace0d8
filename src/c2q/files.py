"""Atomic replacement of output files."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def replace_atomically(path, mode):
    """Yield ``path`` + ".tmp" opened for writing in ``mode`` ("w" for UTF-8
    text, "wb" for bytes), then move it onto ``path``. On any failure, the
    move's included, the tmp file is removed and any earlier file at
    ``path`` stays as it was."""
    tmp = os.fspath(path) + ".tmp"
    fh = open(tmp, mode) if "b" in mode else open(tmp, mode, encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
