"""Atomic file writes for checkpoints, MRP and companion files, configs
and JSON reports: a write that fails part way leaves the previous file
byte-identical and no temporary file behind."""

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open ``<path>.tmp`` for writing; rename it over ``path`` when the
    block completes, delete it when the block raises."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
