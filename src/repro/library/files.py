"""Whole-file reads and atomic replacement, shared by data files and
manifests.

Both go straight through :mod:`os`: a buffered :func:`open` adds an
``fstat`` and an ``ioctl`` per file, and every blocking call is a chance
for another thread to take the interpreter lock.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def read_file(path: str | os.PathLike) -> bytes:
    """The contents of ``path``, a file that is replaced whole and never
    written in place, so one ``fstat`` sizes the single read.  Raises
    :class:`FileNotFoundError` when it is missing."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def replace_file(path: Path, data: bytes) -> None:
    """Atomically make ``data`` the contents of ``path``.

    Writes a unique temp file next to ``path`` and renames it over
    ``path``, so readers see the old or the new file, never a partial
    one.  The temp file is removed if any step fails (e.g. ENOSPC
    mid-write).
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise
