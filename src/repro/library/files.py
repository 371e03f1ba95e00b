"""Atomic whole-file replacement, shared by data files and manifests."""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def replace_file(path: Path, data: bytes) -> os.stat_result:
    """Atomically make ``data`` the contents of ``path``.

    Writes a unique temp file next to ``path`` and renames it over
    ``path``, so readers see the old or the new file, never a partial
    one.  Returns the new file's stat: the rename keeps its inode, mtime
    and size.  The temp file is removed if any step fails (e.g. ENOSPC
    mid-write).
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            stat = os.fstat(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise
    return stat
