"""Cross-process file locking for the pulse library.

The pulse library is designed to be shared by several processes — and, over
a network filesystem, several hosts — compiling against one directory.  Data
files are written atomically (temp + ``os.replace``) and need no locking,
but the JSON manifests are read-modify-write, so every manifest update and
every garbage-collection pass runs under an advisory ``flock`` on a
dedicated lock file.

:class:`FileLock` stores only the lock file *path*; the file descriptor is
opened per acquisition, which keeps the object picklable (a pickled
library carries its locks along).  The lock is
re-entrant within a thread-free scope but not across threads, so callers
additionally hold their own in-process mutex where needed.

On platforms without :mod:`fcntl` the lock degrades to a no-op: atomic data
writes keep single-host usage safe, and the manifests self-heal from the
data files during :meth:`PulseLibrary.gc`.
"""

from __future__ import annotations

import os
from pathlib import Path

try:  # POSIX; absent on Windows builds of CPython.
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None


class FileLock:
    """An advisory, cross-process exclusive lock on ``path``.

    Usage::

        with FileLock(directory / ".lock"):
            ...  # read-modify-write a manifest

    The lock file itself is never deleted (deleting a locked file is racy
    on NFS); it is a zero-byte marker living next to the data it guards.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._fd: int | None = None

    @property
    def locked(self) -> bool:
        """Whether *this object* currently holds the lock."""
        return self._fd is not None

    def acquire(self) -> None:
        """Block until the lock is held (no-op where flock is unavailable)."""
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path} is already held by this object")
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                os.close(fd)
                raise
        self._fd = fd

    def release(self) -> None:
        """Drop the lock (closing the descriptor releases the flock)."""
        fd, self._fd = self._fd, None
        if fd is not None:
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - close below still frees it
                    pass
            os.close(fd)

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # The open descriptor cannot cross a pickle boundary; a worker that
    # receives a (necessarily unlocked) copy re-opens the file on demand.
    def __getstate__(self) -> dict:
        return {"path": self.path}

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self._fd = None

    def __repr__(self) -> str:
        state = "held" if self.locked else "free"
        return f"FileLock({str(self.path)!r}, {state})"
