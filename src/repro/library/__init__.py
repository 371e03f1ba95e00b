"""The pulse library: a sharded, indexed, GC-managed pulse store.

Partial compilation's central economy is reusing GRAPE-compiled pulses for
repeated circuit blocks, so the pulse store is the system's scaling
surface.  This package provides that store as a first-class subsystem:

* :mod:`repro.library.store` — :class:`PulseLibrary`, the sharded
  directory layout (fan-out by fingerprint prefix), per-shard indexes,
  LRU/size-budget :meth:`~PulseLibrary.gc`, and transparent one-time
  migration of legacy flat cache directories.
* :mod:`repro.library.manifest` — the per-shard index format (a folded
  JSON manifest plus an append-only journal), its replay and fold, and
  its reconcile-from-disk rebuild.
* :mod:`repro.library.neighbors` — approximate-match retrieval: per-entry
  target metadata in the index plus a ``(dim, context)``-bucketed
  nearest-unitary search, so near-miss blocks can seed GRAPE from the
  closest cached pulse instead of starting cold.
* :mod:`repro.library.locking` — advisory cross-process file locks so
  several processes (or hosts on a network filesystem) can share one
  library safely.
* :mod:`repro.library.files` — the whole-file read and the atomic
  temp-file-and-rename write shared by data files and manifests.

:class:`repro.core.cache.PersistentPulseCache` is a thin adapter that
stores its pickled cache entries through a :class:`PulseLibrary`.
"""

from repro.library.locking import FileLock
from repro.library.manifest import (
    MANIFEST_VERSION,
    empty_manifest,
    load_manifest,
    save_manifest,
)
from repro.library.neighbors import (
    NeighborHit,
    NeighborIndex,
    signature_distance,
    target_metadata,
)
from repro.library.store import (
    LIBRARY_LAYOUT_VERSION,
    VALID_SHARD_COUNTS,
    GCReport,
    PulseLibrary,
)

__all__ = [
    "FileLock",
    "GCReport",
    "LIBRARY_LAYOUT_VERSION",
    "MANIFEST_VERSION",
    "NeighborHit",
    "NeighborIndex",
    "PulseLibrary",
    "VALID_SHARD_COUNTS",
    "empty_manifest",
    "load_manifest",
    "save_manifest",
    "signature_distance",
    "target_metadata",
]
