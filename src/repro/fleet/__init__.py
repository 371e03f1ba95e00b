"""Multi-process compilation fleet: queue, workers, and their dispatcher.

The block-level parallelism of the paper's pulse compilation is
embarrassing — blocks share nothing but the pulse cache — and the service
resolves cache hits and warm-start seeds itself, so a block's search
travels as a pure task over a seed-carrying
:class:`~repro.pipeline.jobs.BlockJob` and can leave the service's
address space entirely.  This package is the venue for that:

* :mod:`repro.fleet.queue` — :class:`FleetQueue`, a file-backed work
  queue with lease/heartbeat crash reclaim built on the pulse library's
  advisory file locking.  At-least-once delivery, safe because tasks are
  pure and deterministic.
* :mod:`repro.fleet.worker` — :class:`FleetWorker`, the pull loop behind
  ``python -m repro worker``: claim, run, heartbeat, complete, with
  SIGTERM draining the in-flight job before exit.  It opens no pulse
  library.
* :mod:`repro.fleet.dispatcher` — :class:`QueueDispatcher`, the
  ``run_tasks`` venue a service uses whenever ``fleet_dir``
  (``REPRO_FLEET_DIR``) is set: it sends every cold fixed-block search and
  flexible runtime entry through the queue to the workers registered in
  its directory, and runs them inline when none is live.  It starts no
  workers and sets no lease TTL: operators run ``python -m repro worker
  [--lease-ttl S]`` on the hosts that share the directory, and each
  worker's heartbeat record carries the TTL it is judged by.  On one
  host the ``auto`` executor's forked pool is the faster venue.

The network frontend (:mod:`repro.server`) and host-aware status over a
shared directory (real NFS, or ``host_label`` simulation in CI) complete
the multi-host path.
"""

from repro.fleet.dispatcher import QueueDispatcher
from repro.fleet.queue import FLEET_SCHEMA_VERSION, FleetQueue
from repro.fleet.worker import FleetWorker

__all__ = [
    "FLEET_SCHEMA_VERSION",
    "FleetQueue",
    "FleetWorker",
    "QueueDispatcher",
]
