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
  ``run_tasks`` venue the service selects with
  ``REPRO_DISPATCHER=queue``: it spawns and revives
  ``REPRO_FLEET_WORKERS`` local workers and sends every cold fixed-block
  search and flexible runtime entry through the queue.
* :mod:`repro.fleet.autoscaler` — :class:`FleetAutoscaler`, queue-depth
  worker scaling between ``REPRO_FLEET_MIN_WORKERS`` and
  ``REPRO_FLEET_MAX_WORKERS``: sustained backlog grows the pool, surge
  workers drain away on idle exit.

Milestone 1 was N workers on one machine splitting one batch's unique
blocks.  Milestone 2 added the network frontend
(:mod:`repro.server`), host-aware status over a shared directory (real
NFS, or ``host_label`` simulation in CI), and backlog-driven autoscaling.
"""

from repro.fleet.autoscaler import FleetAutoscaler
from repro.fleet.dispatcher import QueueDispatcher
from repro.fleet.queue import FLEET_SCHEMA_VERSION, FleetQueue
from repro.fleet.worker import FleetWorker

__all__ = [
    "FLEET_SCHEMA_VERSION",
    "FleetAutoscaler",
    "FleetQueue",
    "FleetWorker",
    "QueueDispatcher",
]
