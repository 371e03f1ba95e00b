"""Content-addressed compilation plans.

Variational workloads compile one ansatz thousands of times.  The
GRAPE-side redundancy is handled by the pulse cache and the block
scheduler's dedup memory, but every call still re-ran the *blocking* pass —
aggregation, per-block subcircuit extraction, and per-block dedup-key
computation (a matrix build + SHA-256 per block) — because circuit identity
was object identity.

A :class:`CompilationPlan` captures the binding-independent part of that
work once per ansatz *content*:

* block boundaries (instruction indices and the sorted device-qubit order
  of each block) — :func:`repro.blocking.aggregate.aggregate_blocks`
  partitions on gate qubits only, never on angle values, so the partition
  is identical for every binding of one symbolic circuit;
* the dedup key of every θ-independent block — the expensive
  unitary-fingerprint + control-context hash, also binding-independent;
* a ``parametrized`` marker for blocks whose gates depend on a symbolic
  parameter: their unitary changes with θ, so replay recomputes their keys
  per binding (the scheduler does this when a task arrives without a key).

Plans live in a :class:`PlanCache` keyed by
:meth:`~repro.circuits.circuit.QuantumCircuit.content_fingerprint` plus
everything the blocking output depends on (block width, device geometry and
drive limits, GRAPE time step and fidelity target, and a caller scope).
Replaying a plan rebuilds each block's bound subcircuit directly from the
stored indices and hands the scheduler pre-keyed tasks — the hot
variational loop skips straight to dispatch.

Shared by :class:`repro.service.facade.CompilationService` (full-GRAPE
strategy) and :class:`repro.pipeline.session.VariationalSession`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.circuits.circuit import QuantumCircuit
from repro.pipeline.stages import BlockTask, PipelineContext


def device_token(device) -> tuple:
    """The plan-key component for a device: geometry plus drive limits.

    Everything :func:`~repro.pulse.control.build_control_set` folds into a
    block's control context must appear here — a plan's cached dedup keys
    embed per-block control contexts, so two devices with different tokens
    must never share a plan.
    """
    return (
        type(device).__name__,
        device.num_qubits,
        device.topology.edges,
        device.levels,
        float(device.max_charge).hex(),
        float(device.max_flux).hex(),
        float(device.max_coupling).hex(),
        float(device.anharmonicity).hex(),
    )


def plan_key(circuit: QuantumCircuit, max_width: int, block_compiler, scope: str = "") -> tuple:
    """The cache identity of a blocking plan.

    ``circuit`` is the *symbolic* (pre-binding) circuit — every binding of
    one ansatz shares its fingerprint and therefore its plan.  The rest of
    the key covers every input the blocking output depends on: block width,
    device, and the GRAPE settings baked into per-block dedup keys.
    """
    settings = block_compiler.settings
    return (
        scope,
        circuit.content_fingerprint(),
        int(max_width),
        device_token(block_compiler.device),
        float(settings.resolved_dt()).hex(),
        float(settings.resolved_target()).hex(),
    )


@dataclass(frozen=True)
class PlanBlock:
    """One block of a plan: where it lives and what its identity is.

    ``dedup_key`` is the precomputed scheduler/cache key for θ-independent
    blocks (``None`` for trivial zero-duration blocks); ``parametrized``
    blocks store no key — their unitary depends on the binding, so replay
    leaves key computation to the scheduler.
    """

    instruction_indices: tuple
    qubit_order: tuple
    local_index: int
    parametrized: bool
    dedup_key: tuple | None


@dataclass(frozen=True)
class CompilationPlan:
    """The reusable blocking output for one circuit content + config."""

    key: tuple
    num_qubits: int
    blocks: tuple

    def apply(self, context: PipelineContext) -> None:
        """Populate ``context.tasks`` from the plan, skipping aggregation.

        ``context`` must already hold a bound working circuit (the bind
        stage ran).  Rebuilds each block's local subcircuit exactly as
        :meth:`~repro.blocking.aggregate.BlockedCircuit.local_circuit`
        would, and pre-keys every θ-independent task so the scheduler
        skips its per-block fingerprinting too.
        """
        bound = context.working
        tasks = []
        for spec in self.blocks:
            local = {q: i for i, q in enumerate(spec.qubit_order)}
            sub = QuantumCircuit(
                len(spec.qubit_order),
                name=f"{bound.name}_block{spec.local_index}",
            )
            for idx in spec.instruction_indices:
                inst = bound[idx]
                sub.append(inst.gate, tuple(local[q] for q in inst.qubits))
            task = BlockTask(
                index=len(tasks),
                subcircuit=sub,
                device_qubits=spec.qubit_order,
                local_index=spec.local_index,
            )
            if not spec.parametrized:
                task.dedup_key = spec.dedup_key
                task.dedup_key_known = True
            tasks.append(task)
        context.tasks = tasks
        context.metadata["blocks"] = len(tasks)
        context.metadata["plan_cache"] = "hit"


def build_plan(
    key: tuple, circuit: QuantumCircuit, context: PipelineContext, block_compiler
) -> CompilationPlan:
    """Capture a freshly-blocked context as a reusable plan.

    ``circuit`` is the symbolic input circuit (block indices refer to its
    instruction order, which binding preserves); ``context`` has been
    through bind + plain blocking, so ``context.blocked[0].blocks`` aligns
    one-to-one with ``context.tasks``.  As a side effect every task gets
    its dedup key attached, so the cold pass's scheduler does not compute
    them a second time.
    """
    blocked = context.blocked[0]
    specs = []
    for task, block in zip(context.tasks, blocked.blocks):
        task.dedup_key, task.target = block_compiler.task_identity(
            task.subcircuit, task.device_qubits
        )
        task.dedup_key_known = True
        parametrized = any(
            circuit[idx].parameters for idx in block.instruction_indices
        )
        specs.append(
            PlanBlock(
                instruction_indices=tuple(block.instruction_indices),
                qubit_order=tuple(task.device_qubits),
                local_index=task.local_index,
                parametrized=parametrized,
                dedup_key=None if parametrized else task.dedup_key,
            )
        )
    return CompilationPlan(
        key=key, num_qubits=circuit.num_qubits, blocks=tuple(specs)
    )


@dataclass
class PlanCache:
    """A bounded, thread-safe LRU of :class:`CompilationPlan` objects.

    Plans are tiny (indices and hash tuples, no pulse data), so the default
    bound is generous; LRU keeps the ansätze a long-lived service is
    actively iterating on.  All methods are safe to call concurrently —
    the cache is the shared rendezvous point for overlapping ``submit()``
    requests.
    """

    max_entries: int = 256
    plans: dict = field(default_factory=dict)  # key -> CompilationPlan, LRU order
    hits: int = 0
    misses: int = 0
    blocking_passes_skipped: int = 0
    evictions: int = 0

    def __post_init__(self):
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self.plans)

    def lookup(self, key) -> CompilationPlan | None:
        """The plan for ``key`` (refreshing its LRU position), or ``None``."""
        with self._lock:
            plan = self.plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            del self.plans[key]
            self.plans[key] = plan
            self.hits += 1
            return plan

    def insert(self, key, plan: CompilationPlan) -> None:
        """Remember ``plan`` under ``key``, evicting LRU entries."""
        with self._lock:
            self.plans.pop(key, None)
            self.plans[key] = plan
            while len(self.plans) > self.max_entries:
                self.plans.pop(next(iter(self.plans)))
                self.evictions += 1

    def note_skip(self) -> None:
        """Count one blocking pass served from a plan instead of computed."""
        with self._lock:
            self.blocking_passes_skipped += 1

    def clear(self) -> None:
        with self._lock:
            self.plans.clear()

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "entries": len(self.plans),
                "plan_hits": self.hits,
                "plan_misses": self.misses,
                "blocking_passes_skipped": self.blocking_passes_skipped,
                "evictions": self.evictions,
            }
