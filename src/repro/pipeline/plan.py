"""Content-addressed compilation plans.

Variational workloads compile one ansatz thousands of times, and its
blocking pass depends only on circuit content.  A :class:`CompilationPlan`
captures that pass once per ansatz: block boundaries (instruction indices
and sorted device qubits — :func:`repro.blocking.aggregate.aggregate_blocks`
partitions on gate qubits, never on angles), the dedup key, local
subcircuit and gate-based time of every θ-independent block, a
``parametrized`` marker per block, and the circuit's gate-based duration
(ASAP lookup durations come from gate names only, so the
strictly-not-worse baseline is θ-independent too).

A plan has one of two blocking modes, and :func:`plan_key` names it:
``plain`` blocks a bound circuit for full GRAPE, and replay leaves each
parametrized block's θ-dependent key to the scheduler; ``isolate`` is
strict partial compilation's isolate-θ blocking of the symbolic circuit,
and replay rebuilds each ``Rz(θ)`` singleton from the request's own
circuit.  Slicer-mode blocking (flexible) has no plan.

The key also holds the symbolic circuit's
:meth:`~repro.circuits.circuit.QuantumCircuit.content_fingerprint` and
everything the blocking output depends on: block width, device geometry
and drive limits, GRAPE time step and fidelity target.
:class:`~repro.pipeline.stages.BlockingStage` is the one replay route: a
stage wired with a :class:`PlanCache` replays a hit with
:meth:`CompilationPlan.apply` and blocks and inserts a miss with
:func:`build_plan`.  A :class:`repro.service.CompilationService` keeps one
plan cache for its lifetime and hands it to the full-grape and
strict-partial pipelines of cached requests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import critical_path_ns
from repro.pipeline.stages import BlockTask, PipelineContext, lookup_program

#: Blocking modes a plan can capture (see the module docstring).
PLAIN = "plain"
ISOLATE = "isolate"


def device_token(device) -> tuple:
    """The plan-key component for a device: geometry plus drive limits.

    Everything :func:`~repro.pulse.control.build_control_set` folds into a
    block's control context must appear here — a plan's cached dedup keys
    embed per-block control contexts, so two devices with different tokens
    must never share a plan.  A device is immutable once built, so the
    token is computed once and kept on it.
    """
    token = getattr(device, "_plan_token", None)
    if token is None:
        token = device._plan_token = (
            type(device).__name__,
            device.num_qubits,
            device.topology.edges,
            device.levels,
            float(device.max_charge).hex(),
            float(device.max_flux).hex(),
            float(device.max_coupling).hex(),
            float(device.anharmonicity).hex(),
        )
    return token


def plan_key(
    circuit: QuantumCircuit, max_width: int, block_compiler, mode: str = PLAIN
) -> tuple:
    """The cache identity of a blocking plan.

    ``circuit`` is the *symbolic* (pre-binding) circuit — every binding of
    one ansatz shares its fingerprint and therefore its plan.  ``mode``
    (:data:`PLAIN` or :data:`ISOLATE`) keeps the two blockings of one
    circuit apart.  The rest of the key covers every input the blocking
    output depends on: block width, device, and the GRAPE settings baked
    into per-block dedup keys.
    """
    settings = block_compiler.settings
    return (
        mode,
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
    blocks store no key — a plain plan leaves their binding-dependent key
    to the scheduler, an isolate plan replays them as ``Rz(θ)`` tasks.
    A θ-independent block's ``subcircuit`` is shared, read-only, by every
    replay; ``gate_ns``, its gate-based time, depends on gate names only
    (``None`` for isolated ``Rz(θ)`` singletons).
    """

    instruction_indices: tuple
    qubit_order: tuple
    local_index: int
    parametrized: bool
    dedup_key: tuple | None
    subcircuit: QuantumCircuit | None
    gate_ns: float | None


@dataclass(frozen=True)
class CompilationPlan:
    """The reusable blocking output for one circuit content + config.

    ``gate_based_ns`` is the circuit's lookup-table duration (``None`` on
    hand-built plans); ``isolate`` says which blocking mode the blocks
    came from.
    """

    key: tuple
    blocks: tuple
    gate_based_ns: float | None = None
    isolate: bool = False

    def apply(self, context: PipelineContext) -> None:
        """Populate ``context.tasks`` from the plan, skipping aggregation.

        Every θ-independent block takes its stored subcircuit, dedup key
        and gate time, so replay builds no circuit and the scheduler keys
        and times none of these blocks.  Only a plain plan's parametrized
        blocks are rebuilt, from the context's bound working circuit,
        exactly as :meth:`~repro.blocking.aggregate.BlockedCircuit
        .local_circuit` would; an isolate plan's parametrized singletons
        take the symbolic instruction at their stored index.
        """
        circuit = context.working
        tasks = []
        for spec in self.blocks:
            if self.isolate and spec.parametrized:
                tasks.append(
                    BlockTask(
                        index=len(tasks),
                        subcircuit=None,
                        device_qubits=spec.qubit_order,
                        kind="parametrized",
                        instruction=circuit[spec.instruction_indices[0]],
                        local_index=spec.local_index,
                    )
                )
                continue
            sub = spec.subcircuit
            if spec.parametrized:
                local = {q: i for i, q in enumerate(spec.qubit_order)}
                sub = QuantumCircuit(
                    len(spec.qubit_order),
                    name=f"{circuit.name}_block{spec.local_index}",
                )
                for idx in spec.instruction_indices:
                    inst = circuit[idx]
                    sub.append(inst.gate, tuple(local[q] for q in inst.qubits))
            task = BlockTask(
                index=len(tasks),
                subcircuit=sub,
                device_qubits=spec.qubit_order,
                local_index=spec.local_index,
                gate_ns=spec.gate_ns,
            )
            if not spec.parametrized:
                task.dedup_key = spec.dedup_key
                task.dedup_key_known = True
            tasks.append(task)
        context.tasks = tasks
        context.gate_based_ns = self.gate_based_ns
        context.metadata["blocks"] = len(tasks)
        context.metadata["plan_cache"] = "hit"


def build_plan(
    key: tuple, context: PipelineContext, block_compiler, isolate: bool = False
) -> CompilationPlan:
    """Capture a freshly-blocked context as a reusable plan.

    ``context.circuit`` is the symbolic input circuit (block indices refer
    to its instruction order, which binding preserves) and
    ``context.blocked[0].blocks`` aligns one-to-one with
    ``context.tasks``.  As a side effect every fixed task gets its dedup
    key and gate time attached, so the cold pass's scheduler does not
    compute them a second time, and the context gets the plan's gate-based
    duration.
    """
    symbolic = context.circuit
    specs = []
    for task, block in zip(context.tasks, context.blocked[0].blocks):
        if task.kind == "fixed":
            task.dedup_key, task.target = block_compiler.task_identity(
                task.subcircuit, task.device_qubits
            )
            task.dedup_key_known = True
            task.gate_ns = critical_path_ns(task.subcircuit)
        parametrized = any(
            symbolic[idx].parameters for idx in block.instruction_indices
        )
        specs.append(
            PlanBlock(
                instruction_indices=tuple(block.instruction_indices),
                qubit_order=tuple(task.device_qubits),
                local_index=task.local_index,
                parametrized=parametrized,
                dedup_key=None if parametrized else task.dedup_key,
                subcircuit=None if parametrized else task.subcircuit,
                gate_ns=task.gate_ns,
            )
        )
    context.gate_based_ns = lookup_program(context.working).duration_ns
    return CompilationPlan(
        key=key,
        blocks=tuple(specs),
        gate_based_ns=context.gate_based_ns,
        isolate=isolate,
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

    def clear(self) -> None:
        with self._lock:
            self.plans.clear()

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "entries": len(self.plans),
                "plan_hits": self.hits,
                "plan_misses": self.misses,
                "evictions": self.evictions,
            }
