"""Cross-block batched GRAPE: optimize N same-shape blocks as one tensor.

The scheduler routinely collects many unique same-dimension blocks per
batch (see :class:`repro.pipeline.scheduler.BlockScheduler`), yet the
per-block kernel optimizes them one at a time — hundreds of numpy calls
per iteration per block, each over matrices far too small to amortize the
call overhead.  This module stacks ``B`` problems that share a shape
``(dim, n_controls, n_steps)`` along a leading batch axis and runs every
hot contraction of :class:`~repro.pulse.grape.cost.GrapeCost` — the
step-Hamiltonian GEMM, the stacked ``eigh``/``expm``, the blocked
propagator scans, the divided-differences gradient, and the per-control
``K_k`` contraction — as single batched calls over *blocks × steps*
matrices, so one optimizer sweep advances all stacked blocks at once.

Equivalence contract
--------------------
Batched results are bit-identical to running the per-block path serially
(asserted at ≤1e-10 in the regression tests, observed exact):

* every per-slice operation (GEMM, ``eigh``, Loewner mask) runs the same
  BLAS/LAPACK kernel per matrix whether the leading axis is ``(S,)`` or
  ``(B, S)``;
* the blocked scan chunks by ``n_steps`` only, so batched and per-block
  scans reassociate identically;
* each block keeps its **own** optimizer instance (ADAM moments or the
  L-BFGS curvature pairs never mix across blocks), its own best/stall
  bookkeeping, and its own convergence test;
* a block that converges or plateaus is *frozen out*: it leaves the
  active stack (shrinking every subsequent batched call) while the
  remaining blocks continue unperturbed — exactly the iterations the
  serial loop would have run.

:func:`minimum_time_pulse_batch` lifts the batching through the
minimum-time search: each block advances its own trial → doubling →
binary-search state machine (mirroring
:func:`~repro.pulse.grape.time_search.minimum_time_pulse`'s sequential
path decision-for-decision), and every round the driver groups the
active probes by step count and dispatches each group as one batched
GRAPE run.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import GrapeError
from repro.linalg.expm import _divided_differences, expm_hermitian_factorized
from repro.linalg.scan import backward_partial_products, forward_partial_products
from repro.perf import get_perf_registry
from repro.pulse.grape.controls import clip_controls, envelope_window, initial_controls
from repro.pulse.grape.cost import GrapeCost
from repro.pulse.grape.engine import (
    GrapeHyperparameters,
    GrapeResult,
    GrapeSettings,
    optimize_pulse,
)
from repro.pulse.grape.time_search import MinimumTimeResult, minimum_time_pulse
from repro.pulse.schedule import PulseSchedule

#: Cap on how many blocks one batched group stacks (bounds the working-set
#: of the stacked scans: ~3·B·S·d² complex temporaries).  The compile
#: route always uses it; ``max_group`` overrides it only in direct calls.
DEFAULT_MAX_GROUP = 16


class BatchedGrapeCost:
    """The stacked twin of :class:`~repro.pulse.grape.cost.GrapeCost`.

    Built from ``B`` per-block cost objects sharing ``(dim, n_controls)``,
    time step, and regularization; evaluates cost/gradient/fidelity for a
    ``(B, n_controls, n_steps)`` control stack in one pass of batched
    GEMMs.  ``indices`` selects a sub-batch, which is how the optimizer
    loop freezes converged blocks out of the active stack.
    """

    def __init__(self, costs: list):
        if not costs:
            raise GrapeError("need at least one cost object to batch")
        first = costs[0]
        for cost in costs[1:]:
            if cost.control_set.dim != first.control_set.dim:
                raise GrapeError(
                    "batched blocks must share the Hilbert dimension; got "
                    f"{cost.control_set.dim} != {first.control_set.dim}"
                )
            if cost.control_set.num_controls != first.control_set.num_controls:
                raise GrapeError(
                    "batched blocks must share the control count; got "
                    f"{cost.control_set.num_controls} != "
                    f"{first.control_set.num_controls}"
                )
            if cost.dt_ns != first.dt_ns:
                raise GrapeError("batched blocks must share dt")
            if cost.regularization != first.regularization:
                raise GrapeError("batched blocks must share regularization")
        self.costs = list(costs)
        self.dt_ns = first.dt_ns
        self.dim = first.control_set.dim
        self.num_controls = first.control_set.num_controls
        self._dim_comp = first._dim_comp
        # Stacked contraction plans: (B, c, d²) flattened operators,
        # (B, d, d) drifts and folded targets.
        self._ops_flat = np.stack([cost._ops_flat for cost in costs])
        self._drift = np.stack(
            [np.asarray(cost.control_set.drift, dtype=complex) for cost in costs]
        )
        self._e_dag = np.stack([cost._e_dag for cost in costs])

    def cost_and_gradient(self, controls: np.ndarray, indices=None) -> tuple:
        """Return ``(costs, gradients, fidelities)`` for a control stack.

        ``controls`` has shape ``(A, n_controls, n_steps)`` where ``A`` is
        the active sub-batch selected by ``indices`` (all blocks when
        ``None``).  Results are arrays batched over the same axis.
        """
        if indices is None:
            indices = range(len(self.costs))
        indices = list(indices)
        ops_flat = self._ops_flat[indices]
        e_dag = self._e_dag[indices]
        batch, n_controls, n_steps = controls.shape
        dim = self.dim
        dt = self.dt_ns

        # Step Hamiltonians for every block × slice: one batched GEMM.
        hams = np.matmul(controls.transpose(0, 2, 1), ops_flat).reshape(
            batch, n_steps, dim, dim
        )
        hams += self._drift[indices][:, None, :, :]
        eigvals, eigvecs, phases, props = expm_hermitian_factorized(hams, dt)

        forward = forward_partial_products(props)
        bwd = backward_partial_products(props, e_dag)

        total = forward[:, -1]
        # Per-block overlap traces, written exactly as the per-block kernel
        # computes them so accumulation order matches bit-for-bit.
        overlap = (
            np.stack(
                [
                    np.einsum("ij,ji->", e_dag[b], total[b])
                    for b in range(batch)
                ]
            )
            / self._dim_comp
        )
        fidelity = np.abs(overlap) ** 2

        g_mats = np.matmul(forward[:, :-1], bwd)
        gammas = _divided_differences(eigvals, phases, dt)
        vecs_t = np.swapaxes(eigvecs, -1, -2)
        vecs_conj = eigvecs.conj()
        g_eig_t = np.matmul(
            vecs_t, np.matmul(np.swapaxes(g_mats, -1, -2), vecs_conj)
        )
        np.multiply(g_eig_t, gammas, out=g_eig_t)
        k_mats = np.matmul(vecs_conj, np.matmul(g_eig_t, vecs_t))
        overlap_grad = (
            np.matmul(
                ops_flat,
                np.swapaxes(k_mats.reshape(batch, n_steps, dim * dim), -1, -2),
            )
            / self._dim_comp
        )
        grad_fidelity = 2.0 * np.real(
            np.conj(overlap)[:, None, None] * overlap_grad
        )
        costs = 1.0 - fidelity
        gradients = -grad_fidelity

        # Regularization is elementwise and cheap; the per-block call keeps
        # it literally the serial code path.
        for pos, b in enumerate(indices):
            reg_cost, reg_grad = self.costs[b]._regularization_terms(
                controls[pos]
            )
            costs[pos] += reg_cost
            gradients[pos] += reg_grad
        return costs, gradients, fidelity


def optimize_pulse_batch(
    control_sets: list,
    targets: list,
    num_steps: int,
    hyperparameters: GrapeHyperparameters | None = None,
    settings: GrapeSettings | None = None,
    initials: list | None = None,
) -> list:
    """Run GRAPE for ``B`` same-shape blocks in one stacked optimizer loop.

    The batched twin of :func:`~repro.pulse.grape.engine.optimize_pulse`:
    returns one :class:`~repro.pulse.grape.engine.GrapeResult` per block,
    bit-identical to running the per-block function on each ``(control_set,
    target, initial)`` triple serially.  Blocks that converge (or plateau)
    early are frozen out of the active stack and stop costing work.
    """
    if num_steps < 1:
        raise GrapeError("num_steps must be >= 1")
    if len(control_sets) != len(targets):
        raise GrapeError(
            f"got {len(control_sets)} control sets but {len(targets)} targets"
        )
    batch = len(control_sets)
    if batch == 0:
        return []
    hyper = hyperparameters or GrapeHyperparameters()
    settings = settings or GrapeSettings()
    dt = settings.resolved_dt()
    target_fidelity = settings.resolved_target()
    max_iterations = hyper.resolved_iterations()
    if initials is None:
        initials = [None] * batch
    if len(initials) != batch:
        raise GrapeError(f"got {batch} blocks but {len(initials)} warm starts")

    costs = [
        GrapeCost(control_set, target, dt, settings.regularization)
        for control_set, target in zip(control_sets, targets)
    ]
    batched = BatchedGrapeCost(costs)
    window = (
        envelope_window(num_steps)
        if settings.regularization.enforce_envelope
        else None
    )

    bounds = [control_set.max_amplitudes for control_set in control_sets]
    controls: list = []
    for b, initial in enumerate(initials):
        if initial is None:
            fields = initial_controls(
                control_sets[b].num_controls,
                num_steps,
                bounds[b],
                seed=settings.seed,
            )
        else:
            fields = np.array(initial, dtype=float)
            if fields.shape != (control_sets[b].num_controls, num_steps):
                raise GrapeError(
                    f"initial controls shape {fields.shape} != "
                    f"({control_sets[b].num_controls}, {num_steps})"
                )
        if window is not None:
            fields = fields * window
        controls.append(fields)

    perf = get_perf_registry()
    perf.count("grape.batch.stacked_calls")
    # GEMM-size telemetry: how many d×d matrices each stacked hot
    # contraction fuses (the whole point of batching).
    perf.record_seconds("grape.batch.gemm_matrices", float(batch * num_steps))

    optimizers = [hyper.make_optimizer() for _ in range(batch)]
    history: list = [[] for _ in range(batch)]
    best_controls = [fields for fields in controls]
    best_fidelity = [-1.0] * batch
    stall = [0] * batch
    iterations_run = [0] * batch
    converged = [False] * batch
    elapsed = [0.0] * batch
    start = time.perf_counter()

    active = list(range(batch))
    for _ in range(max_iterations):
        if not active:
            break
        stack = np.stack([controls[b] for b in active])
        _, gradients, fidelities = batched.cost_and_gradient(
            stack, indices=active
        )
        still_active = []
        for pos, b in enumerate(active):
            fidelity = float(fidelities[pos])
            iterations_run[b] += 1
            history[b].append(fidelity)
            if fidelity > best_fidelity[b]:
                if fidelity < best_fidelity[b] + settings.plateau_tolerance:
                    stall[b] += 1
                else:
                    stall[b] = 0
                best_fidelity[b] = fidelity
                best_controls[b] = stack[pos].copy()
            else:
                stall[b] += 1
            if fidelity >= target_fidelity:
                converged[b] = True
                elapsed[b] = time.perf_counter() - start
                continue  # freeze-out: converged
            if stall[b] >= settings.plateau_patience:
                elapsed[b] = time.perf_counter() - start
                continue  # freeze-out: plateaued
            fields = optimizers[b].step(stack[pos], gradients[pos], scale=bounds[b])
            fields = clip_controls(fields, bounds[b])
            if window is not None:
                fields = fields * window
            controls[b] = fields
            still_active.append(b)
        active = still_active
    total_elapsed = time.perf_counter() - start
    for b in active:
        elapsed[b] = total_elapsed

    results = []
    for b in range(batch):
        schedule = PulseSchedule(
            qubits=control_sets[b].qubits,
            dt_ns=dt,
            controls=best_controls[b],
            channel_names=tuple(ch.name for ch in control_sets[b].channels),
            source="grape",
        )
        results.append(
            GrapeResult(
                schedule=schedule,
                fidelity=best_fidelity[b],
                converged=converged[b],
                iterations=iterations_run[b],
                wall_time_s=elapsed[b],
                fidelity_history=history[b],
                target_fidelity=target_fidelity,
            )
        )
    return results


class _SearchState:
    """One block's minimum-time search, re-expressed as a state machine.

    Replays the decision sequence of
    :func:`~repro.pulse.grape.time_search.minimum_time_pulse` exactly:
    trial probes at the bound and its half, lazy feasibility doublings,
    then the binary search, each probe
    warm-started from the same schedule the sequential code would use.
    ``next_probe``/``feed`` split the loop so a driver can interleave many
    blocks' probes and batch the ones that share a step count.
    """

    def __init__(
        self,
        control_set,
        target,
        upper_bound_ns: float,
        dt: float,
        precision_ns: float,
        lower_bound_ns: float,
        max_doublings: int,
    ):
        if upper_bound_ns <= 0:
            raise GrapeError(
                f"upper bound must be positive, got {upper_bound_ns}"
            )
        self.control_set = control_set
        self.target = target
        self.dt = dt
        self.trials = [upper_bound_ns, 0.5 * upper_bound_ns]
        self.doublings = [
            upper_bound_ns * 2.0**k for k in range(1, max_doublings + 1)
        ]
        self.lower_bound_ns = lower_bound_ns
        self.min_width = max(precision_ns, dt)
        self.phase = "trial"
        self.index = 0
        self.best: GrapeResult | None = None
        self.feasible: GrapeResult | None = None
        self.low = 0.0
        self.high = 0.0
        self.total_iterations = 0
        self.grape_calls = 0
        self.probes: list = []
        self.done = False
        self._converged = False
        self._probe_steps: int | None = None
        self._pending_mid = 0.0
        self._start = time.perf_counter()
        self._wall_time_s = 0.0

    def _spec(self, duration_ns: float, warm: PulseSchedule | None) -> tuple:
        steps = max(1, int(round(duration_ns / self.dt)))
        initial = warm.resampled(steps).controls if warm is not None else None
        self._probe_steps = steps
        return steps, initial

    def _finish(self, converged: bool) -> None:
        self.done = True
        self._converged = converged
        self._wall_time_s = time.perf_counter() - self._start

    def _enter_binary(self) -> None:
        self.feasible = self.best
        self.low = max(self.lower_bound_ns, 0.0)
        self.high = self.feasible.schedule.duration_ns
        self.phase = "binary"

    def next_probe(self) -> tuple | None:
        """The next ``(steps, initial)`` to run, or ``None`` when done."""
        while not self.done:
            if self.phase == "trial":
                if self.index >= len(self.trials):
                    if not self.doublings:
                        self._finish(converged=False)
                        return None
                    self.phase = "doubling"
                    self.index = 0
                    continue
                warm = self.best.schedule if self.best is not None else None
                return self._spec(self.trials[self.index], warm)
            if self.phase == "doubling":
                if self.index >= len(self.doublings):
                    self._finish(converged=False)
                    return None
                return self._spec(self.doublings[self.index], self.best.schedule)
            # binary
            if self.high - self.low <= self.min_width:
                self._finish(converged=True)
                return None
            mid = 0.5 * (self.low + self.high)
            steps = max(1, int(round(mid / self.dt)))
            mid_snapped = steps * self.dt
            if mid_snapped >= self.high or mid_snapped <= self.low:
                self._finish(converged=True)
                return None
            self._pending_mid = mid_snapped
            return self._spec(mid_snapped, self.feasible.schedule)
        return None

    def feed(self, result: GrapeResult) -> None:
        """Fold one probe's outcome into the search state."""
        self.total_iterations += result.iterations
        self.grape_calls += 1
        self.probes.append(
            (self._probe_steps * self.dt, result.fidelity, result.converged)
        )
        if self.phase in ("trial", "doubling"):
            if result.converged:
                self.best = result
                self._enter_binary()
            else:
                if self.best is None or result.fidelity > self.best.fidelity:
                    self.best = result
                self.index += 1
        else:  # binary
            if result.converged:
                self.feasible = result
                self.high = self._pending_mid
            else:
                self.low = self._pending_mid

    def result(self) -> MinimumTimeResult:
        winner = self.feasible if self._converged else self.best
        return MinimumTimeResult(
            schedule=winner.schedule,
            fidelity=winner.fidelity,
            duration_ns=winner.schedule.duration_ns,
            converged=self._converged,
            total_iterations=self.total_iterations,
            grape_calls=self.grape_calls,
            wall_time_s=self._wall_time_s,
            probes=self.probes,
        )


def minimum_time_pulse_batch(
    control_sets: list,
    targets: list,
    upper_bounds_ns: list,
    hyperparameters: GrapeHyperparameters | None = None,
    settings: GrapeSettings | None = None,
    precision_ns: float | None = None,
    lower_bound_ns: float = 0.0,
    max_doublings: int = 3,
    max_group: int | None = None,
) -> list:
    """Minimum-time searches for ``B`` same-shape blocks, batched lock-step.

    Each block runs its own search state machine; every round the driver
    collects the pending probes, groups the ones that share a step count,
    and dispatches each group (capped at ``max_group`` blocks) through
    :func:`optimize_pulse_batch` — singleton probes take the per-block
    :func:`~repro.pulse.grape.time_search.minimum_time_pulse` kernel
    directly.  Results are bit-identical to the sequential per-block
    search because every probe sees the same warm start and the same
    kernel numerics either way.
    """
    if not (len(control_sets) == len(targets) == len(upper_bounds_ns)):
        raise GrapeError(
            "control_sets, targets, and upper_bounds_ns must align; got "
            f"{len(control_sets)}/{len(targets)}/{len(upper_bounds_ns)}"
        )
    settings = settings or GrapeSettings()
    hyper = hyperparameters or GrapeHyperparameters()
    dt = settings.resolved_dt()
    if precision_ns is None:
        from repro.config import get_preset

        precision_ns = get_preset().time_search_precision_ns
    if max_group is None:
        max_group = DEFAULT_MAX_GROUP
    max_group = max(1, int(max_group))

    states = [
        _SearchState(
            control_set,
            target,
            upper_bound,
            dt,
            precision_ns,
            lower_bound_ns,
            max_doublings,
        )
        for control_set, target, upper_bound in zip(
            control_sets, targets, upper_bounds_ns
        )
    ]
    perf = get_perf_registry()
    while True:
        pending = []
        for i, state in enumerate(states):
            if state.done:
                continue
            spec = state.next_probe()
            if spec is not None:
                pending.append((i, spec))
        if not pending:
            break
        by_steps: dict = {}
        for i, (steps, initial) in pending:
            by_steps.setdefault(steps, []).append((i, initial))
        for steps in sorted(by_steps):
            members = by_steps[steps]
            for offset in range(0, len(members), max_group):
                chunk = members[offset : offset + max_group]
                perf.record_seconds(
                    "grape.batch.blocks_per_group", float(len(chunk))
                )
                if len(chunk) == 1:
                    i, initial = chunk[0]
                    perf.count("grape.batch.singleton_probes")
                    states[i].feed(
                        optimize_pulse(
                            states[i].control_set,
                            states[i].target,
                            steps,
                            hyper,
                            settings,
                            initial=initial,
                        )
                    )
                    continue
                perf.count("grape.batch.groups")
                perf.count("grape.batch.batched_blocks", len(chunk))
                results = optimize_pulse_batch(
                    [states[i].control_set for i, _ in chunk],
                    [states[i].target for i, _ in chunk],
                    steps,
                    hyper,
                    settings,
                    initials=[initial for _, initial in chunk],
                )
                for (i, _), result in zip(chunk, results):
                    states[i].feed(result)
    return [state.result() for state in states]


def batch_telemetry() -> dict:
    """JSON-ready snapshot of the batched-kernel perf counters."""
    perf = get_perf_registry()
    per_group = perf.timer_stats("grape.batch.blocks_per_group")
    gemm = perf.timer_stats("grape.batch.gemm_matrices")
    return {
        "groups": perf.counter("grape.batch.groups"),
        "batched_blocks": perf.counter("grape.batch.batched_blocks"),
        "singleton_probes": perf.counter("grape.batch.singleton_probes"),
        "stacked_calls": perf.counter("grape.batch.stacked_calls"),
        "blocks_per_group": per_group.as_dict() if per_group else None,
        "gemm_matrices": gemm.as_dict() if gemm else None,
    }


# minimum_time_pulse is re-exported so callers batching opportunistically
# (the scheduler's batched dispatch) import one module for both paths.
__all__ = [
    "BatchedGrapeCost",
    "DEFAULT_MAX_GROUP",
    "batch_telemetry",
    "minimum_time_pulse",
    "minimum_time_pulse_batch",
    "optimize_pulse_batch",
]
