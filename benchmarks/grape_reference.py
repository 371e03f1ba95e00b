"""Frozen GRAPE kernels and their fixed-seed fixtures.

This module is the single home of frozen copies of the GRAPE kernel:

* the seed's ``cost_and_gradient`` (:func:`reference_cost_and_gradient`),
  kept verbatim after the vectorized-kernel rewrite — the live kernel
  matches it to ≤1e-10;
* the vectorized kernel and optimizer loop as they stood before the
  per-pulse-length plans (:class:`PrePlanGrapeCost`,
  :func:`pre_plan_optimize_pulse`) — the live ``optimize_pulse`` must
  reproduce them *bit for bit*: same control bytes, iteration count and
  fidelity history.

``tests/pulse/test_grape_kernel_regression.py`` pins the live code to
both, and ``benchmarks/run_benchmarks.py`` times the live kernel against
them for ``BENCH_grape_kernel.json``.  Do not "improve" this code — its
whole value is that it does not move.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.expm import _divided_differences
from repro.linalg.random import haar_random_unitary
from repro.linalg.scan import scan_block_size
from repro.pulse.device import GmonDevice
from repro.pulse.grape.controls import envelope_window, initial_controls
from repro.pulse.grape.cost import GrapeCost
from repro.pulse.hamiltonian import build_control_set
from repro.transpile.topology import line_topology


def reference_cost_and_gradient(cost: GrapeCost, controls: np.ndarray) -> tuple:
    """The seed (pre-rewrite) kernel, evaluated on a live ``GrapeCost``."""
    ops = cost.control_set.operators
    n_controls, n_steps = controls.shape
    dt = cost.dt_ns
    dim = cost.control_set.dim
    drift = cost.control_set.drift

    hams = drift[None, :, :] + np.einsum("ck,cij->kij", controls, ops, optimize=True)
    eigvals, eigvecs = np.linalg.eigh(hams)
    phases = np.exp(-1j * dt * eigvals)
    props = np.einsum(
        "kij,kj,klj->kil", eigvecs, phases, eigvecs.conj(), optimize=True
    )
    forward = np.empty((n_steps + 1, dim, dim), dtype=complex)
    forward[0] = np.eye(dim)
    for k in range(n_steps):
        forward[k + 1] = props[k] @ forward[k]
    backward = np.empty((n_steps, dim, dim), dtype=complex)
    backward[n_steps - 1] = np.eye(dim)
    for k in range(n_steps - 2, -1, -1):
        backward[k] = backward[k + 1] @ props[k + 1]
    total = forward[n_steps]
    e_dag = cost._target_embedded.conj().T
    overlap = np.trace(e_dag @ total) / cost._dim_comp
    fidelity = float(np.abs(overlap) ** 2)
    g_mats = np.einsum(
        "kij,jl,klm->kim", forward[:-1], e_dag, backward, optimize=True
    )
    gammas = np.empty((n_steps, dim, dim), dtype=complex)
    for k in range(n_steps):
        gammas[k] = _divided_differences(eigvals[k], phases[k], dt)
    g_eig = np.einsum(
        "kji,kjl,klm->kim", eigvecs.conj(), g_mats, eigvecs, optimize=True
    )
    ops_eig = np.einsum(
        "kji,cjl,klm->ckim", eigvecs.conj(), ops, eigvecs, optimize=True
    )
    mask = np.transpose(g_eig, (0, 2, 1)) * gammas
    overlap_grad = (
        np.einsum("kij,ckij->ck", mask, ops_eig, optimize=True) / cost._dim_comp
    )
    grad_fidelity = 2.0 * np.real(np.conj(overlap) * overlap_grad)
    reg_cost, reg_grad = cost._regularization_terms(controls)
    return 1.0 - fidelity + reg_cost, -grad_fidelity + reg_grad, fidelity


def kernel_fixture(
    n_qubits: int,
    levels: int,
    n_steps: int,
    seed: int = 42,
    regularization=None,
) -> tuple:
    """A fixed-seed ``(GrapeCost, controls)`` pair for oracle comparisons.

    Seeds 7 (target) and 42 (controls) are pinned: the regression test's
    golden numbers were recorded against exactly this construction.
    """
    device = GmonDevice(line_topology(n_qubits), levels=levels)
    control_set = build_control_set(device, tuple(range(n_qubits)))
    target = haar_random_unitary(2**n_qubits, seed=7)
    cost = GrapeCost(control_set, target, dt_ns=0.2, regularization=regularization)
    rng = np.random.default_rng(seed)
    controls = (
        rng.normal(scale=0.3, size=(control_set.num_controls, n_steps))
        * control_set.max_amplitudes[:, None]
    )
    return cost, controls


# -- the vectorized kernel before per-pulse-length plans ---------------------
# Verbatim copies of the scans, divided differences, propagator, kernel and
# optimizer loop.  Every floating-point operation, its operand order and each
# operand's memory layout are exactly those of the live code at the time it
# was frozen, which is what makes a bit-for-bit comparison meaningful.


def _pre_plan_left_scan(mats, init, block_size=None, out=None):
    mats = np.asarray(mats)
    init = np.asarray(init)
    n, d = mats.shape[-3], mats.shape[-1]
    lead = mats.shape[:-3]
    if out is None:
        out = np.empty(lead + (n + 1, d, d), dtype=np.result_type(mats, init))
    out[..., 0, :, :] = init
    size = scan_block_size(n) if block_size is None else max(1, int(block_size))
    if size <= 1 or n <= size:
        for k in range(n):
            np.matmul(
                mats[..., k, :, :], out[..., k, :, :], out=out[..., k + 1, :, :]
            )
        return out

    chunks = -(-n // size)
    pad = chunks * size - n
    eye = np.eye(d, dtype=out.dtype)
    if pad:
        padded = np.concatenate(
            [mats, np.broadcast_to(eye, lead + (pad, d, d))], axis=-3
        )
    else:
        padded = mats
    work = padded.reshape(lead + (chunks, size, d, d))
    local = np.empty(lead + (chunks, size, d, d), dtype=out.dtype)
    local[..., :, 0, :, :] = work[..., :, 0, :, :]
    for j in range(1, size):
        np.matmul(
            work[..., :, j, :, :],
            local[..., :, j - 1, :, :],
            out=local[..., :, j, :, :],
        )
    offsets = np.empty(lead + (chunks, d, d), dtype=out.dtype)
    offsets[..., 0, :, :] = init
    totals = local[..., :, size - 1, :, :]
    for c in range(1, chunks):
        np.matmul(
            totals[..., c - 1, :, :],
            offsets[..., c - 1, :, :],
            out=offsets[..., c, :, :],
        )
    combined = np.matmul(local, offsets[..., :, None, :, :])
    out[..., 1:, :, :] = combined.reshape(lead + (chunks * size, d, d))[
        ..., :n, :, :
    ]
    return out


def _pre_plan_forward(props, out):
    props = np.asarray(props)
    eye = np.eye(props.shape[-1], dtype=complex)
    return _pre_plan_left_scan(props, eye, None, out)


def _pre_plan_backward(props, init, out):
    props = np.asarray(props)
    init = np.asarray(init)
    mats_t = np.swapaxes(props[..., :0:-1, :, :], -1, -2)
    scanned = _pre_plan_left_scan(mats_t, np.swapaxes(init, -1, -2))
    out[...] = np.swapaxes(scanned[..., ::-1, :, :], -1, -2)
    return out


def _pre_plan_divided_differences(eigvals, phases, dt):
    eigvals = np.asarray(eigvals)
    phases = np.asarray(phases)
    diff = eigvals[..., :, None] - eigvals[..., None, :]
    gamma = phases[..., :, None] - phases[..., None, :]
    degenerate = np.abs(diff) < 1e-12
    np.copyto(diff, 1.0, where=degenerate)
    gamma /= diff
    derivative_diag = -1j * dt * phases
    np.copyto(
        gamma,
        np.broadcast_to(derivative_diag[..., :, None], gamma.shape),
        where=degenerate,
    )
    return gamma


def _pre_plan_expm_factorized(hamiltonians, dt):
    h = np.asarray(hamiltonians, dtype=complex)
    eigvals, eigvecs = np.linalg.eigh(h)
    phases = np.exp(-1j * dt * eigvals)
    unitaries = (eigvecs * phases[..., None, :]) @ np.swapaxes(
        eigvecs.conj(), -1, -2
    )
    return eigvals, eigvecs, phases, unitaries


class PrePlanGrapeCost:
    """The vectorized GRAPE kernel as it stood before per-length plans.

    The frozen twin of a live :class:`repro.pulse.grape.cost.GrapeCost`
    (whose validated inputs and target embedding it reuses); evaluates
    ``(cost, gradient, fidelity)`` with its own copies of every operation.
    """

    def __init__(self, live: GrapeCost):
        control_set = live.control_set
        self.control_set = control_set
        self.dt_ns = live.dt_ns
        self.regularization = live.regularization
        self._dim_comp = live._dim_comp
        dim = control_set.dim
        self._ops = np.ascontiguousarray(control_set.operators, dtype=complex)
        self._ops_flat = self._ops.reshape(self._ops.shape[0], dim * dim)
        self._e_dag = np.ascontiguousarray(live._target_embedded.conj().T)
        self._scan_buffers: dict = {}

    def _buffers(self, n_steps, dim):
        key = (n_steps, dim)
        buffers = self._scan_buffers.get(key)
        if buffers is None:
            forward = np.empty((n_steps + 1, dim, dim), dtype=complex)
            bwd = np.empty((n_steps, dim, dim), dtype=complex)
            buffers = (forward, bwd)
            if len(self._scan_buffers) >= 4:
                self._scan_buffers.clear()
            self._scan_buffers[key] = buffers
        return buffers

    def _step_hamiltonians(self, controls):
        drift = self.control_set.drift
        dim = self.control_set.dim
        hams = (controls.T @ self._ops_flat).reshape(-1, dim, dim)
        hams += drift
        return hams

    def cost_and_gradient(self, controls):
        n_controls, n_steps = controls.shape
        dt = self.dt_ns
        dim = self.control_set.dim
        eigvals, eigvecs, phases, props = _pre_plan_expm_factorized(
            self._step_hamiltonians(controls), dt
        )
        forward, bwd = self._buffers(n_steps, dim)
        e_dag = self._e_dag
        _pre_plan_forward(props, out=forward)
        _pre_plan_backward(props, e_dag, out=bwd)

        total = forward[n_steps]
        overlap = np.einsum("ij,ji->", e_dag, total) / self._dim_comp
        fidelity = float(np.abs(overlap) ** 2)
        g_mats = np.matmul(forward[:-1], bwd)
        gammas = _pre_plan_divided_differences(eigvals, phases, dt)
        vecs_t = np.swapaxes(eigvecs, -1, -2)
        vecs_conj = eigvecs.conj()
        g_eig_t = np.matmul(vecs_t, np.matmul(np.swapaxes(g_mats, -1, -2), vecs_conj))
        np.multiply(g_eig_t, gammas, out=g_eig_t)
        k_mats = np.matmul(vecs_conj, np.matmul(g_eig_t, vecs_t))
        overlap_grad = (
            self._ops_flat @ k_mats.reshape(n_steps, dim * dim).T
        ) / self._dim_comp
        grad_fidelity = 2.0 * np.real(np.conj(overlap) * overlap_grad)
        cost = 1.0 - fidelity
        gradient = -grad_fidelity
        reg_cost, reg_grad = self._regularization_terms(controls)
        return cost + reg_cost, gradient + reg_grad, fidelity

    def _regularization_terms(self, controls):
        reg = self.regularization
        cost = 0.0
        grad = np.zeros_like(controls)
        bounds = self.control_set.max_amplitudes[:, None]
        if reg.amplitude_weight > 0:
            rel = controls / bounds
            cost += reg.amplitude_weight * float(np.mean(rel**2))
            grad += 2 * reg.amplitude_weight * rel / bounds / rel.size
        if reg.slope_weight > 0 and controls.shape[1] > 1:
            diff = np.diff(controls, axis=1) / bounds
            cost += reg.slope_weight * float(np.mean(diff**2))
            back = np.zeros_like(controls)
            back[:, :-1] -= diff
            back[:, 1:] += diff
            grad += 2 * reg.slope_weight * back / bounds / diff.size
        if reg.curvature_weight > 0 and controls.shape[1] > 2:
            curv = np.diff(controls, n=2, axis=1) / bounds
            cost += reg.curvature_weight * float(np.mean(curv**2))
            back = np.zeros_like(controls)
            back[:, :-2] += curv
            back[:, 1:-1] -= 2 * curv
            back[:, 2:] += curv
            grad += 2 * reg.curvature_weight * back / bounds / curv.size
        return cost, grad


class _PrePlanAdam:
    def __init__(self, learning_rate, decay_rate=0.0, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = float(learning_rate)
        self.decay_rate = float(decay_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m = None
        self._v = None
        self._t = 0

    def step(self, params, gradient, scale=1.0):
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        self._t += 1
        self._m = self.beta1 * self._m + (1 - self.beta1) * gradient
        self._v = self.beta2 * self._v + (1 - self.beta2) * gradient**2
        m_hat = self._m / (1 - self.beta1**self._t)
        v_hat = self._v / (1 - self.beta2**self._t)
        lr = self.learning_rate / (1.0 + self.decay_rate * self._t)
        direction = m_hat / (np.sqrt(v_hat) + self.epsilon)
        if isinstance(scale, np.ndarray):
            scale = scale[:, None]
        return params - lr * scale * direction


def pre_plan_optimize_pulse(
    control_set, target, num_steps, hyperparameters, settings, initial=None
):
    """The ``optimize_pulse`` loop before per-length plans, frozen.

    Returns ``(controls, iterations, fidelity_history)`` — the fields a
    bit-identity comparison against the live
    :func:`repro.pulse.grape.engine.optimize_pulse` checks.  ADAM runs
    from a frozen copy; L-BFGS (``hyperparameters.optimizer == "lbfgs"``)
    uses the live optimizer, fed the same 1-D bounds as before.
    """
    hyper = hyperparameters
    dt = settings.resolved_dt()
    target_fidelity = settings.resolved_target()
    max_iterations = hyper.resolved_iterations()
    cost_fn = PrePlanGrapeCost(
        GrapeCost(control_set, target, dt, settings.regularization)
    )
    bounds = control_set.max_amplitudes
    if initial is None:
        controls = initial_controls(
            control_set.num_controls, num_steps, bounds, seed=settings.seed
        )
    else:
        controls = np.array(initial, dtype=float)
    window = (
        envelope_window(num_steps)
        if settings.regularization.enforce_envelope
        else None
    )
    if window is not None:
        controls = controls * window
    if hyper.optimizer == "adam":
        optimizer = _PrePlanAdam(hyper.learning_rate, hyper.decay_rate)
    else:
        optimizer = hyper.make_optimizer()
    history = []
    best_controls = controls
    best_fidelity = -1.0
    iterations_run = 0
    stall = 0
    for iteration in range(max_iterations):
        _, gradient, fidelity = cost_fn.cost_and_gradient(controls)
        iterations_run = iteration + 1
        history.append(fidelity)
        if fidelity > best_fidelity:
            if fidelity < best_fidelity + settings.plateau_tolerance:
                stall += 1
            else:
                stall = 0
            best_fidelity = fidelity
            best_controls = controls.copy()
        else:
            stall += 1
        if fidelity >= target_fidelity:
            break
        if stall >= settings.plateau_patience:
            break
        controls = optimizer.step(controls, gradient, scale=bounds)
        clip = np.asarray(bounds)[:, None]
        controls = np.clip(controls, -clip, clip)
        if window is not None:
            controls = controls * window
    return best_controls, iterations_run, history
