"""The GRAPE cost function and its exact gradient.

The objective is the gate infidelity

    ``C = 1 - |Tr(E† U_total)|² / d²  (+ regularization penalties)``

where ``E`` is the target unitary restricted to the computational subspace
(zero rows/columns on leakage levels, so qutrit leakage is automatically
penalized: amplitude that leaks out of the 2^n block simply does not count
toward the overlap).

Gradients are exact: the derivative of each step propagator
``U_k = exp(-i dt H_k)`` along each control operator comes from the
eigenbasis Fréchet formula (see :mod:`repro.linalg.expm`), and the chain
rule through the product ``U_N … U_1`` uses the standard forward/backward
partial products.

Kernel layout
-------------
``cost_and_gradient`` is the hot path of the whole reproduction — every
GRAPE iteration of every block runs it once — so it is written as a
batched kernel rather than a per-step Python loop:

* all step Hamiltonians, eigendecompositions, propagators, and Loewner
  (divided-difference) matrices are produced in single stacked calls;
* the target ``E†`` is folded into the backward scan, so the gradient
  contraction ``G_k = A_{k-1} E† B_k`` costs one batched matmul instead
  of two;
* both propagator scans run through the blocked prefix-product scan of
  :mod:`repro.linalg.scan` — ``≈ 2√S`` batched GEMMs instead of ``S``
  sequential ones — and ``propagate`` reuses the same code path, so there
  is exactly one way a pulse is propagated anywhere in the package;
* the per-control contraction is fused through the kernel matrix
  ``K_k = V̄_k (Γ_k ∘ (V_k† G_k V_k)ᵀ) V_kᵀ`` so the expensive ``O(d³)``
  transforms happen once per *step* instead of once per *step × control*,
  and the per-control reduction collapses to one GEMM against the
  pre-flattened control operators;
* contraction plans — pre-reshaped operand layouts that turn every hot
  contraction into a batched BLAS matmul — are prepared in ``__init__``,
  so the optimizer's inner loop does no einsum path planning;
* per-pulse-length plans (:class:`_LengthPlan`), built on the first call
  at a given ``n_steps`` and kept for the four most recent lengths, hold
  everything that depends only on the length: the scan buffers and their
  per-step views, the identity, the sequential-or-blocked scan decision,
  and whether any regularization penalty applies.  At the sizes the
  workloads run (dim 4, a few slices) a call is a few dozen tiny numpy
  calls, so wrapper and setup work would otherwise cost as much as the
  arithmetic.

Bit-identity invariant
----------------------
Overhead cuts here must not change any floating-point operation, its
operand order, or any operand's memory layout: numpy's ``matmul`` picks
BLAS or its own loop (and BLAS its kernel) from the operand strides, so a
transposed view and a contiguous copy of the same matrix can round
differently.  The returned pulses are checked bit for bit — against the
frozen pre-plan kernel in ``tests/pulse/test_grape_kernel_regression.py``
and against the reference hashes of the repository benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GrapeError
from repro.linalg.expm import (
    _divided_differences,
    expm_hermitian,
    expm_hermitian_factorized,
)
from repro.linalg.scan import (
    ScanPlan,
    backward_partial_products,
    forward_partial_products,
)
from repro.pulse.hamiltonian import ControlSet, embed_target_unitary


@dataclass(frozen=True)
class RegularizationSettings:
    """Penalty weights for the "realistic pulses" mode (paper section 8.3).

    Attributes
    ----------
    amplitude_weight:
        L2 penalty on drive amplitudes (relative to each bound).
    slope_weight:
        L2 penalty on first differences — smooth first derivatives.
    curvature_weight:
        L2 penalty on second differences — smooth second derivatives.
    enforce_envelope:
        Force pulses to rise from and return to zero through a
        raised-cosine window (Gaussian-envelope-like shaping).
    """

    amplitude_weight: float = 0.0
    slope_weight: float = 0.0
    curvature_weight: float = 0.0
    enforce_envelope: bool = False

    @classmethod
    def realistic(cls) -> "RegularizationSettings":
        """The aggressive shaping used for Table 5's 'more realistic' rows."""
        return cls(
            amplitude_weight=1e-3,
            slope_weight=5e-3,
            curvature_weight=1e-3,
            enforce_envelope=True,
        )


class GrapeCost:
    """Evaluates the cost and gradient for fixed block/target/timestep."""

    def __init__(
        self,
        control_set: ControlSet,
        target: np.ndarray,
        dt_ns: float,
        regularization: RegularizationSettings | None = None,
    ):
        self.control_set = control_set
        self.dt_ns = float(dt_ns)
        if self.dt_ns <= 0:
            raise GrapeError(f"dt must be positive, got {dt_ns}")
        self.regularization = regularization or RegularizationSettings()

        n_qubits = len(control_set.qubits)
        dim_comp = 2**n_qubits
        if target.shape != (dim_comp, dim_comp):
            raise GrapeError(
                f"target shape {target.shape} does not match block of "
                f"{n_qubits} qubits"
            )
        # E: the target embedded with *zeros* outside the computational
        # subspace, so Tr(E† U) only scores the qubit block.
        embedded = embed_target_unitary(target, n_qubits, control_set.levels)
        if control_set.levels != 2:
            from repro.pulse.hamiltonian import computational_indices

            mask = np.zeros_like(embedded)
            idx = computational_indices(n_qubits, control_set.levels)
            mask[np.ix_(idx, idx)] = embedded[np.ix_(idx, idx)]
            embedded = mask
        self._target_embedded = embedded
        self._dim_comp = dim_comp

        # -- contraction plans, prepared once per cost object --------------
        # Control operators in the layouts the kernel consumes: a contiguous
        # complex stack for Hamiltonian assembly and a pre-flattened (c, d²)
        # matrix so the per-control gradient reduction is a single GEMM.
        # With these fixed layouts every hot contraction compiles to a
        # batched BLAS matmul, so no einsum path planning survives in the
        # iteration loop at all (the seed re-planned several per call).
        dim = self._dim = control_set.dim
        self._ops = np.ascontiguousarray(control_set.operators, dtype=complex)
        self._ops_flat = self._ops.reshape(self._ops.shape[0], dim * dim)
        self._e_dag = np.ascontiguousarray(embedded.conj().T)
        #: per-pulse-length plans keyed by n_steps (see :class:`_LengthPlan`).
        self._plans: dict = {}

    def _plan(self, n_steps: int) -> "_LengthPlan":
        """The prepared plan for ``n_steps`` slices, built on first use.

        The ADAM/L-BFGS loop calls ``cost_and_gradient`` hundreds of times
        with an unchanged length; the minimum-time search changes length
        per probe, so only the four most recent lengths are kept.
        """
        plan = self._plans.get(n_steps)
        if plan is None:
            if len(self._plans) >= 4:
                self._plans.clear()
            plan = self._plans[n_steps] = _LengthPlan(
                n_steps, self._dim, self.regularization
            )
        return plan

    # -- fidelity only (cheap path used for final verification) -----------
    def propagate(self, controls: np.ndarray) -> np.ndarray:
        """Total unitary produced by ``controls`` (shape (n_controls, n_steps))."""
        props = expm_hermitian(self._step_hamiltonians(controls), self.dt_ns)
        return forward_partial_products(props)[-1]

    def fidelity(self, controls: np.ndarray) -> float:
        overlap = np.trace(self._target_embedded.conj().T @ self.propagate(controls))
        return float(np.abs(overlap) ** 2 / self._dim_comp**2)

    # -- full cost + gradient ----------------------------------------------
    def cost_and_gradient(self, controls: np.ndarray) -> tuple:
        """Return ``(cost, gradient, fidelity)``.

        ``gradient`` has the same shape as ``controls``.
        """
        n_controls, n_steps = controls.shape
        if n_controls != self.control_set.num_controls:
            raise GrapeError(
                f"controls rows {n_controls} != channels {self.control_set.num_controls}"
            )
        dt = self.dt_ns
        dim = self._dim
        plan = self._plan(n_steps)

        # One shared propagator code path with ``propagate``: diagonalize
        # and exponentiate every time slice in a single stacked call.
        eigvals, eigvecs, phases, props = expm_hermitian_factorized(
            self._step_hamiltonians(controls), dt
        )

        # Forward partial products A_k = U_k … U_1 (A[0] = identity) and the
        # backward partial products with the target folded in — bwd[k] = E† B_k
        # where B_k = U_{N-1} … U_{k+1} (so bwd[N-1] = E†) — via the shared
        # prefix-product scan, into the plan's buffers.
        e_dag = self._e_dag
        forward = forward_partial_products(props, plan=plan.forward)
        bwd = backward_partial_products(
            props, e_dag, out=plan.bwd, plan=plan.backward
        )

        total = forward[n_steps]
        overlap = np.einsum("ij,ji->", e_dag, total) / self._dim_comp
        fidelity = float(np.abs(overlap) ** 2)

        # dz/du_ck = Tr(G_k · dU_k/du_ck) / d_comp with
        # G_k = A_{k-1} E† B_k   (z = Tr(E† B_k U_k A_{k-1}) / d_comp).
        g_mats = np.matmul(plan.forward_head, bwd)
        # All Loewner (divided-difference) matrices in one broadcasted call.
        gammas = _divided_differences(eigvals, phases, dt)

        # Fused per-control contraction.  With M_k = Γ_k ∘ (V_k† G_k V_k)ᵀ
        # the gradient overlap is Σ_ab (Op_c)_ab (K_k)_ab for the kernel
        # matrix K_k = V̄_k M_k V_kᵀ: the O(d³) transforms run once per step
        # (not per step × control) as batched GEMMs, and the per-control
        # reduction is one GEMM against the pre-flattened operators.
        vecs_t = eigvecs.transpose(0, 2, 1)
        vecs_conj = eigvecs.conj()
        # (V† G V)ᵀ = Vᵀ Gᵀ V̄, built directly in transposed form.
        g_eig_t = np.matmul(vecs_t, np.matmul(g_mats.transpose(0, 2, 1), vecs_conj))
        np.multiply(g_eig_t, gammas, out=g_eig_t)  # M_k, in place
        k_mats = np.matmul(vecs_conj, np.matmul(g_eig_t, vecs_t))
        overlap_grad = (
            self._ops_flat @ k_mats.reshape(n_steps, dim * dim).T
        ) / self._dim_comp
        grad_fidelity = 2.0 * np.real(np.conj(overlap) * overlap_grad)
        cost = 1.0 - fidelity
        gradient = -grad_fidelity

        if plan.regularized:
            reg_cost, reg_grad = self._regularization_terms(controls)
            return cost + reg_cost, gradient + reg_grad, fidelity
        # No penalty applies at this length: the terms would be 0.0 and a
        # zero array, and adding them still maps -0.0 to +0.0 — keep that.
        gradient += 0.0
        return cost + 0.0, gradient, fidelity

    # -- helpers ------------------------------------------------------------
    def _step_hamiltonians(self, controls: np.ndarray) -> np.ndarray:
        """Stack of per-slice Hamiltonians ``H_k = H_drift + Σ_c u_ck Op_c``.

        One GEMM against the pre-flattened control operators replaces the
        seed's 3-index einsum (which re-planned its path every call).
        """
        dim = self._dim
        hams = (controls.T @ self._ops_flat).reshape(-1, dim, dim)
        hams += self.control_set.drift
        return hams

    def _regularization_terms(self, controls: np.ndarray) -> tuple:
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


class _LengthPlan:
    """What ``GrapeCost.cost_and_gradient`` prepares once per pulse length.

    The forward scan (``n_steps`` propagators) and the transposed backward
    scan (``n_steps - 1``) each get a :class:`~repro.linalg.scan.ScanPlan`
    — output buffer, per-step views, identity and the sequential-or-blocked
    decision — plus the backward result buffer and whether any
    regularization penalty is non-zero at this length.
    """

    __slots__ = ("forward", "forward_head", "backward", "bwd", "regularized")

    def __init__(self, n_steps: int, dim: int, regularization: RegularizationSettings):
        self.forward = ScanPlan(n_steps, dim)
        self.forward_head = self.forward.out[:-1]
        self.backward = ScanPlan(n_steps - 1, dim)
        self.bwd = np.empty((n_steps, dim, dim), dtype=complex)
        self.regularized = (
            regularization.amplitude_weight > 0
            or (regularization.slope_weight > 0 and n_steps > 1)
            or (regularization.curvature_weight > 0 and n_steps > 2)
        )
