"""Matrix exponentials of Hermitian generators, vectorized and differentiable.

GRAPE propagates ``U_k = exp(-i dt H_k)`` for hundreds of time slices per
gradient step.  Two facts make this fast and exact:

* ``numpy.linalg.eigh`` accepts stacked matrices ``(..., d, d)``, so all time
  slices are diagonalized in one call.
* In the eigenbasis of ``H``, the Fréchet (directional) derivative of
  ``f(H) = exp(-i dt H)`` along a perturbation ``V`` has the closed form
  ``V_eig ∘ Γ`` where ``Γ_ij = (f(λ_i) - f(λ_j)) / (λ_i - λ_j)`` (divided
  differences, with the diagonal given by ``f'(λ_i)``).  This gives *exact*
  analytic gradients — no small-``dt`` approximation — matching the
  "gradients computed analytically" methodology of the paper's GRAPE
  implementation [Leung et al. 2017].
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


def expm_hermitian_factorized(
    hamiltonians: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalize and exponentiate one or a stack of Hermitian matrices.

    This is the single propagator code path shared by
    :func:`expm_hermitian` and the GRAPE kernel
    (:meth:`repro.pulse.grape.cost.GrapeCost.cost_and_gradient`): callers
    that also need the eigendecomposition — e.g. for the Fréchet gradient
    in the per-step eigenbasis — get it without a second ``eigh``.

    Parameters
    ----------
    hamiltonians:
        Array of shape ``(d, d)`` or ``(n, d, d)``; each matrix must be
        Hermitian.
    dt:
        Time-step scale factor.

    Returns
    -------
    tuple
        ``(eigvals, eigvecs, phases, unitaries)`` where ``phases`` is
        ``exp(-1j dt eigvals)`` and ``unitaries = V diag(phases) V†``,
        all batched over the leading shape of the input.
    """
    h = np.asarray(hamiltonians, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ReproError(f"expected square matrices, got shape {h.shape}")
    eigvals, eigvecs = np.linalg.eigh(h)
    phases = np.exp(-1j * dt * eigvals)
    # V diag(phases) V† as two GEMM-shaped ops: scale columns, then one
    # batched matmul (faster than a 3-operand einsum for stacked inputs).
    # Conjugate the contiguous array and transpose as a view so BLAS takes
    # the transpose flag instead of numpy materializing a strided copy.
    unitaries = (eigvecs * phases[..., None, :]) @ eigvecs.conj().swapaxes(-1, -2)
    return eigvals, eigvecs, phases, unitaries


def expm_hermitian(hamiltonians: np.ndarray, dt: float) -> np.ndarray:
    """Compute ``exp(-1j * dt * H)`` for one or a stack of Hermitian ``H``.

    Parameters
    ----------
    hamiltonians:
        Array of shape ``(d, d)`` or ``(n, d, d)``; each matrix must be
        Hermitian.
    dt:
        Time-step scale factor.

    Returns
    -------
    numpy.ndarray
        Unitaries with the same leading shape as the input.
    """
    return expm_hermitian_factorized(hamiltonians, dt)[3]


def expm_hermitian_frechet(
    hamiltonian: np.ndarray,
    directions: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exponential and its exact Fréchet derivatives along ``directions``.

    Computes ``U = exp(-1j dt H)`` together with ``dU/ds`` for each direction
    ``D`` in ``directions``, where ``H(s) = H + s D``.

    Parameters
    ----------
    hamiltonian:
        Hermitian matrix of shape ``(d, d)``.
    directions:
        Array of shape ``(m, d, d)``; each Hermitian perturbation direction.
    dt:
        Time-step scale factor.

    Returns
    -------
    tuple
        ``(U, dU)`` with ``U`` of shape ``(d, d)`` and ``dU`` of shape
        ``(m, d, d)``.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    dirs = np.asarray(directions, dtype=complex)
    if dirs.ndim == 2:
        dirs = dirs[None]
    eigvals, eigvecs = np.linalg.eigh(h)
    phases = np.exp(-1j * dt * eigvals)
    unitary = (eigvecs * phases) @ eigvecs.conj().T

    gamma = _divided_differences(eigvals, phases, dt)
    # Transform each direction into the eigenbasis, apply the Loewner mask,
    # and transform back: dU = V ((V† D V) ∘ Γ) V†.
    d_eig = np.einsum("ji,mjk,kl->mil", eigvecs.conj(), dirs, eigvecs, optimize=True)
    d_eig *= gamma
    derivative = np.einsum("ij,mjk,lk->mil", eigvecs, d_eig, eigvecs.conj(), optimize=True)
    return unitary, derivative


def _divided_differences(eigvals: np.ndarray, phases: np.ndarray, dt: float) -> np.ndarray:
    """Loewner matrices of divided differences for ``f(x) = exp(-1j dt x)``.

    Off-diagonal: ``(f(λ_i) - f(λ_j)) / (λ_i - λ_j)``; diagonal (and nearly
    degenerate pairs): ``f'(λ) = -1j dt f(λ)``.

    Accepts a single spectrum ``(d,)`` or a stack ``(..., d)`` — the GRAPE
    kernel batches every time slice of a pulse through one call — and
    returns matrices of shape ``(..., d, d)``.
    """
    eigvals = np.asarray(eigvals)
    phases = np.asarray(phases)
    diff = eigvals[..., :, None] - eigvals[..., None, :]
    gamma = phases[..., :, None] - phases[..., None, :]
    # Mask near-degenerate pairs where the quotient is numerically unstable,
    # then divide and patch in place — this runs once per GRAPE iteration on
    # an (n_steps, d, d) stack, so avoiding np.where temporaries matters.
    degenerate = np.abs(diff) < 1e-12
    np.copyto(diff, 1.0, where=degenerate)
    gamma /= diff
    # Broadcast f'(λ_i) onto degenerate pairs (exact in the limit λ_i -> λ_j).
    derivative_diag = -1j * dt * phases
    np.copyto(gamma, derivative_diag[..., :, None], where=degenerate)
    return gamma
