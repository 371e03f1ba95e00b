"""Limited-memory BFGS optimizer for GRAPE control fields.

The paper notes the control fields may be updated "with an optimizer such
as ADAM or L-BFGS-B" (section 7.2).  This is the second of those: a
two-loop-recursion L-BFGS with the same stateful ``step`` interface as
:class:`repro.pulse.grape.adam.AdamOptimizer`, so the engine can swap
optimizers through ``GrapeHyperparameters.optimizer``.

Instead of a full Wolfe line search (which would need extra cost
evaluations per iteration — expensive, since each costs a full time
propagation), the quasi-Newton direction is applied with the same decayed
learning-rate schedule ADAM uses; amplitude bounds are enforced by the
engine's clipping, mirroring the "-B" box constraints.
"""

from __future__ import annotations

from collections import deque

import numpy as np


class LBFGSOptimizer:
    """L-BFGS with ``lr_t = lr / (1 + decay · t)`` scheduling.

    Parameters
    ----------
    learning_rate:
        Step length applied to the quasi-Newton direction, as a fraction
        of each channel's amplitude bound (identical semantics to ADAM's
        learning rate so one tuned value is meaningful for both).
    decay_rate:
        Hyperbolic learning-rate decay per step.
    memory:
        Number of curvature pairs kept for the two-loop recursion.
    """

    def __init__(
        self,
        learning_rate: float,
        decay_rate: float = 0.0,
        memory: int = 12,
    ):
        self.learning_rate = float(learning_rate)
        self.decay_rate = float(decay_rate)
        self.memory = int(memory)
        self._pairs: deque = deque(maxlen=self.memory)
        self._prev_params: np.ndarray | None = None
        self._prev_gradient: np.ndarray | None = None
        self._t = 0

    def reset(self) -> None:
        """Clear the curvature-pair memory and step counter."""
        self._pairs.clear()
        self._prev_params = None
        self._prev_gradient = None
        self._t = 0

    def _direction(self, gradient: np.ndarray) -> np.ndarray:
        """Two-loop recursion: approximate ``H · g`` (descent direction)."""
        q = gradient.copy()
        alphas = []
        for s, y, rho in reversed(self._pairs):
            alpha = rho * (s @ q)
            q -= alpha * y
            alphas.append(alpha)
        if self._pairs:
            s, y, _ = self._pairs[-1]
            gamma = (s @ y) / (y @ y)
        else:
            # First step: scale so the initial move has gradient-descent
            # magnitude comparable to ADAM's unit-normalized step.
            norm = np.linalg.norm(gradient)
            gamma = 1.0 / norm if norm > 0 else 1.0
        r = gamma * q
        for (s, y, rho), alpha in zip(self._pairs, reversed(alphas)):
            beta = rho * (y @ r)
            r += s * (alpha - beta)
        return r

    def step(
        self,
        params: np.ndarray,
        gradient: np.ndarray,
        scale: np.ndarray | float = 1.0,
    ) -> np.ndarray:
        """One quasi-Newton update; returns the new parameters.

        ``scale`` carries the per-channel amplitude bounds, as a 1-D array
        or a prepared ``(rows, 1)`` column (same semantics as the ADAM
        optimizer).  Internally the recursion runs in the
        bound-normalized space ``x = params / scale`` — per-row scaling of
        the raw direction would break the curvature-pair geometry.
        """
        if isinstance(scale, np.ndarray) and scale.ndim == 1:
            scale = scale[:, None]
        x = (params / scale).ravel().astype(float)
        # Chain rule: d/dx = scale · d/dparams.
        g = (gradient * scale).ravel().astype(float)
        if self._prev_params is not None:
            s = x - self._prev_params
            y = g - self._prev_gradient
            sy = s @ y
            # Keep only pairs satisfying the curvature condition, so the
            # implicit Hessian approximation stays positive definite.
            if sy > 1e-12:
                self._pairs.append((s, y, 1.0 / sy))
        self._prev_params = x
        self._prev_gradient = g
        self._t += 1

        direction = self._direction(g).reshape(params.shape)
        lr = self.learning_rate / (1.0 + self.decay_rate * self._t)
        return (x.reshape(params.shape) - lr * direction) * scale
