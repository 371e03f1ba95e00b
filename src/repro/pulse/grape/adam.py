"""ADAM optimizer with learning-rate decay.

The two knobs flexible partial compilation pre-tunes per subcircuit are
exactly this optimizer's ``learning_rate`` and ``decay_rate`` (paper
section 7.2).  The step size is expressed as a *fraction of each channel's
amplitude bound*, which makes one learning rate meaningful across charge
(0.63 rad/ns) and flux (9.4 rad/ns) channels simultaneously.
"""

from __future__ import annotations

import numpy as np


class AdamOptimizer:
    """Standard ADAM with ``lr_t = lr / (1 + decay · t)`` scheduling."""

    def __init__(
        self,
        learning_rate: float,
        decay_rate: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.learning_rate = float(learning_rate)
        self.decay_rate = float(decay_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def reset(self) -> None:
        """Clear the moment estimates and step counter."""
        self._m = None
        self._v = None
        self._t = 0

    def step(self, params: np.ndarray, gradient: np.ndarray, scale: np.ndarray | float = 1.0) -> np.ndarray:
        """One descent update; returns the new parameters.

        ``scale`` multiplies the step per row (per control channel); passing
        the amplitude bounds makes the learning rate dimensionless.  A 1-D
        array is one entry per row; a prepared ``(rows, 1)`` column is used
        as given.
        """
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
        if isinstance(scale, np.ndarray) and scale.ndim == 1:
            scale = scale[:, None]
        return params - lr * scale * direction
