"""Block Hamiltonians for GRAPE.

Given a device and a block of qubits, builds the drift Hamiltonian and the
control operators on the block's (local) Hilbert space.  The block is
re-indexed to local qubits 0…k-1; GRAPE never sees the full chip, only the
block (paper section 5.2: circuits are partitioned into blocks of ≤4 qubits
before GRAPE).

Control sets are built once per process: :func:`build_control_set` keys a
memo on content (the block's channel layout and the anharmonicity), never
on the device object, so equal devices — a pickled copy included — share
one read-only :class:`ControlSet`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import DeviceError
from repro.linalg.operators import (
    annihilation_operator,
    creation_operator,
    embed_operator,
    number_operator,
)
from repro.pulse.device import ChannelLayout, ControlChannel, GmonDevice

#: Bound of the control-set memo.  A block of at most 4 qubits has at most
#: a few hundred distinct layouts per device, so this only guards
#: processes that sweep drive limits or devices.
CONTROL_SET_MEMO_MAX = 512


@dataclass(frozen=True)
class ControlSet:
    """Drift + control operators for one GRAPE block.

    Instances from :func:`build_control_set` are shared process-wide, so
    the dataclass is frozen and its arrays are read-only.

    Attributes
    ----------
    qubits:
        The device qubits of the block (sorted); local index ``i`` of every
        operator corresponds to ``qubits[i]``.
    levels:
        Hilbert-space truncation per site (2 or 3).
    drift:
        Time-independent Hamiltonian (rad/ns).
    channels:
        The device control channels (a tuple), aligned with ``operators``.
    operators:
        Array ``(n_controls, d, d)`` of Hermitian control operators.
    max_amplitudes:
        Per-channel drive bounds (rad/ns), aligned with ``operators``.
    """

    qubits: tuple
    levels: int
    drift: np.ndarray
    channels: tuple
    operators: np.ndarray
    max_amplitudes: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.max_amplitudes is None:
            object.__setattr__(
                self,
                "max_amplitudes",
                np.array([c.max_amplitude for c in self.channels]),
            )

    @property
    def num_controls(self) -> int:
        return len(self.channels)

    @property
    def dim(self) -> int:
        return self.levels ** len(self.qubits)


def build_control_set(device: GmonDevice, qubits: Sequence[int]) -> ControlSet:
    """The :class:`ControlSet` for a block of device qubits.

    Memoized per process on the block's
    :meth:`~repro.pulse.device.GmonDevice.channel_layout` (qubits, levels,
    and every channel with its amplitude bound) plus the anharmonicity, so
    equal devices share one read-only instance.
    """
    qubits = tuple(sorted(set(int(q) for q in qubits)))
    if not qubits:
        raise DeviceError("block must contain at least one qubit")
    return _control_set(device.channel_layout(qubits), float(device.anharmonicity))


@functools.lru_cache(maxsize=CONTROL_SET_MEMO_MAX)
def _control_set(layout: ChannelLayout, anharmonicity: float) -> ControlSet:
    qubits, levels, channels = layout
    n = len(qubits)
    local = {q: i for i, q in enumerate(qubits)}

    lower = annihilation_operator(levels)
    raise_ = creation_operator(levels)
    x_like = lower + raise_
    number = number_operator(levels)

    operators = []
    for channel in channels:
        if channel.kind == "charge":
            op = embed_operator(x_like, (local[channel.qubits[0]],), n, levels)
        elif channel.kind == "flux":
            op = embed_operator(number, (local[channel.qubits[0]],), n, levels)
        elif channel.kind == "coupling":
            a, b = channel.qubits
            op = embed_operator(
                np.kron(x_like, x_like), (local[a], local[b]), n, levels
            )
        else:
            raise DeviceError(f"unknown channel kind {channel.kind!r}")
        operators.append(op)

    dim = levels**n
    drift = np.zeros((dim, dim), dtype=complex)
    if levels == 3:
        # Transmon anharmonicity: (α/2) n (n-1) per site keeps |2> detuned.
        anham = 0.5 * anharmonicity * (number @ number - number)
        for q in qubits:
            drift += embed_operator(anham, (local[q],), n, levels)

    control_set = ControlSet(
        qubits=qubits,
        levels=levels,
        drift=drift,
        channels=tuple(channels),
        operators=np.array(operators),
    )
    for array in (
        control_set.drift, control_set.operators, control_set.max_amplitudes
    ):
        array.flags.writeable = False
    return control_set


def computational_indices(num_qubits: int, levels: int) -> np.ndarray:
    """Indices of the 2^n computational basis states inside the levels^n
    space (big-endian digits restricted to {0, 1})."""
    if levels == 2:
        return np.arange(2**num_qubits)
    idx = []
    for b in range(2**num_qubits):
        value = 0
        for bit_pos in range(num_qubits):
            bit = (b >> (num_qubits - 1 - bit_pos)) & 1
            value = value * levels + bit
        idx.append(value)
    return np.array(idx)


def embed_target_unitary(target: np.ndarray, num_qubits: int, levels: int) -> np.ndarray:
    """Embed a 2^n x 2^n target into the levels^n space (identity elsewhere).

    GRAPE's qutrit cost only scores the overlap on the computational
    subspace (see :mod:`repro.pulse.grape.cost`), which implicitly penalizes
    leakage into |2>; the identity block here is inert.
    """
    dim_small = 2**num_qubits
    if target.shape != (dim_small, dim_small):
        raise DeviceError(
            f"target shape {target.shape} does not match {num_qubits} qubits"
        )
    if levels == 2:
        return np.asarray(target, dtype=complex)
    dim = levels**num_qubits
    out = np.eye(dim, dtype=complex)
    idx = computational_indices(num_qubits, levels)
    out[np.ix_(idx, idx)] = target
    return out
