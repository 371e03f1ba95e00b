"""The gmon device model (paper Appendix A).

Drive amplitudes are angular frequencies in rad/ns (1 GHz · 2π = 2π rad/ns):

* charge drive  ``H_c,j = Ω_c,j(t) (a†_j + a_j)``, ``|Ω_c| ≤ 2π·0.1``
* flux drive    ``H_f,j = Ω_f,j(t) (a†_j a_j)``,  ``|Ω_f| ≤ 2π·1.5``
* coupler       ``H_j,k = g(t) (a†_j + a_j)(a†_k + a_k)``, ``|g| ≤ 2π·0.05``

The 15x asymmetry between flux (Z-axis) and charge (X-axis) drives is the
"Control Field Asymmetries" speedup source of section 5.1.  For qutrit
simulations, the transmon anharmonicity gives the drift term
``(α/2)·n(n-1)`` per qubit, pushing the leakage level off resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import DeviceError
from repro.transpile.topology import Topology, nearly_square_grid

TWO_PI = 2.0 * math.pi

#: Paper Appendix A drive limits, in rad/ns.
MAX_CHARGE_AMP = TWO_PI * 0.1
MAX_FLUX_AMP = TWO_PI * 1.5
MAX_COUPLING_AMP = TWO_PI * 0.05

#: Representative transmon anharmonicity (rad/ns); only matters for levels=3.
DEFAULT_ANHARMONICITY = -TWO_PI * 0.2


@dataclass(frozen=True)
class ControlChannel:
    """One drivable control line.

    ``kind`` is ``"charge"``, ``"flux"``, or ``"coupling"``;  ``qubits`` are
    the device qubits it touches; ``max_amplitude`` is the drive bound in
    rad/ns.
    """

    kind: str
    qubits: tuple
    max_amplitude: float

    @property
    def name(self) -> str:
        inner = ",".join(str(q) for q in self.qubits)
        return f"{self.kind}[{inner}]"


class ChannelLayout(NamedTuple):
    """The control channels of one block, without any operators.

    ``qubits`` are the block's device qubits, sorted; ``levels`` the
    per-site truncation.  This is everything a pulse's physical cache
    context depends on (:func:`repro.core.cache.control_context_key`), so
    block identity can be keyed without building a Hamiltonian.
    """

    qubits: tuple
    levels: int
    channels: tuple


class GmonDevice:
    """A gmon chip: topology + drive limits + level truncation.

    Channel layouts are memoized per instance (:meth:`channel_layout`), so
    a device is treated as immutable once built.
    """

    def __init__(
        self,
        topology: Topology,
        levels: int = 2,
        max_charge: float = MAX_CHARGE_AMP,
        max_flux: float = MAX_FLUX_AMP,
        max_coupling: float = MAX_COUPLING_AMP,
        anharmonicity: float = DEFAULT_ANHARMONICITY,
    ):
        if levels not in (2, 3):
            raise DeviceError(f"levels must be 2 (qubit) or 3 (qutrit), got {levels}")
        self.topology = topology
        self.levels = levels
        self.max_charge = float(max_charge)
        self.max_flux = float(max_flux)
        self.max_coupling = float(max_coupling)
        self.anharmonicity = float(anharmonicity)
        self._layouts: dict = {}

    @classmethod
    def grid_for(cls, num_qubits: int, levels: int = 2) -> "GmonDevice":
        """The default device: the most-square grid covering ``num_qubits``."""
        return cls(nearly_square_grid(num_qubits), levels=levels)

    @property
    def num_qubits(self) -> int:
        return self.topology.num_qubits

    def channels_for(self, qubits: Sequence[int]) -> list:
        """Control channels available within the block ``qubits``.

        One charge + one flux channel per qubit, one coupler per edge of the
        induced connectivity subgraph.  If the block is not connected in the
        device graph (possible after loose blocking), consecutive qubits in
        sorted order are bridged so GRAPE always has an entangling resource —
        the substitution is logged in the channel list itself (couplers only
        exist between the listed pairs).
        """
        return list(self.channel_layout(qubits).channels)

    def channel_layout(self, qubits: Sequence[int]) -> ChannelLayout:
        """The :class:`ChannelLayout` of the block ``qubits`` (memoized)."""
        block = tuple(sorted(set(int(q) for q in qubits)))
        layout = self._layouts.get(block)
        if layout is None:
            # Threads that race here build equal layouts; setdefault keeps
            # the first, so every caller shares one object.
            layout = self._layouts.setdefault(
                block, ChannelLayout(block, self.levels, self._build_channels(block))
            )
        return layout

    def _build_channels(self, qubits: tuple) -> tuple:
        for q in qubits:
            if q < 0 or q >= self.num_qubits:
                raise DeviceError(f"qubit {q} outside device of size {self.num_qubits}")
        channels = []
        for q in qubits:
            channels.append(ControlChannel("charge", (q,), self.max_charge))
            channels.append(ControlChannel("flux", (q,), self.max_flux))
        edges = list(self.topology.subgraph_edges(qubits))
        if len(qubits) > 1 and not self.topology.is_connected_subset(qubits):
            existing = set(edges)
            for a, b in zip(qubits, qubits[1:]):
                if (a, b) not in existing:
                    edges.append((a, b))
        for a, b in sorted(edges):
            channels.append(ControlChannel("coupling", (a, b), self.max_coupling))
        return tuple(channels)

    # The layout memo is rebuilt on demand, so it does not travel with a
    # pickled device (every BlockJob carries one).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_layouts"] = {}
        return state

    def __repr__(self) -> str:
        return (
            f"GmonDevice({self.topology.name}, levels={self.levels}, "
            f"qubits={self.num_qubits})"
        )
