"""Global configuration for the reproduction.

The paper's experiments consumed over 200,000 CPU-core-hours; this
reproduction must run on a laptop.  The :class:`Preset` mechanism scales the
GRAPE workload (time resolution, iteration budget, block width) while keeping
the algorithms identical.  Every knob the presets control is also exposed as
an explicit argument on the relevant API, so presets are a convenience, not a
hidden dependency.

Presets
-------
``ci``
    Default.  Coarse 0.2 ns time steps, modest iteration budgets, 2-3 qubit
    blocks.  The full benchmark suite completes in minutes.
``paper``
    The paper's settings: 0.05 ns steps, 99.9 % fidelity target, 4-qubit
    blocks, generous iteration budgets.  Hours of compute.

Select a preset with the ``REPRO_PRESET`` environment variable or
:func:`set_preset`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.service.config import (  # re-exported for backwards compatibility
    CACHE_SHARD_CHOICES,
    EXECUTOR_CHOICES,
    ServiceConfig,
)

#: Basis-gate pulse durations in nanoseconds (paper Table 1).  Gate-based
#: compilation runtimes throughout the library are indexed to these values.
GATE_DURATIONS_NS = {
    "rz": 0.4,
    "rx": 2.5,
    "ry": 2.9,  # Rz(pi/2)-Rx(theta)-Rz(-pi/2): 0.4 + 2.5 (Rz pair merged once scheduled)
    "h": 1.4,
    "x": 2.5,
    "y": 2.9,
    "z": 0.4,
    "s": 0.4,
    "sdg": 0.4,
    "t": 0.4,
    "tdg": 0.4,
    "cx": 3.8,
    "cz": 3.8,
    "swap": 7.4,
    "iswap": 5.0,
    "rzz": 4.6,  # CX-Rz-CX with the Rz absorbed into the echo
    "measure": 0.0,
    "barrier": 0.0,
    "id": 0.0,
}

#: GRAPE convergence target used by the paper: 99.9 % gate fidelity.
TARGET_FIDELITY = 0.999

#: Precision of the binary search for minimum pulse time (paper section 5.3).
TIME_SEARCH_PRECISION_NS = 0.3


@dataclass(frozen=True)
class Preset:
    """A bundle of workload-scaling knobs for GRAPE-heavy code paths.

    Attributes
    ----------
    name:
        Preset identifier (``"ci"`` or ``"paper"``).
    dt_ns:
        Width of each piecewise-constant control slice, in nanoseconds.
    max_iterations:
        ADAM iteration budget per GRAPE run.
    max_block_qubits:
        Maximum width of a GRAPE block produced by circuit aggregation.
    target_fidelity:
        Fidelity at which a GRAPE run is declared converged.
    time_search_precision_ns:
        Binary-search precision for the minimum-time search.
    """

    name: str
    dt_ns: float
    max_iterations: int
    max_block_qubits: int
    target_fidelity: float
    time_search_precision_ns: float


_PRESETS = {
    "ci": Preset(
        name="ci",
        dt_ns=0.2,
        max_iterations=300,
        max_block_qubits=3,
        target_fidelity=0.995,
        time_search_precision_ns=0.5,
    ),
    "paper": Preset(
        name="paper",
        dt_ns=0.05,
        max_iterations=3000,
        max_block_qubits=4,
        target_fidelity=TARGET_FIDELITY,
        time_search_precision_ns=TIME_SEARCH_PRECISION_NS,
    ),
}

# All REPRO_* environment reading routes through ServiceConfig.from_env().
# The preset is the one process-wide setting: every other field reaches the
# layers below the service by value.
_active_preset_name = ServiceConfig.from_env().preset


def available_presets() -> tuple:
    """Return the names of all registered presets."""
    return tuple(sorted(_PRESETS))


def get_preset(name: str | None = None) -> Preset:
    """Return the preset called ``name``, or the active preset if ``None``."""
    key = _active_preset_name if name is None else name
    try:
        return _PRESETS[key]
    except KeyError:
        raise ReproError(
            f"unknown preset {key!r}; available: {available_presets()}"
        ) from None


def set_preset(name: str) -> Preset:
    """Make ``name`` the active preset and return it."""
    global _active_preset_name
    preset = get_preset(name)
    _active_preset_name = preset.name
    return preset
