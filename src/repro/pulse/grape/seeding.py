"""Analytic warm-start seeds for GRAPE and the warm-start telemetry.

Cold GRAPE starts from smooth random fields.  For a two-qubit block on the
standard gmon channel set (per-qubit charge ``X`` and flux ``N`` drives
plus one ``XX`` coupler) an *analytic* starting point exists: the Cartan
decomposition of :mod:`repro.transpile.kak` factors any target into

    ``U = e^{iφ} (A₀⊗A₁) · K(x, y, z) · (B₀⊗B₁)``,
    ``K = exp(i (x·XX + y·YY + z·ZZ))``,

and every factor maps directly onto the device's native interactions:

* ``YY`` and ``ZZ`` conjugate into the native ``XX`` through local
  Cliffords — ``Y = Rz(π/2) X Rz(-π/2)`` and ``Z = Ry(-π/2) X Ry(π/2)`` —
  so ``K`` becomes three coupler segments with fixed local layers between
  them;
* each local layer splits per qubit via ZYZ Euler angles into
  flux–charge–flux segments (``Ry(γ) = Rz(π/2) Rx(γ) Rz(-π/2)``, so only
  native ``Rz``-via-flux and ``Rx``-via-charge drives appear).

With the propagator convention ``U_k = exp(-i dt H_k)`` the channel areas
are ``∫u dt = -φ`` for a flux ``Rz(φ)`` (``exp(-iuτN) ≅ Rz(-uτ)`` up to
phase), ``∫u dt = θ/2`` for a charge ``Rx(θ)``, and ``∫u dt = -c`` for a
coupler ``exp(i c·XX)``.  The resulting piecewise-constant waveform is
time-dilated onto the requested pulse duration (areas preserved exactly:
durations scale by ``s``, amplitudes by ``1/s``) and rasterized
area-preservingly onto the uniform step grid.  Rasterization smearing and
amplitude clipping make this a *seed*, not a solution — GRAPE refines it,
and the compiler's best-of guard discards it if it ever loses to the cold
start.
"""

from __future__ import annotations

import math

import numpy as np

from repro.perf import get_perf_registry
from repro.pulse.grape.controls import clip_controls
from repro.pulse.hamiltonian import ControlSet
from repro.pulse.schedule import PulseSchedule

__all__ = ["kak_seed_controls", "kak_seed_schedule", "warm_start_telemetry"]

_EPS_ANGLE = 1e-9


def _wrap_pi(angle: float) -> float:
    """Wrap to (-π, π] so rotation segments take the short way around."""
    return -((-angle + math.pi) % (2 * math.pi) - math.pi)


def _channel_layout(control_set: ControlSet):
    """Per-qubit charge/flux channel indices plus the coupler index.

    Returns ``(charge, flux, coupling)`` with ``charge[i]``/``flux[i]`` the
    channel index driving local qubit ``i``; ``None`` when the block does
    not expose the full standard two-qubit layout.
    """
    if len(control_set.qubits) != 2 or control_set.levels != 2:
        return None
    local = {q: i for i, q in enumerate(control_set.qubits)}
    charge = [None, None]
    flux = [None, None]
    coupling = None
    for idx, channel in enumerate(control_set.channels):
        if channel.kind == "charge":
            charge[local[channel.qubits[0]]] = idx
        elif channel.kind == "flux":
            flux[local[channel.qubits[0]]] = idx
        elif channel.kind == "coupling":
            coupling = idx
    if None in charge or None in flux or coupling is None:
        return None
    return charge, flux, coupling


def _local_layer_segments(p0, p1, charge, flux, zyz):
    """Flux–charge–flux sub-segments realizing ``p0 ⊗ p1`` (global phase
    dropped: the GRAPE cost is phase-invariant)."""
    angles = [zyz(p0), zyz(p1)]  # (alpha, beta, gamma, delta) per qubit
    first_rz = [_wrap_pi(a[3] - math.pi / 2) for a in angles]
    rx = [a[2] for a in angles]
    last_rz = [_wrap_pi(a[1] + math.pi / 2) for a in angles]
    segments = []
    for layer, channels, area_of in (
        (first_rz, flux, lambda phi: -phi),
        (rx, charge, lambda theta: theta / 2.0),
        (last_rz, flux, lambda phi: -phi),
    ):
        areas = {
            channels[q]: area_of(layer[q])
            for q in (0, 1)
            if abs(area_of(layer[q])) > _EPS_ANGLE
        }
        if areas:
            segments.append(areas)
    return segments


def kak_seed_controls(
    control_set: ControlSet, target: np.ndarray, num_steps: int, dt_ns: float
) -> np.ndarray | None:
    """An analytic control array seeding GRAPE for a two-qubit target.

    Returns ``(n_controls, num_steps)`` controls whose propagator
    approximates ``target`` (exactly, up to rasterization smearing, when
    the requested duration can fit the decomposition within the amplitude
    bounds), or ``None`` when the block lacks the standard two-qubit
    channel layout or the decomposition fails.
    """
    layout = _channel_layout(control_set)
    if layout is None or num_steps < 1:
        return None
    charge, flux, coupling = layout
    target = np.asarray(target, dtype=complex)
    if target.shape != (4, 4):
        return None
    try:
        from repro.transpile.kak import kak_decompose, zyz_angles

        decomp = kak_decompose(target)
    except Exception:
        return None

    rz_half = np.array(
        [[np.exp(-0.25j * math.pi), 0], [0, np.exp(0.25j * math.pi)]]
    )
    c = math.cos(math.pi / 4)
    ry_half = np.array([[c, -c], [c, c]], dtype=complex)

    # Time order (rightmost factor of U acts first):
    #   (Ry(π/2)·B) locals, XX(z), (Rz(-π/2)Ry(-π/2)) locals, XX(y),
    #   Rz(π/2) locals, XX(x), A locals.
    segments: list = []  # each: {channel_index: required area u·τ}
    segments += _local_layer_segments(
        ry_half @ decomp.k2_q0, ry_half @ decomp.k2_q1, charge, flux, zyz_angles
    )
    mid = rz_half.conj().T @ ry_half.conj().T
    for coeff, locals_after in (
        (decomp.z, (mid, mid)),
        (decomp.y, (rz_half, rz_half)),
        (decomp.x, (decomp.k1_q0, decomp.k1_q1)),
    ):
        if abs(coeff) > _EPS_ANGLE:
            segments.append({coupling: -coeff})
        segments += _local_layer_segments(
            locals_after[0], locals_after[1], charge, flux, zyz_angles
        )

    bounds = np.asarray(control_set.max_amplitudes, dtype=float)
    controls = np.zeros((control_set.num_controls, num_steps))
    timed = []  # (min_duration, areas)
    for areas in segments:
        min_duration = max(abs(a) / bounds[ch] for ch, a in areas.items())
        if min_duration > _EPS_ANGLE:
            timed.append((min_duration, areas))
    if not timed:
        return controls  # target is (locally) trivial: a zero seed is exact
    natural = sum(d for d, _ in timed)
    total = num_steps * dt_ns
    # Dilate onto the requested duration; areas are preserved exactly.  A
    # duration shorter than the decomposition's natural length compresses
    # amplitudes past their bounds — the final clip degrades the seed
    # gracefully instead of failing.
    scale = total / natural
    t = 0.0
    for min_duration, areas in timed:
        duration = min_duration * scale
        t_end = t + duration
        # Area-preserving rasterization: each grid cell integrates the
        # piecewise-constant waveform overlapping it.
        k0 = int(t / dt_ns)
        k1 = min(num_steps - 1, int((t_end - 1e-12) / dt_ns))
        for ch, area in areas.items():
            amp = area / duration
            for k in range(k0, k1 + 1):
                overlap = min(t_end, (k + 1) * dt_ns) - max(t, k * dt_ns)
                if overlap > 0:
                    controls[ch, k] += amp * overlap / dt_ns
        t = t_end
    return clip_controls(controls, bounds)


def kak_seed_schedule(
    control_set: ControlSet, target: np.ndarray, num_steps: int, dt_ns: float
) -> PulseSchedule | None:
    """:func:`kak_seed_controls` wrapped as a :class:`PulseSchedule`."""
    controls = kak_seed_controls(control_set, target, num_steps, dt_ns)
    if controls is None:
        return None
    return PulseSchedule(
        qubits=control_set.qubits,
        dt_ns=dt_ns,
        controls=controls,
        channel_names=tuple(ch.name for ch in control_set.channels),
        source="kak-seed",
    )


def warm_start_telemetry() -> dict:
    """JSON-ready snapshot of the ``grape.warm_start.*`` perf counters and
    of ``grape.time_search.abandoned*``."""
    perf = get_perf_registry()
    seeded = perf.counter("grape.warm_start.seeded_iterations")
    cold = perf.counter("grape.warm_start.cold_rerun_iterations")
    return {
        "lookups": perf.counter("grape.warm_start.lookups"),
        "neighbor_seeds": perf.counter("grape.warm_start.neighbor_seeds"),
        "kak_seeds": perf.counter("grape.warm_start.kak_seeds"),
        "no_seed": perf.counter("grape.warm_start.no_seed"),
        "accepted": perf.counter("grape.warm_start.accepted"),
        "rejected": perf.counter("grape.warm_start.rejected"),
        "seeded_iterations": seeded,
        "cold_rerun_iterations": cold,
        "healed_entries": perf.counter("grape.warm_start.healed"),
        # Descent probes (run only from a seed) that gave up early.
        "abandoned_descents": perf.counter("grape.time_search.abandoned"),
        "abandoned_iterations": perf.counter(
            "grape.time_search.abandoned_iterations"
        ),
    }
