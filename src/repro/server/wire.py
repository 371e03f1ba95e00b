"""JSON wire codecs for the HTTP compilation frontend.

Everything that crosses the network travels as JSON built from four
codecs: circuits, GRAPE settings, requests, and results.  Two properties
are load-bearing:

* **Fingerprint stability** — the circuit encoding covers exactly what
  :meth:`~repro.circuits.QuantumCircuit.content_fingerprint` hashes (gate
  names, qubit tuples, numeric angles by exact value, symbolic angles by
  their parameter skeleton), and JSON round-trips Python floats through
  ``repr`` bit-exactly.  A decoded circuit therefore has the *same*
  content fingerprint as the one the client built, so the server hits the
  same plan-cache, scheduler-state, and pulse-library slots an in-process
  caller would — which is also what makes client retries safe: a
  re-delivered request is idempotent by fingerprint.
* **Bit-identical results** — pulse schedules encode every control
  sample as a Python float, which JSON round-trips through ``repr``, so
  the controls a client decodes are bit-for-bit the controls the service
  compiled.

The format is versioned (:data:`WIRE_VERSION`); a server refuses requests
from a client speaking a different version with a clear 400 rather than
guessing.
"""

from __future__ import annotations

from dataclasses import fields

from repro.errors import ReproError


class WireError(ReproError):
    """A payload that cannot be decoded (maps to HTTP 400)."""


#: Bump when any codec's layout changes; requests carry it and the server
#: rejects mismatches.
WIRE_VERSION = 1


def _require(data: dict, key: str, kind, what: str):
    """One checked field access with a decode-friendly error message."""
    if not isinstance(data, dict) or key not in data:
        raise WireError(f"{what} is missing required field {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise WireError(
            f"{what} field {key!r} has type {type(value).__name__}, "
            f"expected {getattr(kind, '__name__', kind)}"
        )
    return value


# -- angles ----------------------------------------------------------------
def _encode_angle(angle) -> list:
    """One gate angle as a tagged JSON list.

    Mirrors :func:`repro.circuits.parameters.angle_token`: constants by
    exact float value, parameters by (name, index), expressions by their
    full linear skeleton — so decoding preserves the fingerprint token.
    """
    from repro.circuits.parameters import Parameter, ParameterExpression

    if isinstance(angle, Parameter):
        return ["p", angle.name, angle.index]
    if isinstance(angle, ParameterExpression):
        coeffs = sorted(
            (p.name, p.index, float(c)) for p, c in angle._coeffs.items()
        )
        return ["e", [list(item) for item in coeffs], float(angle._const)]
    return ["c", float(angle)]


def _decode_angle(data, parameters: dict):
    """Inverse of :func:`_encode_angle`.

    ``parameters`` interns one :class:`Parameter` per (name, index) across
    the whole circuit, matching how a locally-built ansatz shares its
    parameter objects between gates.
    """
    from repro.circuits.parameters import Parameter, ParameterExpression

    if not isinstance(data, list) or not data:
        raise WireError(f"bad angle encoding: {data!r}")
    tag = data[0]
    try:
        if tag == "c":
            return float(data[1])
        if tag == "p":
            name, index = data[1], int(data[2])
            return parameters.setdefault((name, index), Parameter(name, index))
        if tag == "e":
            coeffs = {}
            for name, index, coeff in data[1]:
                param = parameters.setdefault(
                    (name, int(index)), Parameter(name, int(index))
                )
                coeffs[param] = float(coeff)
            return ParameterExpression(coeffs, float(data[2]))
    except (TypeError, ValueError, IndexError) as exc:
        raise WireError(f"bad angle encoding {data!r}: {exc}") from None
    raise WireError(f"unknown angle tag {tag!r}")


# -- circuits --------------------------------------------------------------
def encode_circuit(circuit) -> dict:
    """A :class:`~repro.circuits.QuantumCircuit` as a JSON-safe dict."""
    return {
        "width": circuit.num_qubits,
        "name": circuit.name,
        "gates": [
            {
                "gate": inst.gate.name,
                "qubits": list(inst.qubits),
                "params": [_encode_angle(p) for p in inst.gate.params],
            }
            for inst in circuit
        ],
    }


def decode_circuit(data: dict):
    """Inverse of :func:`encode_circuit`; raises :class:`WireError` on any
    malformed payload (unknown gate, bad qubit indices, bad angles)."""
    from repro.circuits.circuit import QuantumCircuit
    from repro.circuits.gates import gate_from_name
    from repro.errors import CircuitError

    width = _require(data, "width", int, "circuit")
    if width < 1:
        raise WireError(f"circuit width must be >= 1, got {width}")
    gates = _require(data, "gates", list, "circuit")
    name = data.get("name") or "remote"
    circuit = QuantumCircuit(width, name=str(name))
    parameters: dict = {}
    for entry in gates:
        gate_name = _require(entry, "gate", str, "gate entry")
        qubits = _require(entry, "qubits", list, "gate entry")
        params = [
            _decode_angle(p, parameters) for p in entry.get("params", [])
        ]
        try:
            circuit.append(
                gate_from_name(gate_name, params),
                tuple(int(q) for q in qubits),
            )
        except (CircuitError, TypeError, ValueError) as exc:
            raise WireError(f"bad gate entry {entry!r}: {exc}") from None
    return circuit


# -- GRAPE settings --------------------------------------------------------
def encode_settings(settings) -> dict | None:
    """A :class:`~repro.pulse.grape.GrapeSettings` as a flat JSON dict
    (regularization fields inlined under a sub-dict)."""
    if settings is None:
        return None
    payload = {
        "dt_ns": settings.dt_ns,
        "target_fidelity": settings.target_fidelity,
        "seed": settings.seed,
        "plateau_patience": settings.plateau_patience,
        "plateau_tolerance": settings.plateau_tolerance,
        "regularization": {
            f.name: getattr(settings.regularization, f.name)
            for f in fields(settings.regularization)
        },
    }
    return payload


def decode_settings(data: dict | None):
    if data is None:
        return None
    from repro.pulse.grape.cost import RegularizationSettings
    from repro.pulse.grape.engine import GrapeSettings

    if not isinstance(data, dict):
        raise WireError(f"settings must be an object, got {data!r}")
    weights = data.get("regularization") or {}
    if not isinstance(weights, dict):
        raise WireError(f"regularization must be an object, got {weights!r}")
    try:
        regularization = RegularizationSettings(
            **{str(k): v for k, v in weights.items()}
        )
        known = {
            key: data[key]
            for key in (
                "dt_ns",
                "target_fidelity",
                "seed",
                "plateau_patience",
                "plateau_tolerance",
            )
            if key in data
        }
        return GrapeSettings(regularization=regularization, **known)
    except (TypeError, ValueError) as exc:
        raise WireError(f"bad settings payload: {exc}") from None


def encode_hyperparameters(hyper) -> dict | None:
    if hyper is None:
        return None
    return {
        "learning_rate": hyper.learning_rate,
        "decay_rate": hyper.decay_rate,
        "max_iterations": hyper.max_iterations,
        "optimizer": hyper.optimizer,
    }


def decode_hyperparameters(data: dict | None):
    if data is None:
        return None
    from repro.errors import GrapeError
    from repro.pulse.grape.engine import GrapeHyperparameters

    if not isinstance(data, dict):
        raise WireError(f"hyperparameters must be an object, got {data!r}")
    try:
        return GrapeHyperparameters(
            **{
                key: data[key]
                for key in (
                    "learning_rate",
                    "decay_rate",
                    "max_iterations",
                    "optimizer",
                )
                if key in data
            }
        )
    except (TypeError, ValueError, GrapeError) as exc:
        raise WireError(f"bad hyperparameters payload: {exc}") from None


# -- requests --------------------------------------------------------------
def encode_request(request) -> dict:
    """A :class:`~repro.service.CompileRequest` as the ``POST /v1/compile``
    body (minus transport concerns like the sync/ticket mode)."""
    values = request.normalized_values()
    if isinstance(values, dict):
        raise WireError(
            "mapping-form values are not wire-encodable; bind by "
            "parameter-index order (a list) for remote compilation"
        )
    return {
        "wire_version": WIRE_VERSION,
        "circuit": encode_circuit(request.circuit),
        "values": None if values is None else [float(v) for v in values],
        "strategy": request.strategy,
        "settings": encode_settings(request.settings),
        "hyperparameters": encode_hyperparameters(request.hyperparameters),
        "max_block_width": request.max_block_width,
        "use_cache": request.use_cache,
        "options": dict(request.options),
    }


#: Options that carry live objects (pass managers, lookup tables) stay
#: server-side; a request trying to send one gets a clear 400.
_UNWIRABLE_OPTIONS = ("pass_manager", "table")


def decode_request(data: dict):
    """The inverse of :func:`encode_request`: a validated
    :class:`~repro.service.CompileRequest`."""
    from repro.service.requests import CompileRequest

    if not isinstance(data, dict):
        raise WireError("request body must be a JSON object")
    version = data.get("wire_version", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: request speaks {version!r}, "
            f"this server speaks {WIRE_VERSION}"
        )
    circuit = decode_circuit(_require(data, "circuit", dict, "request"))
    strategy = _require(data, "strategy", str, "request")
    values = data.get("values")
    if values is not None:
        if not isinstance(values, list):
            raise WireError(
                f"request values must be a list or null, got {values!r}"
            )
        try:
            values = [float(v) for v in values]
        except (TypeError, ValueError) as exc:
            raise WireError(f"bad values payload: {exc}") from None
    options = data.get("options") or {}
    if not isinstance(options, dict):
        raise WireError(f"request options must be an object, got {options!r}")
    for name in _UNWIRABLE_OPTIONS:
        if name in options:
            raise WireError(
                f"option {name!r} carries a live object and cannot be sent "
                "over the wire; configure it server-side"
            )
    max_block_width = data.get("max_block_width")
    if max_block_width is not None and not isinstance(max_block_width, int):
        raise WireError(
            f"max_block_width must be an integer or null, "
            f"got {max_block_width!r}"
        )
    try:
        return CompileRequest(
            circuit=circuit,
            values=values,
            strategy=strategy,
            settings=decode_settings(data.get("settings")),
            hyperparameters=decode_hyperparameters(data.get("hyperparameters")),
            max_block_width=max_block_width,
            use_cache=bool(data.get("use_cache", True)),
            options=dict(options),
        )
    except ReproError as exc:
        raise WireError(str(exc)) from None


# -- results ---------------------------------------------------------------
def _json_safe(value):
    """Best-effort JSON projection of metadata values (drop what isn't)."""
    import numpy as np

    if isinstance(value, (str, bool, type(None))):
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {
            str(k): _json_safe(v)
            for k, v in value.items()
            if _json_encodable(v)
        }
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value if _json_encodable(v)]
    return repr(value)


def _json_encodable(value) -> bool:
    import numpy as np

    return isinstance(
        value,
        (str, bool, int, float, dict, list, tuple, type(None), np.integer, np.floating),
    )


def _encode_schedule(schedule) -> dict:
    return {
        "qubits": list(schedule.qubits),
        "dt_ns": schedule.dt_ns,
        "controls_shape": list(schedule.controls.shape),
        # float(x) keeps each sample a Python float; json round-trips those
        # via repr, so decoded controls are bit-identical.
        "controls": [float(x) for x in schedule.controls.ravel()],
        "channel_names": list(schedule.channel_names),
        "source": schedule.source,
    }


def _decode_schedule(data: dict):
    import numpy as np

    from repro.pulse.schedule import PulseSchedule

    controls = np.array(data["controls"], dtype=float).reshape(
        tuple(data["controls_shape"])
    )
    return PulseSchedule(
        qubits=tuple(data["qubits"]),
        dt_ns=data["dt_ns"],
        controls=controls,
        channel_names=tuple(data["channel_names"]),
        source=data["source"],
    )


def encode_compiled(compiled) -> dict | None:
    """A :class:`~repro.core.results.CompiledPulse`, program included.

    Schedules use a repr-float encoding, so decoded controls are
    bit-identical; the program is re-sequenced ASAP from the same
    schedule order, which reproduces the original placement exactly
    (sequencing is deterministic in that order).
    """
    if compiled is None:
        return None
    return {
        "method": compiled.method,
        "schedules": [
            _encode_schedule(schedule) for schedule in compiled.program.schedules
        ],
        "pulse_duration_ns": compiled.pulse_duration_ns,
        "runtime_latency_s": compiled.runtime_latency_s,
        "runtime_iterations": compiled.runtime_iterations,
        "blocks_compiled": compiled.blocks_compiled,
        "cache_hits": compiled.cache_hits,
        "metadata": _json_safe(compiled.metadata),
    }


def decode_compiled(data: dict | None):
    from repro.core.results import CompiledPulse
    from repro.pulse.schedule import PulseProgram

    if data is None:
        return None
    try:
        program = PulseProgram.sequence(
            _decode_schedule(entry) for entry in data["schedules"]
        )
        return CompiledPulse(
            method=data["method"],
            program=program,
            pulse_duration_ns=data["pulse_duration_ns"],
            runtime_latency_s=data["runtime_latency_s"],
            runtime_iterations=data["runtime_iterations"],
            blocks_compiled=data["blocks_compiled"],
            cache_hits=data["cache_hits"],
            metadata=data.get("metadata") or {},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad compiled-pulse payload: {exc}") from None


def encode_report(report) -> dict | None:
    """A :class:`~repro.core.results.PrecompileReport` (numbers only)."""
    if report is None:
        return None
    return {
        "method": report.method,
        "wall_time_s": report.wall_time_s,
        "grape_iterations": report.grape_iterations,
        "blocks_precompiled": report.blocks_precompiled,
        "parametrized_blocks": report.parametrized_blocks,
        "cache_hits": report.cache_hits,
        "hyperopt_trials": report.hyperopt_trials,
        "executor": report.executor,
        "cache_stats": _json_safe(report.cache_stats),
        "metadata": _json_safe(report.metadata),
    }


def decode_report(data: dict | None):
    from repro.core.results import PrecompileReport

    if data is None:
        return None
    try:
        return PrecompileReport(
            method=data["method"],
            wall_time_s=data["wall_time_s"],
            grape_iterations=data["grape_iterations"],
            blocks_precompiled=data["blocks_precompiled"],
            parametrized_blocks=data.get("parametrized_blocks", 0),
            cache_hits=data.get("cache_hits", 0),
            hyperopt_trials=data.get("hyperopt_trials", 0),
            executor=data.get("executor", "serial"),
            cache_stats=data.get("cache_stats") or {},
            metadata=data.get("metadata") or {},
        )
    except (KeyError, TypeError) as exc:
        raise WireError(f"bad precompile-report payload: {exc}") from None


def encode_result(result) -> dict:
    """A :class:`~repro.service.CompileResult` as the compile response body.

    The originating request is *not* echoed (the client already has it),
    and plan compilers (``result.compiler``) stay server-side — a
    precompile-only response reports that via ``has_compiler`` instead.
    """
    return {
        "wire_version": WIRE_VERSION,
        "strategy": result.strategy,
        "compiled": encode_compiled(result.compiled),
        "precompile_report": encode_report(result.precompile_report),
        "has_compiler": result.compiler is not None,
        "wall_time_s": result.wall_time_s,
    }


def decode_result(data: dict, request=None):
    """Rebuild a :class:`~repro.service.CompileResult` client-side,
    attaching the client's own ``request`` object for correlation."""
    from repro.service.requests import CompileResult

    if not isinstance(data, dict):
        raise WireError("result body must be a JSON object")
    try:
        return CompileResult(
            request=request,
            strategy=data["strategy"],
            compiled=decode_compiled(data.get("compiled")),
            precompile_report=decode_report(data.get("precompile_report")),
            compiler=None,
            wall_time_s=data.get("wall_time_s", 0.0),
        )
    except KeyError as exc:
        raise WireError(f"result payload is missing {exc}") from None
