"""Table 5 — GRAPE speedups under realistic pulse constraints.

The paper re-ran the H2 VQE benchmark and the N=3 Erdős–Rényi QAOA
benchmark with three realism upgrades: 1 GSa/s sampling (1 pulse point per
ns instead of 20), qutrit leakage modelling, and aggressive pulse
regularization (Gaussian envelope + smooth derivatives).  Speedups drop
(11.4x → 8.8x for H2; 4.5x → 3.0x for QAOA) but remain significant.

Here "standard" = the harness defaults; "realistic" = dt 1.0 ns, 3-level
qutrits, envelope + derivative regularization.
"""

import pytest

import common
from repro.analysis import format_table
from repro.circuits.dag import critical_path_ns
from repro.pulse.device import GmonDevice
from repro.pulse.grape import GrapeHyperparameters, GrapeSettings
from repro.pulse.grape.cost import RegularizationSettings
from repro.qaoa import maxcut_problem, qaoa_circuit
from repro.service import CompilationService, CompileRequest, ServiceConfig
from repro.transpile import transpile
from repro.transpile.topology import nearly_square_grid

PAPER = {
    # benchmark -> (standard speedup, realistic speedup)
    "H2": (11.4, 8.8),
    "qaoa_er_n3": (4.5, 3.0),
}

STANDARD = GrapeSettings(dt_ns=0.25, target_fidelity=0.99)
REALISTIC = GrapeSettings(
    dt_ns=1.0,  # 1 GSa/s
    target_fidelity=0.99,
    regularization=RegularizationSettings.realistic(),
)
HYPER = GrapeHyperparameters(
    learning_rate=0.05, decay_rate=0.002,
    max_iterations=600 if common.FULL_MODE else 300,
)


def _workloads():
    h2 = common.vqe_circuit("H2")
    problem = maxcut_problem("erdosrenyi", 3, seed=0)
    qaoa = transpile(qaoa_circuit(problem, 1),
                     topology=nearly_square_grid(3))
    qaoa.bench_topology = nearly_square_grid(3)
    return {"H2": h2, "qaoa_er_n3": qaoa}


def _speedup(circuit, settings, levels):
    topology = getattr(circuit, "bench_topology", None) or nearly_square_grid(
        circuit.num_qubits
    )
    theta = common.random_parameters(circuit)
    bound = circuit.bind_parameters(theta)
    with CompilationService(
        config=ServiceConfig(),
        device=GmonDevice(topology, levels=levels),
        settings=settings,
        hyperparameters=HYPER,
    ) as service:
        result = service.compile(
            CompileRequest(
                bound,
                strategy="full-grape",
                max_block_width=2 if levels == 3 else common.MAX_BLOCK_WIDTH,
            )
        ).compiled
    gate_ns = critical_path_ns(bound)
    return gate_ns / result.pulse_duration_ns, result.pulse_duration_ns, gate_ns


def _collect():
    rows = []
    for tag, circuit in _workloads().items():
        std_x, std_ns, gate_ns = _speedup(circuit, STANDARD, levels=2)
        real_x, real_ns, _ = _speedup(circuit, REALISTIC, levels=3)
        paper_std, paper_real = PAPER[tag]
        rows.append([
            tag, gate_ns, std_ns, std_x, paper_std, real_ns, real_x, paper_real,
        ])
    return rows


def test_table5_realistic_settings(benchmark, capsys):
    rows = benchmark.pedantic(_collect, rounds=1, iterations=1)
    text = format_table(
        ["benchmark", "gate (ns)", "std GRAPE (ns)", "std x", "paper",
         "realistic (ns)", "realistic x", "paper"],
        rows,
        title="Table 5: GRAPE speedups, standard vs realistic settings",
        precision=2,
    )
    common.report("table5_realistic", text, capsys)
    for row in rows:
        tag, _, _, std_x, _, _, real_x, _ = row
        # Both settings must beat gate-based...
        assert std_x > 1.2, tag
        assert real_x > 1.0, tag
        # ...and realism costs some — but not all — of the speedup.
        assert real_x <= std_x * 1.2, tag
