#!/usr/bin/env python
"""Quickstart: one CompilationService, one circuit, every strategy.

Builds a QAOA MAXCUT circuit on the 4-node clique (the paper's Figure 2
workload), then compiles one parametrization through each registered
strategy of the ``repro.service`` facade and prints the paper's two
headline metrics side by side: pulse duration and runtime compilation
latency.  One service instance serves every request, so the strategies
share one block executor and one pulse cache.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import format_table, success_probability
from repro.pulse.device import GmonDevice
from repro.pulse.grape import GrapeHyperparameters, GrapeSettings
from repro.qaoa import maxcut_problem, qaoa_circuit
from repro.service import CompilationService, CompileRequest
from repro.transpile import line_topology, transpile


def main():
    # 1. A variational workload: QAOA MAXCUT on the 4-node clique, p=1.
    problem = maxcut_problem("clique", 4, seed=0)
    circuit = transpile(qaoa_circuit(problem, p=1))
    print(f"Workload: {circuit.name} — {circuit.num_qubits} qubits, "
          f"{len(circuit)} gates, {len(circuit.parameters)} parameters\n")

    # 2. One service: a gmon chip (paper Appendix A), fast GRAPE settings,
    #    and all the shared machinery behind one front door.
    service = CompilationService(
        device=GmonDevice(line_topology(4)),
        settings=GrapeSettings(dt_ns=0.25, target_fidelity=0.99),
        hyperparameters=GrapeHyperparameters(learning_rate=0.05,
                                             decay_rate=0.002,
                                             max_iterations=200),
    )

    # One iteration's angles, as the classical optimizer would supply them.
    theta = list(np.random.default_rng(1).uniform(0.2, 1.2, size=2))

    # 3. Compile with each strategy.  The uncached full-GRAPE request pays
    #    the paper's honest out-of-the-box latency; flexible partial
    #    compilation takes its tuning knobs through request options.
    strategies = [
        ("gate-based", CompileRequest(circuit, theta, strategy="gate")),
        ("step-function", CompileRequest(circuit, theta,
                                         strategy="step-function")),
        ("strict partial", CompileRequest(circuit, theta,
                                          strategy="strict-partial",
                                          max_block_width=3)),
        ("flexible partial", CompileRequest(
            circuit, theta, strategy="flexible-partial", max_block_width=3,
            options={"tuning_samples": 2, "learning_rates": (0.03, 0.1),
                     "decay_rates": (0.0, 0.01)})),
        ("full GRAPE", CompileRequest(circuit, theta, strategy="full-grape",
                                      max_block_width=3, use_cache=False)),
    ]
    results = {}
    with service:
        for label, request in strategies:
            results[label] = service.compile(request)

    # 4. Report against the gate-based baseline.
    gate_ns = results["gate-based"].pulse_duration_ns
    rows = []
    for label, result in results.items():
        precompute = (result.precompile_report.wall_time_s
                      if result.precompile_report is not None else 0.0)
        rows.append([
            label,
            result.pulse_duration_ns,
            gate_ns / result.pulse_duration_ns,
            result.runtime_latency_s * 1e3,
            precompute,
            success_probability(result.pulse_duration_ns) /
            success_probability(gate_ns),
        ])
    print(format_table(
        ["strategy", "pulse (ns)", "speedup", "runtime latency (ms)",
         "precompute (s)", "success gain"],
        rows,
        title="QAOA MAXCUT K4, p=1 — one variational iteration",
        precision=2,
    ))
    print("\nThe pattern the paper reports: GRAPE-quality pulse durations "
          "need either full GRAPE's runtime latency (untenable in the loop) "
          "or partial compilation's precompute + tiny runtime cost.")


if __name__ == "__main__":
    main()
