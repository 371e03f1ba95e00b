"""Extension: step-function lookup vs flat lookup vs partial compilation.

The paper's related-work section (§3) notes that experimental gate-based
systems already use angle-dependent pulse decompositions — Barends et
al.'s five-range ``U(ϕ)`` table, McKay et al.'s virtual-Z gates — rather
than one fixed pulse per gate.  This bench positions that practice between
the paper's two poles: the step-function table keeps gate-based
compilation's zero latency and shaves duration on rotation-heavy
parametrizations, but still leaves most of the GRAPE gap that strict
partial compilation closes.
"""

import numpy as np
import pytest

import common
from repro.analysis import format_table


def _workloads():
    rows = []
    for molecule in common.VQE_MOLECULES:
        rows.append((f"VQE {molecule}", common.vqe_circuit(molecule)))
    for kind in common.QAOA_KINDS:
        rows.append(
            (f"QAOA {kind} N=6 p=1", common.qaoa_bench_circuit(kind, 6, 1))
        )
    return rows


@pytest.mark.benchmark(group="ext-stepfunction")
def test_stepfunction_vs_flat_lookup(benchmark):
    """Durations under flat vs step-function lookup at two angle regimes."""
    workloads = _workloads()

    def duration(circuit, values, strategy):
        return common.compile_values(circuit, values, strategy).pulse_duration_ns

    def run():
        rows = []
        for name, circuit in workloads:
            n = len(circuit.parameters)
            rng = np.random.default_rng(0)
            small = list(rng.uniform(-0.2, 0.2, size=n))
            generic = list(rng.uniform(-np.pi, np.pi, size=n))
            rows.append(
                (
                    name,
                    duration(circuit, generic, "gate"),
                    duration(circuit, generic, "step-function"),
                    duration(circuit, small, "step-function"),
                )
            )
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    table = []
    for name, flat_ns, step_ns, step_small_ns in rows:
        # The step table never loses to the flat table (ranges ≤ Table 1),
        # and near-zero parametrizations (early variational iterations
        # often start there) benefit the most.
        assert step_ns <= flat_ns + 1e-9
        assert step_small_ns <= step_ns + 1e-9
        table.append(
            (
                name,
                f"{flat_ns:.1f}",
                f"{step_ns:.1f}",
                f"{step_small_ns:.1f}",
                f"{flat_ns / step_small_ns if step_small_ns else float('inf'):.2f}x",
            )
        )
    text = format_table(
        (
            "benchmark", "flat lookup (ns)", "step fn (ns)",
            "step fn, small θ (ns)", "best-case gain",
        ),
        table,
        title="Extension: angle-dependent (step-function) lookup compilation",
    )
    print(text)
    common.report("ext_stepfunction", text)
