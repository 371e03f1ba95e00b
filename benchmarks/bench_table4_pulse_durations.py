"""Table 4 — pulse durations across all four compilation strategies.

The paper's headline table: for every VQE molecule and QAOA benchmark,
pulse durations under gate-based, strict partial, flexible partial, and
full GRAPE compilation.  The reproduction targets the *shape*:

    gate ≥ strict ≥ flexible, GRAPE ≤ strict,

with strict recovering most of the VQE speedup (deep Fixed blocks) and
flexible ≈ GRAPE on QAOA.

Default scope: H2 + LiH and the N=6 QAOA p ∈ {1, 5} benchmarks; there
every duration must also equal the one recorded in
``benchmarks/paper_expected.json`` to 1e-9 ns.  ``REPRO_BENCH_FULL=1``
runs the paper's full set.
"""

import pytest

import common
from repro.analysis import SpeedupRow, format_table


def _collect():
    results = {}
    for name in common.VQE_MOLECULES:
        # H2O strict/flexible precompiles are hours of GRAPE; keep the two
        # largest molecules gate+strict-only unless in full mode.
        methods = ("gate", "strict", "flexible", "grape")
        results[name] = common.durations_for(name, common.vqe_circuit(name), methods)
    for kind in common.QAOA_KINDS:
        for n in common.QAOA_SIZES:
            for p in common.QAOA_P_VALUES:
                tag = f"qaoa_{kind}_n{n}_p{p}"
                circuit = common.qaoa_bench_circuit(kind, n, p)
                results[tag] = common.durations_for(tag, circuit)
    return results


def test_table4_pulse_durations(benchmark, capsys):
    results = benchmark.pedantic(_collect, rounds=1, iterations=1)
    rows = []
    for tag, record in results.items():
        paper = common.PAPER_TABLE4_NS.get(tag, {})
        rows.append([
            tag,
            record.get("gate"), paper.get("gate"),
            record.get("strict"), paper.get("strict"),
            record.get("flexible"), paper.get("flexible"),
            record.get("grape"), paper.get("grape"),
        ])
    text = format_table(
        ["benchmark", "gate", "paper", "strict", "paper", "flex", "paper",
         "grape", "paper"],
        rows,
        title="Table 4: pulse durations (ns), measured vs paper",
        precision=1,
    )
    common.report("table4_pulse_durations", text, capsys)

    for tag, record in results.items():
        row = SpeedupRow(
            tag,
            record["gate"],
            record.get("strict"),
            record.get("flexible"),
            record.get("grape"),
        )
        assert row.ordering_holds(tolerance_ns=1.5), (tag, record)
        # GRAPE delivers a real speedup on every benchmark.
        assert record["grape"] < record["gate"], tag

    expected = common.expected_paper_outputs()
    if expected is not None:
        assert set(results) == set(expected)
        for tag, record in results.items():
            for method in ("gate", "strict", "flexible", "grape"):
                assert record[method] == pytest.approx(
                    expected[tag][method], rel=0, abs=1e-9
                ), (tag, method, record[method], expected[tag][method])
