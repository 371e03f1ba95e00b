"""The recorded paper outputs in ``benchmarks/paper_expected.json``.

The Table 4 and Figure 7 benches assert equality with that record; the
GRAPE-backed columns depend on the numpy/scipy build it names, so only the
paper-outputs CI job checks them.  The gate-based column is plain gate-time
arithmetic over the routed benchmark circuits, so it is checked here on
every build: a change to transpilation, routing or gate timing that moves a
Table 4 baseline fails tier-1, not just the paper benches.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.service import CompilationService, CompileRequest, ServiceConfig

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
RECORD = json.loads((BENCH_DIR / "paper_expected.json").read_text())

#: Table 4's default scope: the tags ``bench_table4_pulse_durations.py``
#: collects when ``REPRO_BENCH_FULL`` is unset.
DEFAULT_SCOPE = {
    "H2",
    "LiH",
    "qaoa_3regular_n6_p1",
    "qaoa_3regular_n6_p5",
    "qaoa_erdosrenyi_n6_p1",
    "qaoa_erdosrenyi_n6_p5",
}
STRATEGIES = ("gate", "strict", "flexible", "grape")


@pytest.fixture(scope="module")
def common():
    spec = importlib.util.spec_from_file_location(
        "paper_bench_common", BENCH_DIR / "common.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def service(common):
    with CompilationService(
        config=ServiceConfig(executor="serial"),
        settings=common.SETTINGS,
        hyperparameters=common.HYPER,
    ) as service:
        yield service


def _bench_circuit(common, tag):
    if not tag.startswith("qaoa_"):
        return common.vqe_circuit(tag)
    _, kind, nodes, depth = tag.split("_")
    return common.qaoa_bench_circuit(kind, int(nodes[1:]), int(depth[1:]))


def test_record_covers_the_default_scope():
    assert set(RECORD["benchmarks"]) == DEFAULT_SCOPE
    assert RECORD["numpy"] and RECORD["scipy"]
    for tag, row in RECORD["benchmarks"].items():
        assert set(row) == {*STRATEGIES, "grape_iterations", "flexible_iterations"}
        for key in ("grape_iterations", "flexible_iterations"):
            assert isinstance(row[key], int) and row[key] > 0, (tag, key)
        # Table 4's shape holds in the record itself.
        assert 0 < row["grape"] <= row["flexible"] <= row["strict"] <= row["gate"], tag


@pytest.mark.parametrize("tag", sorted(DEFAULT_SCOPE))
def test_gate_duration_matches_record(common, service, tag):
    circuit = _bench_circuit(common, tag)
    result = service.compile(
        CompileRequest(
            circuit,
            common.random_parameters(circuit),
            strategy="gate",
            max_block_width=common.MAX_BLOCK_WIDTH,
        )
    ).compiled
    assert result.pulse_duration_ns == pytest.approx(
        RECORD["benchmarks"][tag]["gate"], rel=0, abs=1e-9
    )
