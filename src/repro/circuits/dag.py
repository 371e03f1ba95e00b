"""Dependency-graph view of a circuit.

The DAG orders instructions by qubit data dependencies.  It backs the
ASAP scheduler (critical-path runtimes in paper Tables 2/3), the blocking
pass, and the slicing analyses.
"""

from __future__ import annotations

from typing import Callable

import networkx as nx

from repro.circuits.circuit import QuantumCircuit
from repro.config import GATE_DURATIONS_NS
from repro.errors import CircuitError


class CircuitDag:
    """Directed acyclic dependency graph over instruction indices.

    Node ``i`` is instruction ``circuit[i]``; an edge ``i -> j`` means ``j``
    uses a qubit last written by ``i``.
    """

    def __init__(self, circuit: QuantumCircuit):
        self.circuit = circuit
        self.graph = nx.DiGraph()
        last_on_qubit: dict[int, int] = {}
        for idx, inst in enumerate(circuit):
            self.graph.add_node(idx)
            for q in inst.qubits:
                if q in last_on_qubit:
                    self.graph.add_edge(last_on_qubit[q], idx)
                last_on_qubit[q] = idx

    def predecessors(self, idx: int):
        return self.graph.predecessors(idx)

    def successors(self, idx: int):
        return self.graph.successors(idx)

    def topological_order(self) -> list:
        return list(nx.topological_sort(self.graph))

    def layers(self) -> list:
        """ASAP layers: lists of instruction indices with equal logical depth."""
        level: dict[int, int] = {}
        for idx in self.topological_order():
            preds = list(self.graph.predecessors(idx))
            level[idx] = 1 + max((level[p] for p in preds), default=-1)
        out: list[list[int]] = []
        for idx, lv in sorted(level.items()):
            while len(out) <= lv:
                out.append([])
            out[lv].append(idx)
        return out

    def weighted_critical_path(self, weight: Callable[[int], float]) -> float:
        """Length of the longest path with node weights ``weight(idx)``."""
        finish: dict[int, float] = {}
        for idx in self.topological_order():
            start = max(
                (finish[p] for p in self.graph.predecessors(idx)), default=0.0
            )
            finish[idx] = start + weight(idx)
        return max(finish.values(), default=0.0)


def circuit_layers(circuit: QuantumCircuit) -> list:
    """ASAP instruction layers of ``circuit`` (lists of `Instruction`)."""
    dag = CircuitDag(circuit)
    return [[circuit[i] for i in layer] for layer in dag.layers()]


def critical_path_ns(circuit: QuantumCircuit) -> float:
    """Gate-based runtime of ``circuit`` in nanoseconds.

    This is the paper's "Gate-Based Runtime": the critical path through the
    parallel-scheduled circuit, with each gate weighted by its Table 1 pulse
    duration.

    One linear ASAP sweep over the instructions, tracking the finish time
    of the last gate on each qubit.  That last gate is exactly the
    instruction's DAG predecessor on that qubit, so the sweep takes the
    same ``max`` over the same predecessor finish times and adds the same
    weight as :meth:`CircuitDag.weighted_critical_path`: the two agree
    float for float, without building a graph.
    """
    qubit_finish: dict[int, float] = {}
    longest = 0.0
    for inst in circuit:
        name = inst.gate.name
        try:
            weight = GATE_DURATIONS_NS[name]
        except KeyError:
            raise CircuitError(f"no pulse duration for gate {name!r}") from None
        start = max(
            (qubit_finish[q] for q in inst.qubits if q in qubit_finish),
            default=0.0,
        )
        finish = start + weight
        for q in inst.qubits:
            qubit_finish[q] = finish
        longest = max(longest, finish)
    return longest
