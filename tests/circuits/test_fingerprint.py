"""Satellite: content-fingerprint stability.

The fingerprint is the plan cache's key material, and will eventually key
on-disk state, so it must be stable across bindings of one ansatz (keyed
pre-binding), across pickling, and across process restarts — and must
separate structurally different circuits.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.circuits import Parameter, QuantumCircuit
from repro.qaoa import maxcut_problem, qaoa_circuit
from repro.transpile import transpile

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _ansatz():
    theta = Parameter("theta_0")
    phi = Parameter("theta_1")
    circuit = QuantumCircuit(3, name="ansatz")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(theta, 1)
    circuit.rx(phi / 2, 2)
    circuit.rzz(2 * theta, 1, 2)
    return circuit


class TestStability:
    def test_deterministic_across_calls(self):
        assert _ansatz().content_fingerprint() == _ansatz().content_fingerprint()

    def test_same_ansatz_different_bindings_same_key(self):
        """The symbolic ansatz keeps one key no matter what gets bound to it
        (plans are keyed on the pre-binding circuit)."""
        ansatz = _ansatz()
        before = ansatz.content_fingerprint()
        ansatz.bind_parameters([0.4, 0.9])
        ansatz.bind_parameters([1.1, -0.3])
        assert ansatz.content_fingerprint() == before

    def test_name_does_not_matter(self):
        a, b = _ansatz(), _ansatz()
        b.name = "renamed"
        assert a.content_fingerprint() == b.content_fingerprint()

    def test_survives_pickle(self):
        ansatz = _ansatz()
        clone = pickle.loads(pickle.dumps(ansatz))
        assert clone.content_fingerprint() == ansatz.content_fingerprint()

    def test_survives_process_restart(self):
        """A fresh interpreter computes the same digest — no dependence on
        hash randomization or object identity."""
        ansatz = _ansatz()
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from tests.circuits.test_fingerprint import _ansatz\n"
            "print(_ansatz().content_fingerprint())"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", script, SRC],
            capture_output=True,
            text=True,
            check=True,
            cwd=str(Path(__file__).resolve().parents[2]),
            env=env,
        )
        assert out.stdout.strip() == ansatz.content_fingerprint()

    def test_qaoa_workload_fingerprint_is_stable(self):
        problem = maxcut_problem("clique", 4, seed=0)
        a = transpile(qaoa_circuit(problem, p=1))
        b = transpile(qaoa_circuit(problem, p=1))
        assert a.content_fingerprint() == b.content_fingerprint()


class TestSeparation:
    def test_different_gate(self):
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).h(0).cz(0, 1)
        assert a.content_fingerprint() != b.content_fingerprint()

    def test_different_qubits(self):
        a = QuantumCircuit(3).cx(0, 1)
        b = QuantumCircuit(3).cx(0, 2)
        assert a.content_fingerprint() != b.content_fingerprint()

    def test_different_width(self):
        a = QuantumCircuit(2).h(0)
        b = QuantumCircuit(3).h(0)
        assert a.content_fingerprint() != b.content_fingerprint()

    def test_different_numeric_angle(self):
        """Bound angles are content: rz(0.3) and rz(0.7) have different
        unitaries, so they must never share a plan."""
        a = QuantumCircuit(1).rz(0.3, 0)
        b = QuantumCircuit(1).rz(0.7, 0)
        assert a.content_fingerprint() != b.content_fingerprint()

    def test_different_parameter_skeleton(self):
        theta = Parameter("theta_0")
        a = QuantumCircuit(1).rz(theta, 0)
        b = QuantumCircuit(1).rz(2 * theta, 0)
        c = QuantumCircuit(1).rz(Parameter("theta_1"), 0)
        keys = {
            a.content_fingerprint(),
            b.content_fingerprint(),
            c.content_fingerprint(),
        }
        assert len(keys) == 3

    def test_gate_order_matters(self):
        a = QuantumCircuit(2).h(0).x(1)
        b = QuantumCircuit(2).x(1).h(0)
        assert a.content_fingerprint() != b.content_fingerprint()

    def test_binding_changes_the_bound_circuits_key(self):
        """Two different bindings are different content (their plans would
        cache different dedup keys); only the symbolic parent is shared."""
        ansatz = _ansatz()
        a = ansatz.bind_parameters([0.4, 0.9])
        b = ansatz.bind_parameters([1.1, -0.3])
        assert a.content_fingerprint() != b.content_fingerprint()
        assert a.content_fingerprint() != ansatz.content_fingerprint()


class TestCachedKeys:
    """The fingerprint and the parameter tuple are computed once per
    circuit, and ``append`` — the one mutator — drops both."""

    def test_append_refreshes_fingerprint_and_parameters(self):
        circuit = _ansatz()
        before = circuit.content_fingerprint()
        assert circuit.parameters == (Parameter("theta_0"), Parameter("theta_1"))
        extra = Parameter("theta_2")
        circuit.ry(extra, 0)
        rebuilt = _ansatz()
        rebuilt.ry(extra, 0)
        assert circuit.content_fingerprint() != before
        assert circuit.content_fingerprint() == rebuilt.content_fingerprint()
        assert circuit.parameters == rebuilt.parameters
        assert circuit.parameters[-1] == extra

    def test_copy_and_compose_do_not_share_the_cache(self):
        circuit = _ansatz()
        key = circuit.content_fingerprint()
        grown = circuit.compose(_ansatz())
        copied = circuit.copy()
        copied.h(2)
        assert circuit.content_fingerprint() == key
        assert len({key, grown.content_fingerprint(), copied.content_fingerprint()}) == 3

    def test_circuit_built_without_init_computes_its_keys(self):
        """An unpickled circuit from before the cache existed carries no
        cache attributes; it falls back to computing them."""
        circuit = _ansatz()
        bare = QuantumCircuit.__new__(QuantumCircuit)
        bare.__dict__.update(
            num_qubits=circuit.num_qubits,
            name=circuit.name,
            _instructions=list(circuit),
        )
        assert bare.content_fingerprint() == circuit.content_fingerprint()
        assert bare.parameters == circuit.parameters
        clone = pickle.loads(pickle.dumps(circuit))
        clone.h(0)
        assert clone.content_fingerprint() != circuit.content_fingerprint()
