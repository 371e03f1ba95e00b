"""Circuit → unitary matrix construction.

GRAPE's input is the full unitary of a (sub)circuit (paper section 5:
"the unitary matrix of the targeted quantum circuit must be specified as
input").  We build it by embedding each gate matrix and multiplying; cost is
``O(gates · 4^n)``, fine for the ≤4-qubit blocks GRAPE consumes.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.errors import CircuitError
from repro.linalg.operators import embed_operator

#: The identity on 0 and 1 spectator qubits as one row, the right factor
#: of :func:`embed_operator`'s outer product.
_SPECTATOR_ROWS = (np.eye(1, dtype=complex), np.eye(2, dtype=complex).reshape(1, 4))

#: Reverses the two sites of a 4x4 operator's rows or columns.
_SWAP = np.array([0, 2, 1, 3])


def _embedded(matrix: np.ndarray, qubits: tuple, num_qubits: int) -> np.ndarray:
    """``embed_operator(matrix, qubits, num_qubits)`` for a 1- or 2-qubit
    circuit, bit for bit.

    The same outer product (one ``np.dot`` of a column by a row, as
    :func:`numpy.tensordot` with ``axes=0`` computes it) followed by a fixed
    reordering of sites, without the general path's permutation setup.
    """
    outer = np.dot(
        matrix.reshape(-1, 1), _SPECTATOR_ROWS[num_qubits - len(qubits)]
    )
    if len(qubits) == num_qubits:
        full = outer.reshape(matrix.shape)
        return full[_SWAP][:, _SWAP] if qubits[0] == 1 else full
    # Axes (gate out, gate in, spectator out, spectator in) → site order.
    tensor = outer.reshape(2, 2, 2, 2)
    axes = (0, 2, 1, 3) if qubits[0] == 0 else (2, 0, 3, 1)
    return tensor.transpose(axes).reshape(4, 4)


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """The ``2^n x 2^n`` unitary implemented by a fully bound circuit."""
    if circuit.is_parameterized():
        unbound = sorted(p.name for p in circuit.parameters)
        raise CircuitError(f"cannot build unitary with unbound parameters {unbound}")
    num_qubits = circuit.num_qubits
    unitary = np.eye(2**num_qubits, dtype=complex)
    for inst in circuit:
        if num_qubits <= 2:
            full = _embedded(inst.gate.matrix(), tuple(inst.qubits), num_qubits)
        else:
            full = embed_operator(inst.gate.matrix(), inst.qubits, num_qubits)
        unitary = full @ unitary
    return unitary
