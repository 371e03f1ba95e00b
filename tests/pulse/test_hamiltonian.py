"""Unit tests for block Hamiltonian construction."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.linalg.operators import is_hermitian, pauli_matrix
from repro.pulse.device import GmonDevice
from repro.pulse.hamiltonian import (
    build_control_set,
    computational_indices,
    embed_target_unitary,
)
from repro.transpile.topology import line_topology


@pytest.fixture
def device():
    return GmonDevice(line_topology(3))


class TestControlSet:
    def test_operator_count(self, device):
        cs = build_control_set(device, [0, 1])
        # 2 charge + 2 flux + 1 coupler.
        assert cs.num_controls == 5
        assert cs.operators.shape == (5, 4, 4)

    def test_all_operators_hermitian(self, device):
        cs = build_control_set(device, [0, 1, 2])
        for op in cs.operators:
            assert is_hermitian(op)

    def test_charge_operator_is_x(self, device):
        cs = build_control_set(device, [0])
        charge = cs.operators[0]
        assert np.allclose(charge, pauli_matrix("X"))

    def test_flux_operator_is_number(self, device):
        cs = build_control_set(device, [0])
        flux = cs.operators[1]
        assert np.allclose(flux, np.diag([0, 1]))

    def test_coupling_operator_is_xx(self, device):
        cs = build_control_set(device, [0, 1])
        coupler = cs.operators[-1]
        assert np.allclose(coupler, pauli_matrix("XX"))

    def test_qubit_drift_is_zero(self, device):
        cs = build_control_set(device, [0, 1])
        assert np.allclose(cs.drift, 0.0)

    def test_qutrit_drift_has_anharmonicity(self):
        device = GmonDevice(line_topology(2), levels=3)
        cs = build_control_set(device, [0])
        # Anharmonicity term (α/2)·n(n-1): zero on |0>,|1>, α on |2>.
        assert np.isclose(cs.drift[2, 2].real, device.anharmonicity)
        assert np.isclose(cs.drift[0, 0], 0) and np.isclose(cs.drift[1, 1], 0)

    def test_qutrit_dimensions(self):
        device = GmonDevice(line_topology(2), levels=3)
        cs = build_control_set(device, [0, 1])
        assert cs.dim == 9

    def test_empty_block_rejected(self, device):
        with pytest.raises(DeviceError):
            build_control_set(device, [])

    def test_qubit_order_sorted(self, device):
        cs = build_control_set(device, [2, 0])
        assert cs.qubits == (0, 2)


class TestTargetEmbedding:
    def test_qubit_passthrough(self):
        target = pauli_matrix("X")
        assert np.allclose(embed_target_unitary(target, 1, 2), target)

    def test_qutrit_embedding_identity_on_leakage(self):
        target = pauli_matrix("X")
        embedded = embed_target_unitary(target, 1, 3)
        assert embedded.shape == (3, 3)
        assert np.isclose(embedded[2, 2], 1.0)
        assert np.allclose(embedded[:2, :2], target)

    def test_two_qubit_embedding_block(self):
        target = pauli_matrix("XZ")
        embedded = embed_target_unitary(target, 2, 3)
        idx = computational_indices(2, 3)
        assert np.allclose(embedded[np.ix_(idx, idx)], target)

    def test_computational_indices_qubit(self):
        assert list(computational_indices(2, 2)) == [0, 1, 2, 3]

    def test_computational_indices_qutrit(self):
        # Big-endian base-3 digits restricted to {0,1}: 00,01,10,11 -> 0,1,3,4.
        assert list(computational_indices(2, 3)) == [0, 1, 3, 4]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DeviceError):
            embed_target_unitary(np.eye(3), 1, 3)


class TestControlSetMemo:
    """build_control_set is memoized per process on content, never on the
    device object, and hands out read-only shared instances."""

    @pytest.mark.parametrize("levels", [2, 3])
    def test_memo_equals_a_fresh_build_byte_for_byte(self, levels):
        from repro.pulse.hamiltonian import _control_set

        device = GmonDevice(line_topology(3), levels=levels)
        cs = build_control_set(device, [0, 1])
        fresh = _control_set.__wrapped__(
            device.channel_layout((0, 1)), float(device.anharmonicity)
        )
        assert fresh is not cs
        for name in ("drift", "operators", "max_amplitudes"):
            a, b = getattr(cs, name), getattr(fresh, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert (cs.qubits, cs.levels, cs.channels) == (
            fresh.qubits,
            fresh.levels,
            fresh.channels,
        )

    def test_shared_instance_is_read_only(self, device):
        cs = build_control_set(device, [0, 1])
        assert build_control_set(device, [1, 0]) is cs
        for array in (cs.drift, cs.operators, cs.max_amplitudes):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
        with pytest.raises(AttributeError):
            cs.drift = np.zeros_like(cs.drift)

    def test_pickled_device_copies_share_one_control_set(self, device):
        import pickle

        first = pickle.loads(pickle.dumps(device))
        second = pickle.loads(pickle.dumps(device))
        assert first is not second
        assert build_control_set(first, [1, 2]) is build_control_set(second, [1, 2])
        assert build_control_set(first, [1, 2]) is build_control_set(device, [1, 2])

    @pytest.mark.parametrize(
        "changes",
        [
            {"max_charge": 0.5},
            {"max_flux": 5.0},
            {"max_coupling": 0.2},
            {"levels": 3},
            {"anharmonicity": -1.0},
        ],
    )
    def test_devices_that_differ_get_different_control_sets(self, changes):
        base = GmonDevice(line_topology(2))
        other = GmonDevice(line_topology(2), **changes)
        a = build_control_set(base, [0, 1])
        b = build_control_set(other, [0, 1])
        assert a is not b
        differs = [
            not np.array_equal(x, y) if x.shape == y.shape else True
            for x, y in (
                (a.max_amplitudes, b.max_amplitudes),
                (a.drift, b.drift),
                (a.operators, b.operators),
            )
        ]
        if "anharmonicity" not in changes:
            assert any(differs)

    def test_invalid_blocks_still_raise(self, device):
        with pytest.raises(DeviceError):
            build_control_set(device, [0, 7])
