"""Approximate-match neighbor index: metadata, search, healing, freeze."""

import numpy as np
import pytest

from repro.core.cache import PersistentPulseCache, PulseCache, _key_filename
from repro.library import PulseLibrary, load_manifest
from repro.library.neighbors import (
    NeighborIndex,
    context_token,
    decode_signature,
    encode_signature,
    signature_distance,
    target_metadata,
)
from repro.linalg import haar_random_unitary


def _unitary(seed: int, dim: int = 4) -> np.ndarray:
    return haar_random_unitary(dim, seed=np.random.default_rng(seed))


CTX = ("ctx", 0.5, 0.999)


def _name(i: int) -> str:
    return f"{i:040x}-{i:016x}.pulse"


def _put(library: PulseLibrary, i: int, target: np.ndarray, context=CTX) -> str:
    name = _name(i)
    library.put(name, b"payload", meta=target_metadata(target, context))
    return name


class TestSignatures:
    def test_roundtrip_precision(self):
        u = _unitary(0)
        decoded = decode_signature(encode_signature(u))
        # float32 storage: exact to ~1e-7, up to the canonical global phase.
        assert signature_distance(u, decoded) < 1e-6

    def test_phase_equivalent_unitaries_share_signature(self):
        u = _unitary(1)
        a = decode_signature(encode_signature(u))
        b = decode_signature(encode_signature(np.exp(0.7j) * u))
        # Canonicalization removes the global phase (float32 rounding only).
        assert np.abs(a - b).max() < 1e-6

    def test_distance_zero_up_to_phase(self):
        u = _unitary(2)
        # sqrt turns ~1e-16 trace rounding into ~1e-8; exact zero is not
        # representable, near-zero is.
        assert signature_distance(u, np.exp(-1.1j) * u) < 1e-6

    def test_distance_orders_by_closeness(self):
        u = _unitary(3)
        near = u @ np.diag(np.exp(1j * np.array([0.01, 0.0, 0.0, -0.01])))
        far = _unitary(4)
        assert signature_distance(u, near) < signature_distance(u, far)

    def test_damaged_payload_decodes_to_none(self):
        assert decode_signature("not base64!") is None
        assert decode_signature(encode_signature(_unitary(5))[:-8]) is None

    def test_context_token_is_stable_and_context_sensitive(self):
        assert context_token(CTX) == context_token(("ctx", 0.5, 0.999))
        assert context_token(CTX) != context_token(("ctx", 0.25, 0.999))


class TestIndexSearch:
    def test_put_metadata_is_searchable(self, tmp_path):
        library = PulseLibrary(tmp_path)
        target = _unitary(10)
        name = _put(library, 1, target)
        hit = NeighborIndex(library).find_nearest(_unitary(11), CTX, 1.0)
        assert hit is not None and hit.name == name

    def test_nearest_of_several_wins(self, tmp_path):
        library = PulseLibrary(tmp_path)
        base = _unitary(20)
        near = base @ np.diag(np.exp(1j * np.array([0.02, 0.0, -0.02, 0.0])))
        _put(library, 1, _unitary(21))
        near_name = _put(library, 2, near)
        hit = NeighborIndex(library).find_nearest(base, CTX, 1.0)
        assert hit.name == near_name
        assert hit.distance < 0.05

    def test_threshold_gates_the_match(self, tmp_path):
        library = PulseLibrary(tmp_path)
        _put(library, 1, _unitary(30))
        index = NeighborIndex(library)
        probe = _unitary(31)
        dist = index.find_nearest(probe, CTX, 1.0).distance
        assert index.find_nearest(probe, CTX, dist * 0.5) is None

    def test_bucketing_by_context_and_dim(self, tmp_path):
        library = PulseLibrary(tmp_path)
        target = _unitary(40)
        _put(library, 1, target, context=("other", 1.0, 0.9))
        _put(library, 2, _unitary(41, dim=2), context=CTX)
        assert NeighborIndex(library).find_nearest(target, CTX, 1.0) is None

    def test_exclude_blocks_self_seeding(self, tmp_path):
        library = PulseLibrary(tmp_path)
        target = _unitary(50)
        name = _put(library, 1, target)
        index = NeighborIndex(library)
        assert index.find_nearest(target, CTX, 1.0, exclude=name) is None

    def test_index_refreshes_on_new_puts(self, tmp_path):
        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        target = _unitary(60)
        assert index.find_nearest(target, CTX, 1.0) is None
        _put(library, 1, target)
        assert index.find_nearest(target @ np.diag([1, 1, 1, 1j]), CTX, 1.0)

    def test_overwrite_without_meta_keeps_metadata(self, tmp_path):
        library = PulseLibrary(tmp_path)
        target = _unitary(70)
        name = _put(library, 1, target)
        library.put(name, b"new payload")  # no meta
        record = load_manifest(library.shard_dir(name))["entries"][name]
        assert record["target"]["dim"] == 4


class TestHealing:
    def test_annotate_heals_legacy_entry(self, tmp_path):
        library = PulseLibrary(tmp_path)
        name = _name(1)
        library.put(name, b"legacy")  # pre-metadata entry
        index = NeighborIndex(library)
        target = _unitary(80)
        assert index.find_nearest(target, CTX, 1.0) is None
        assert index.annotate(name, target, CTX) is True
        assert index.annotated == 1
        # In-memory index updated in place, no rescan needed.
        hit = index.find_nearest(target @ np.diag([1j, 1, 1, 1]), CTX, 1.0)
        assert hit is not None and hit.name == name
        # And the manifest itself is durably healed.
        record = load_manifest(library.shard_dir(name))["entries"][name]
        assert record["target"]["ctx"] == context_token(CTX)

    def test_annotate_is_noop_when_already_annotated(self, tmp_path):
        library = PulseLibrary(tmp_path)
        target = _unitary(90)
        name = _put(library, 1, target)
        assert NeighborIndex(library).annotate(name, target, CTX) is False

    def test_annotate_unknown_entry_is_noop(self, tmp_path):
        library = PulseLibrary(tmp_path)
        assert NeighborIndex(library).annotate(_name(9), _unitary(91), CTX) is False


class TestFreeze:
    def test_frozen_index_ignores_later_puts(self, tmp_path):
        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        target = _unitary(100)
        index.freeze()
        try:
            _put(library, 1, target)
            assert index.find_nearest(target, CTX, 1.0) is None
        finally:
            index.thaw()
        assert index.find_nearest(target, CTX, 1.0) is not None

    def test_freeze_nests(self, tmp_path):
        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        target = _unitary(101)
        index.freeze()
        index.freeze()
        _put(library, 1, target)
        index.thaw()
        assert index.find_nearest(target, CTX, 1.0) is None  # still frozen
        index.thaw()
        assert index.find_nearest(target, CTX, 1.0) is not None

    def test_frozen_names_survive_pickling(self, tmp_path):
        """Process-pool workers must resolve the pre-pass candidate set."""
        import pickle

        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        pre = _unitary(102)
        pre_name = _put(library, 1, pre)
        index.freeze()
        query = pre @ np.diag([1, 1j, 1, 1])
        post_name = _put(library, 2, query)  # nearer, but written after the freeze
        clone = pickle.loads(pickle.dumps(index))
        # The clone rebuilds its scan (seeing both disk entries) but the
        # frozen-name snapshot still pins search to the pre-freeze set.
        hit = clone.find_nearest(query, CTX, 1.0)
        assert hit is not None and hit.name == pre_name
        clone.thaw()
        assert clone.find_nearest(query, CTX, 1.0).name == post_name

    def test_memory_cache_freeze_ignores_later_puts(self):
        from repro.core.cache import CacheEntry

        cache = PulseCache()
        entry = CacheEntry(
            schedule=None, duration_ns=1.0, fidelity=1.0, converged=True,
            iterations=1,
        )
        context = CTX
        key_a = ("aa" * 20, context)
        key_b = ("bb" * 20, context)
        target = _unitary(110)
        cache.freeze_neighbors()
        try:
            cache.put(key_a, entry, target=target)
            assert cache.find_neighbor(key_b, target, 1.0) is None
        finally:
            cache.thaw_neighbors()
        assert cache.find_neighbor(key_b, target, 1.0) is not None


class TestPersistentCacheIntegration:
    def _entry(self):
        from repro.core.cache import CacheEntry

        return CacheEntry(
            schedule=None, duration_ns=2.0, fidelity=0.999, converged=True,
            iterations=7,
        )

    def test_neighbor_found_across_processes(self, tmp_path):
        target = _unitary(120)
        key = ("cd" * 20, CTX)
        writer = PersistentPulseCache(tmp_path)
        writer.put(key, self._entry(), target=target)

        # A cold cache on the same directory (fresh memory tier) finds the
        # near-miss through the durable index.
        reader = PersistentPulseCache(tmp_path)
        probe_key = ("ef" * 20, CTX)
        probe = target @ np.diag(np.exp(1j * np.array([0.01, 0, 0, -0.01])))
        match = reader.find_neighbor(probe_key, probe, 0.25)
        assert match is not None
        assert match.source == "library"
        assert match.name == _key_filename(key)
        assert match.entry.duration_ns == 2.0

    def test_wrong_context_never_matches(self, tmp_path):
        target = _unitary(121)
        cache = PersistentPulseCache(tmp_path)
        cache.put(("ab" * 20, CTX), self._entry(), target=target)
        other_ctx_key = ("cd" * 20, ("other", 1.0, 0.9))
        assert cache.find_neighbor(other_ctx_key, target, 1.0) is None

    def test_stats_surface_neighbor_telemetry(self, tmp_path):
        cache = PersistentPulseCache(tmp_path)
        cache.put(("ab" * 20, CTX), self._entry(), target=_unitary(122))
        cache.find_neighbor(("cd" * 20, CTX), _unitary(123), 1.0)
        stats = cache.stats()["neighbors"]
        assert stats["indexed_entries"] == 1
        assert stats["lookups"] >= 1
