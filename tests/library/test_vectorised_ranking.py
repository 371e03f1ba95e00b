"""One-pass neighbor ranking equals a scalar scan, in both warm-start tiers.

Both tiers rank a bucket through :class:`repro.library.neighbors
.TargetStack`: a matrix–vector overlap pass shortlists, and the exact
:func:`signature_distance` re-ranks the shortlist.  The scalar loops below
are the reference: one ``signature_distance`` per candidate, in each
tier's order, with its tie rule (first inserted in memory, smallest name
on disk).  Seeds and distances must agree bit for bit.
"""

import numpy as np
import pytest

from repro.core.cache import CacheEntry, PersistentPulseCache, PulseCache, _key_filename
from repro.library import PulseLibrary
from repro.library.neighbors import (
    NeighborIndex,
    TargetStack,
    context_token,
    decode_signature,
    signature_distance,
    target_metadata,
)
from repro.linalg import haar_random_unitary
from repro.perf import get_perf_registry

ENTRY = CacheEntry(
    schedule=None, duration_ns=1.0, fidelity=1.0, converged=True, iterations=1
)
CONTEXTS = (("ctx-a", 0.5, 0.95), ("ctx-b", 0.5, 0.95))


def _unitary(rng, dim=4) -> np.ndarray:
    return haar_random_unitary(dim, seed=rng)


def _near(rng, u: np.ndarray, scale: float) -> np.ndarray:
    """``u`` times a small random diagonal phase, and a random global phase."""
    phases = np.exp(1j * scale * rng.standard_normal(u.shape[0]))
    return np.exp(1j * rng.uniform(0, 2 * np.pi)) * u @ np.diag(phases)


def _random_targets(rng, count: int, dims=(4,)) -> list:
    """Random unitaries with built-in hazards: exact duplicates, global
    phase copies (ties up to rounding), and near copies."""
    targets: list = []
    for _ in range(count):
        dim = int(rng.choice(dims))
        same_dim = [t for t in targets if t.shape[0] == dim]
        roll = rng.uniform()
        if same_dim and roll < 0.15:
            targets.append(same_dim[rng.integers(len(same_dim))].copy())
        elif same_dim and roll < 0.3:
            base = same_dim[rng.integers(len(same_dim))]
            targets.append(np.exp(1j * rng.uniform(0, 2 * np.pi)) * base)
        elif same_dim and roll < 0.6:
            base = same_dim[rng.integers(len(same_dim))]
            targets.append(_near(rng, base, 0.05))
        else:
            targets.append(_unitary(rng, dim))
    return targets


def _queries(rng, targets: list) -> list:
    """Query targets: near copies, exact copies, and unrelated unitaries."""
    out = []
    for _ in range(12):
        base = targets[rng.integers(len(targets))]
        roll = rng.uniform()
        if roll < 0.2:
            out.append(base.copy())
        elif roll < 0.8:
            out.append(_near(rng, base, float(rng.choice([1e-6, 0.02, 0.2]))))
        else:
            out.append(_unitary(rng, base.shape[0]))
    return out


def _max_dists(target, candidates) -> list:
    """Thresholds to try, one of them exactly a candidate's distance."""
    exact = [
        signature_distance(target, c) for c in candidates if c.shape == target.shape
    ] or [0.1]
    return [0.0, 0.05, 0.25, 1.0, exact[len(exact) // 2], min(exact)]


# -- memory tier ---------------------------------------------------------------
def scalar_memory(known, key, target, max_dist, frozen=None):
    """The scalar scan the memory tier replaced, over ``known`` (every key
    put with a target, in first-put order, holding its latest target):
    first of equal distances wins, the own key never matches."""
    best = None
    for other, cached in known.items():
        if other == key or other[1] != key[1] or cached.shape != target.shape:
            continue
        if frozen is not None and other not in frozen:
            continue
        dist = signature_distance(target, cached)
        if dist > max_dist:
            continue
        if best is None or dist < best[1]:
            best = (_key_filename(other), dist)
    return best


def _memory_result(cache, key, target, max_dist):
    match = cache.find_neighbor(key, target, max_dist)
    return None if match is None else (match.name, match.distance)


def _fill(cache, known, rng, count, dims=(4,), start=0, contexts=CONTEXTS) -> None:
    """Put ``count`` random targets into ``cache`` and record them in
    ``known`` (the scalar reference's view)."""
    for i, target in enumerate(_random_targets(rng, count, dims)):
        key = (f"{start + i:064x}", contexts[int(rng.integers(len(contexts)))])
        cache.put(key, ENTRY, target=target)
        known[key] = target


class TestMemoryTier:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_scan(self, seed):
        rng = np.random.default_rng(seed)
        cache, known = PulseCache(), {}
        _fill(cache, known, rng, 40, dims=(2, 4))
        targets = list(known.values())
        keys = list(known)
        for query in _queries(rng, targets):
            for context in CONTEXTS:
                key = ("f" * 64, context)
                for max_dist in _max_dists(query, targets):
                    assert _memory_result(
                        cache, key, query, max_dist
                    ) == scalar_memory(known, key, query, max_dist)
            # A key that is itself cached never matches itself.
            own = keys[int(rng.integers(len(keys)))]
            own_target = known[own]
            for max_dist in _max_dists(own_target, targets):
                assert _memory_result(
                    cache, own, own_target, max_dist
                ) == scalar_memory(known, own, own_target, max_dist)

    def test_lookups_between_puts_match_scalar_scan(self):
        """Each put must reach the next lookup (including an overwrite
        of a row an earlier lookup already ranked)."""
        rng = np.random.default_rng(12)
        cache, known = PulseCache(), {}
        key = ("f" * 64, CONTEXTS[0])
        for round_ in range(12):
            _fill(cache, known, rng, 3, start=10 * round_, contexts=CONTEXTS[:1])
            if round_ % 4 == 3:
                overwritten = list(known)[round_]
                known[overwritten] = _unitary(rng)
                cache.put(overwritten, ENTRY, target=known[overwritten])
            targets = list(known.values())
            for query in _queries(rng, targets)[:3] + [targets[-1]]:
                for max_dist in _max_dists(query, targets):
                    assert _memory_result(
                        cache, key, query, max_dist
                    ) == scalar_memory(known, key, query, max_dist)

    def test_duplicate_targets_tie_to_first_inserted(self):
        rng = np.random.default_rng(7)
        cache = PulseCache()
        u = _unitary(rng)
        for i in range(3):
            cache.put((f"{i:064x}", CONTEXTS[0]), ENTRY, target=u.copy())
        query = _near(rng, u, 0.01)
        name, _ = _memory_result(cache, ("f" * 64, CONTEXTS[0]), query, 1.0)
        assert name == _key_filename((f"{0:064x}", CONTEXTS[0]))

    def test_candidate_at_exactly_max_dist_is_kept(self):
        rng = np.random.default_rng(8)
        cache = PulseCache()
        u, v = _unitary(rng), _unitary(rng)
        cache.put(("a" * 64, CONTEXTS[0]), ENTRY, target=u)
        edge = signature_distance(v, u)
        key = ("f" * 64, CONTEXTS[0])
        assert _memory_result(cache, key, v, edge) == (
            _key_filename(("a" * 64, CONTEXTS[0])),
            edge,
        )
        assert _memory_result(cache, key, v, np.nextafter(edge, 0)) is None

    def test_frozen_snapshot_matches_scalar_scan(self):
        rng = np.random.default_rng(9)
        cache, known = PulseCache(), {}
        _fill(cache, known, rng, 20)
        frozen = set(known)
        cache.freeze_neighbors()
        try:
            _fill(cache, known, rng, 10, start=100, contexts=CONTEXTS[:1])
            targets = list(known.values())
            for query in _queries(rng, targets):
                key = ("f" * 64, CONTEXTS[0])
                for max_dist in _max_dists(query, targets):
                    assert _memory_result(cache, key, query, max_dist) == (
                        scalar_memory(known, key, query, max_dist, frozen)
                    )
        finally:
            cache.thaw_neighbors()

    def test_overwrite_keeps_the_row_and_takes_the_new_target(self):
        rng = np.random.default_rng(10)
        cache, known = PulseCache(), {}
        _fill(cache, known, rng, 6)
        keys = list(known)
        replacement = _unitary(rng)
        cache.put(keys[2], ENTRY, target=replacement)
        known[keys[2]] = replacement
        query = _near(rng, replacement, 0.01)
        key = ("f" * 64, keys[2][1])
        assert _memory_result(cache, key, query, 1.0) == scalar_memory(
            known, key, query, 1.0
        )

    def test_counts_one_recheck_per_lookup_on_distinct_targets(self):
        rng = np.random.default_rng(11)
        cache = PulseCache()
        targets = [_unitary(rng) for _ in range(30)]
        for i, target in enumerate(targets):
            cache.put((f"{i:064x}", CONTEXTS[0]), ENTRY, target=target)
        perf = get_perf_registry()
        ranked = perf.counter("grape.warm_start.ranked")
        rechecked = perf.counter("grape.warm_start.rechecked")
        query = _near(rng, targets[5], 0.01)
        cache.find_neighbor(("f" * 64, CONTEXTS[0]), query, 0.25)
        assert perf.counter("grape.warm_start.ranked") - ranked == 30
        assert perf.counter("grape.warm_start.rechecked") - rechecked == 1


# -- disk tier -----------------------------------------------------------------
def scalar_disk(index, target, context, max_dist, exclude=None, frozen=None):
    """The scalar scan the library tier replaced: smallest (distance,
    name) over the bucket, then the threshold."""
    dim = target.shape[0]
    best = None
    for name, sig_text in index._buckets.get((dim, context_token(context)), {}).items():
        if name == exclude or (frozen is not None and name not in frozen):
            continue
        sig = decode_signature(sig_text)
        if sig is None or sig.shape[0] != dim:
            continue
        candidate = (signature_distance(target, sig), name)
        if best is None or candidate < best:
            best = candidate
    if best is None or best[0] > max_dist:
        return None
    return best[1], best[0]


def _disk_result(index, target, context, max_dist, exclude=None):
    hit = index.find_nearest(target, context, max_dist, exclude=exclude)
    return None if hit is None else (hit.name, hit.distance)


def _names_in(index) -> list:
    return [name for bucket in index._buckets.values() for name in bucket]


def _put_all(library, rng, count, dims=(4,), start=0) -> None:
    for i, target in enumerate(_random_targets(rng, count, dims)):
        # Random (not insertion-ordered) names exercise the name tie rule.
        name = f"{int(rng.integers(1 << 62)):040x}-{start + i:016x}.pulse"
        context = CONTEXTS[int(rng.integers(len(CONTEXTS)))]
        library.put(name, b"payload", meta=target_metadata(target, context))


class TestLibraryTier:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_scan(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        _put_all(library, rng, 30, dims=(2, 4))
        index.sync()
        names = _names_in(index)
        targets = [
            decode_signature(sig)
            for bucket in index._buckets.values()
            for sig in bucket.values()
        ]
        for query in _queries(rng, targets):
            for context in CONTEXTS:
                for max_dist in _max_dists(query, targets):
                    exclude = names[int(rng.integers(len(names)))]
                    for skip in (None, exclude):
                        assert _disk_result(
                            index, query, context, max_dist, skip
                        ) == scalar_disk(index, query, context, max_dist, skip)

    def test_duplicate_signatures_tie_to_smallest_name(self, tmp_path):
        rng = np.random.default_rng(120)
        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        u = _unitary(rng)
        for name in ("c" * 40, "a" * 40, "b" * 40):
            library.put(f"{name}-0.pulse", b"x", meta=target_metadata(u, CONTEXTS[0]))
        hit = _disk_result(index, _near(rng, u, 0.01), CONTEXTS[0], 1.0)
        assert hit[0] == "a" * 40 + "-0.pulse"

    def test_frozen_snapshot_matches_scalar_scan(self, tmp_path):
        rng = np.random.default_rng(130)
        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        _put_all(library, rng, 15)
        index.freeze()
        try:
            frozen = set(_names_in(index))
            # Writes made during the freeze land in the index (and drop
            # its cached stacks) but stay invisible to search.
            _put_all(library, rng, 10, start=1000)
            assert len(_names_in(index)) > len(frozen)
            targets = [
                decode_signature(sig)
                for bucket in index._buckets.values()
                for sig in bucket.values()
            ]
            for query in _queries(rng, targets):
                for max_dist in _max_dists(query, targets):
                    assert _disk_result(
                        index, query, CONTEXTS[0], max_dist
                    ) == scalar_disk(index, query, CONTEXTS[0], max_dist, None, frozen)
        finally:
            index.thaw()

    def test_both_tiers_through_the_persistent_cache(self, tmp_path):
        """``PersistentPulseCache.find_neighbor`` composes the two tiers;
        it must equal composing the two scalar scans."""
        rng = np.random.default_rng(140)
        cache, known = PersistentPulseCache(tmp_path), {}
        targets = _random_targets(rng, 25)
        for i, target in enumerate(targets):
            cache.put((f"{i:064x}", CONTEXTS[i % 2]), ENTRY, target=target)
            known[(f"{i:064x}", CONTEXTS[i % 2])] = target
        # A second process's view: the same library, an empty memory tier.
        other = PersistentPulseCache(tmp_path)
        for query in _queries(rng, targets):
            key = ("f" * 64, CONTEXTS[0])
            for max_dist in _max_dists(query, targets):
                memory = scalar_memory(known, key, query, max_dist)
                disk = scalar_disk(
                    cache.neighbors, query, CONTEXTS[0], max_dist, _key_filename(key)
                )
                expected = memory
                if disk is not None and (memory is None or disk[1] < memory[1]):
                    expected = disk
                match = cache.find_neighbor(key, query, max_dist)
                got = None if match is None else (match.name, match.distance)
                assert got == expected
                from_disk = other.find_neighbor(key, query, max_dist)
                assert (
                    None if from_disk is None else (from_disk.name, from_disk.distance)
                ) == disk


class TestTargetStack:
    def test_empty_and_fully_excluded_stacks_find_nothing(self):
        stack = TargetStack(2)
        assert stack.nearest(np.eye(2, dtype=complex), 1.0) is None
        stack.add("only", np.eye(2, dtype=complex))
        assert stack.nearest(np.eye(2, dtype=complex), 1.0, exclude="only") is None
        assert stack.nearest(np.eye(2, dtype=complex), 1.0, count=0) is None

    def test_growth_keeps_rows(self):
        rng = np.random.default_rng(150)
        stack = TargetStack(4)
        targets = [_unitary(rng) for _ in range(37)]
        for i, target in enumerate(targets):
            stack.add(i, target)
        for i in (0, 17, 36):
            row, dist = stack.nearest(targets[i], 1e-6)
            assert row == i and dist == signature_distance(targets[i], targets[i])


class TestAppendOnlyStack:
    """Rows stay where they were first added; removals leave dead rows."""

    @staticmethod
    def _scalar(live: dict, target, max_dist, by_name, exclude=None):
        """Scan ``live`` (name -> target, in first-added order)."""
        best = None
        for name, candidate in live.items():
            if name == exclude:
                continue
            dist = signature_distance(target, candidate)
            if dist > max_dist:
                continue
            if (
                best is None
                or dist < best[1]
                or (by_name and dist == best[1] and name < best[0])
            ):
                best = (name, dist)
        return best

    @staticmethod
    def _nearest(stack, target, max_dist, exclude=None, count=None):
        found = stack.nearest(target, max_dist, count=count, exclude=exclude)
        return None if found is None else (stack.names[found[0]], found[1])

    @pytest.mark.parametrize("by_name", [False, True])
    def test_equal_distances_follow_the_tie_rule(self, by_name):
        rng = np.random.default_rng(160)
        u = _unitary(rng)
        stack = TargetStack(4, by_name=by_name)
        for name in ("c", "a", "b"):
            stack.add(name, u.copy())
        name, _ = self._nearest(stack, _near(rng, u, 0.01), 1.0)
        assert name == ("a" if by_name else "c")

    @pytest.mark.parametrize("by_name", [False, True])
    def test_adds_replaces_removes_and_compactions_match_a_scalar_scan(self, by_name):
        rng = np.random.default_rng(161 + by_name)
        stack, live = TargetStack(4, by_name=by_name), {}
        pool = [f"{i:03d}" for i in range(40)]
        for step in range(150):
            name = pool[int(rng.integers(len(pool)))]
            roll = rng.uniform()
            if roll < 0.25 and live:
                name = list(live)[int(rng.integers(len(live)))]
                stack.remove(name)
                del live[name]
            elif roll < 0.3:
                stack.compact()
            else:
                target = _random_targets(rng, 1)[0]
                stack.add(name, target)
                # A replaced or revived name keeps its first-added place.
                order = [n for n in stack.names if n in live or n == name]
                live[name] = target
                live = {n: live[n] for n in order}
            if step % 5:
                continue
            targets = list(live.values()) or [_unitary(rng)]
            for query in _queries(rng, targets)[:4]:
                exclude = pool[int(rng.integers(len(pool)))]
                for max_dist in _max_dists(query, targets):
                    for skip in (None, exclude):
                        assert self._nearest(stack, query, max_dist, skip) == (
                            self._scalar(live, query, max_dist, by_name, skip)
                        )

    def test_a_row_count_pins_the_rows_that_existed(self):
        rng = np.random.default_rng(170)
        stack = TargetStack(4, by_name=True)
        early = {f"e{i}": _unitary(rng) for i in range(6)}
        for name, target in early.items():
            stack.add(name, target)
        count = len(stack)
        for i in range(6):
            stack.add(f"l{i}", _unitary(rng))
        stack.remove("e2")
        del early["e2"]
        replacement = _unitary(rng)
        stack.add("e4", replacement)
        early["e4"] = replacement
        for query in _queries(rng, list(early.values())):
            for max_dist in _max_dists(query, list(early.values())):
                assert self._nearest(stack, query, max_dist, count=count) == (
                    self._scalar(early, query, max_dist, by_name=True)
                )


class TestIndexRowsUnderChange:
    def test_frozen_index_sees_exactly_its_freeze_time_rows(self, tmp_path):
        """While frozen: new names stay out, a deleted name drops out, and
        an overwritten name ranks with its new target.  (A name is
        content-addressed, so an overwrite keeps its bucket.)"""
        rng = np.random.default_rng(180)
        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        _put_all(library, rng, 16)
        index.freeze()
        try:
            frozen = set(_names_in(index))
            bucket = index._buckets[(4, context_token(CONTEXTS[0]))]
            names = sorted(bucket)
            library.delete(names[0])
            for name in names[1:3]:
                meta = target_metadata(_unitary(rng), CONTEXTS[0])
                library.put(name, b"new", meta=meta)
            _put_all(library, rng, 8, start=1000)
            targets = [
                decode_signature(sig)
                for bucket in index._buckets.values()
                for sig in bucket.values()
            ]
            for query in _queries(rng, targets):
                for context in CONTEXTS:
                    for max_dist in _max_dists(query, targets):
                        assert _disk_result(
                            index, query, context, max_dist
                        ) == scalar_disk(index, query, context, max_dist, None, frozen)
        finally:
            index.thaw()

    def test_sync_after_a_foreign_gc_and_overwrites_ranks_correctly(self, tmp_path):
        rng = np.random.default_rng(190)
        library = PulseLibrary(tmp_path)
        index = NeighborIndex(library)
        _put_all(library, rng, 30)
        index.sync()
        foreign = PulseLibrary(tmp_path)
        names = sorted(_names_in(index))
        for name in names[::4]:
            foreign.put(name, b"x", meta=target_metadata(_unitary(rng), CONTEXTS[0]))
        report = foreign.gc(budget_mb=20 * len(b"payload") / (1024 * 1024))
        assert report.evicted > 0
        rebuilt = NeighborIndex(PulseLibrary(tmp_path))
        rebuilt.sync()
        targets = [
            decode_signature(sig)
            for bucket in rebuilt._buckets.values()
            for sig in bucket.values()
        ]
        for query in _queries(rng, targets):
            for context in CONTEXTS:
                for max_dist in _max_dists(query, targets):
                    got = _disk_result(index, query, context, max_dist)
                    assert got == scalar_disk(rebuilt, query, context, max_dist)
        assert index._buckets == rebuilt._buckets
