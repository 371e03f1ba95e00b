"""Repository hygiene checks.

Cheap structural guarantees of the "production-quality" claims: every
module is documented, nothing ships with placeholder markers, and the
packaging metadata stays consistent with the code.
"""

import ast
import importlib
import os
import re
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
SRC_MODULES = sorted((REPO / "src").rglob("*.py"))

#: Names of the removed second compile route (the legacy compiler classes,
#: the session, their deprecation machinery and the old CLI command);
#: ``CompilationService`` is the one front door.  Then the fleet
#: autoscaler, the pulse library's shard prefetch and the config fields
#: that only ever held one value: a fixed worker count is the one pool
#: manager, the warm-start threshold is a constant, and the heartbeat is
#: always a third of the lease TTL.  Then the scheduler-state spill and
#: its JSON outcome codec: the pulse library under ``cache_dir`` is the
#: one store that outlives a process.  Then the perf-harness benches that
#: timed what ``benchmarks/e2e`` already measures (their checks are plain
#: tests now) and the second serial-vs-``auto`` bench: ``pipeline`` is
#: the one.  Then the scheduler's cross-call memory: the pulse cache's
#: memory tier is the one memory of compiled blocks.  Then the plan
#: cache's duplicate counter (it always equalled ``plan_hits``) and the
#: caller scope string: a plan key names its blocking mode, and the
#: blocking stage is the one replay route.  Then the file-queue fleet and
#: the bench that timed it: the executor is the one venue for pure tasks,
#: and hosts share finished pulses through a shared ``cache_dir``.
REMOVED_NAMES = (
    "GateBasedCompiler",
    "StepFunctionGateCompiler",
    "FullGrapeCompiler",
    "_FullGrapeCompiler",
    "StrictPartialCompiler",
    "FlexiblePartialCompiler",
    "VariationalSession",
    "warn_deprecated",
    "ReproDeprecationWarning",
    "compile_circuit_blocks",
    "FleetAutoscaler",
    "prefetch_enabled",
    "_ensure_prefetched",
    "fleet_autoscale",
    "fleet_heartbeat_s",
    "warm_start_max_dist",
    "save_scheduler_state",
    "SCHEDULER_STATE_SCHEMA_VERSION",
    "_encode_outcome",
    "bench_session",
    "bench_cache",
    "bench_http",
    "bench_service_concurrency",
    "bench_pipeline_parallel",
    "SchedulerState",
    "scheduler_state",
    "_SeenBlock",
    "_retarget_outcome",
    "note_skip",
    "blocking_passes_skipped",
    "plan_scope",
    "QueueDispatcher",
    "FleetQueue",
    "FleetWorker",
    "spawn_worker",
    "bench_service_load",
)
# A lookbehind, not \b: the kept ``_StrictPartialCompiler`` and friends
# must not match their removed public names.
REMOVED_PATTERN = re.compile(
    r"(?<!\w)(?:" + "|".join(map(re.escape, REMOVED_NAMES)) + r")\b"
    r"|\bcache-stats\b"
)
CODE_TREES = {
    "src": "**/*.py",
    "tests": "**/*.py",
    "benchmarks": "*.py",
    "examples": "**/*.py",
}


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: str(p.relative_to(REPO)))
def test_every_module_has_docstring(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path} lacks a module docstring"


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: str(p.relative_to(REPO)))
def test_no_placeholder_markers(path):
    # NotImplementedError is allowed: it is the idiom for abstract base
    # methods (Gate.matrix / Gate.inverse), not a stub marker.
    source = path.read_text()
    for marker in ("TODO", "FIXME", "XXX"):
        assert marker not in source, f"{path} contains placeholder {marker!r}"


def test_no_debugging_leftovers():
    for path in SRC_MODULES:
        source = path.read_text()
        assert "breakpoint()" not in source, path
        assert "pdb.set_trace" not in source, path


def test_version_consistent_with_pyproject():
    import repro

    pyproject = (REPO / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"', pyproject, re.MULTILINE)
    assert match and match.group(1) == repro.__version__


def test_every_subpackage_reachable_from_root():
    import repro

    for sub in ("analysis", "blocking", "circuits", "core", "linalg",
                "pipeline", "pulse", "qaoa", "service", "sim", "transpile",
                "vqe"):
        assert hasattr(repro, sub)


def test_fleet_package_is_gone():
    import repro

    assert not hasattr(repro, "fleet")
    with pytest.raises(ImportError):
        importlib.import_module("repro.fleet")


def test_docs_exist_and_nonempty():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE"):
        path = REPO / name
        assert path.exists() and path.stat().st_size > 100, name


def test_bench_files_use_benchmark_fixture():
    """Every bench module must contain at least one pytest-benchmark test."""
    for path in sorted((REPO / "benchmarks").glob("bench_*.py")):
        source = path.read_text()
        assert "benchmark" in source, path
        assert "def test" in source, path


@pytest.mark.parametrize("tree", sorted(CODE_TREES))
def test_removed_compile_routes_stay_gone(tree):
    for path in sorted((REPO / tree).glob(CODE_TREES[tree])):
        if path == Path(__file__).resolve():
            continue
        match = REMOVED_PATTERN.search(path.read_text())
        assert match is None, f"{path} names removed {match.group(0)!r}"


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.core", "repro.pipeline", "repro.service"],
)
def test_removed_compile_routes_not_exported(package):
    module = importlib.import_module(package)
    leftover = set(REMOVED_NAMES) & (set(module.__all__) | set(vars(module)))
    assert not leftover, sorted(leftover)


#: The removed single-value config knobs: field name, its old environment
#: variable, and a value it once took.
REMOVED_KNOBS = [
    ("prefetch", "REPRO_PREFETCH", "1"),
    ("warm_start_max_dist", "REPRO_WARM_START_MAX_DIST", "0.4"),
    ("fleet_heartbeat_s", "REPRO_FLEET_HEARTBEAT", "2.5"),
    ("fleet_autoscale", "REPRO_FLEET_AUTOSCALE", "1"),
    ("fleet_min_workers", "REPRO_FLEET_MIN_WORKERS", "1"),
    ("fleet_max_workers", "REPRO_FLEET_MAX_WORKERS", "6"),
    ("scheduler_state_path", "REPRO_SCHEDULER_STATE", "/tmp/state.json"),
    ("grape_batch_size", "REPRO_GRAPE_BATCH_SIZE", "8"),
    ("grape_batch", "REPRO_GRAPE_BATCH", "0"),
    ("dispatcher", "REPRO_DISPATCHER", "queue"),
    ("fleet_lease_ttl_s", "REPRO_FLEET_LEASE_TTL", "5"),
    ("cache_budget_mb", "REPRO_CACHE_BUDGET_MB", "10"),
    ("fleet_dir", "REPRO_FLEET_DIR", "/tmp/fleet"),
]
#: Removed fields whose variable still means something elsewhere:
#: ``REPRO_PRESET`` sets the process-wide preset at import.
REMOVED_FIELDS = [knob[:1] + knob[2:] for knob in REMOVED_KNOBS] + [
    ("preset", "paper"),
]


@pytest.mark.parametrize(
    "field_name,value",
    REMOVED_FIELDS,
    ids=[knob[0] for knob in REMOVED_FIELDS],
)
def test_removed_knob_is_not_a_field(field_name, value):
    from repro.service import ServiceConfig

    assert field_name not in {f.name for f in fields(ServiceConfig)}
    with pytest.raises(TypeError):
        ServiceConfig(**{field_name: value})


#: List methods that change a list in place.
_LIST_MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
)


def _instruction_writers(tree) -> list:
    """``(function, line)`` of every write to an ``_instructions``
    attribute in ``tree``: assignment, deletion, item assignment or an
    in-place list method.  ``function`` is the innermost enclosing
    ``def`` (``None`` at module level)."""

    def is_target(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "_instructions"

    writers = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        writes = (
            (is_target(node) and isinstance(node.ctx, (ast.Store, ast.Del)))
            or (
                isinstance(node, ast.Subscript)
                and is_target(node.value)
                and isinstance(node.ctx, (ast.Store, ast.Del))
            )
            or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _LIST_MUTATORS
                and is_target(node.func.value)
            )
        )
        if writes:
            writers.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return writers


def test_only_the_circuit_constructors_and_append_write_instructions():
    """``QuantumCircuit`` caches its fingerprint and parameters and
    ``append`` clears them, so a method that changed ``_instructions``
    any other way would serve a stale key.  Only ``__init__``, ``append``
    and ``copy`` (which fills a fresh circuit) in ``circuits/circuit.py``
    write it, and no other module does."""
    home = REPO / "src" / "repro" / "circuits" / "circuit.py"
    found = {}
    for path in SRC_MODULES:
        writers = _instruction_writers(ast.parse(path.read_text()))
        if path == home:
            assert {name for name, _ in writers} == {"__init__", "append", "copy"}
        elif writers:
            found[str(path.relative_to(REPO))] = writers
    assert found == {}


def test_service_config_field_count_is_pinned():
    """A ratchet: adding a knob means editing this number, so every new
    field shows up in review as a test change."""
    from repro.service import ServiceConfig

    assert len(fields(ServiceConfig)) == 10


@pytest.mark.parametrize(
    "field_name,variable,value",
    REMOVED_KNOBS,
    ids=[knob[1] for knob in REMOVED_KNOBS],
)
def test_removed_knob_variable_is_ignored(
    monkeypatch, field_name, variable, value
):
    """An old deployment's setting changes nothing and warns about
    nothing."""
    from repro.service import ServiceConfig

    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    monkeypatch.setenv(variable, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config, sources = ServiceConfig.from_env_with_sources()
    assert config == ServiceConfig()
    assert set(sources.values()) == {"default"}
