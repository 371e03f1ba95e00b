"""Repository hygiene checks.

Cheap structural guarantees of the "production-quality" claims: every
module is documented, nothing ships with placeholder markers, and the
packaging metadata stays consistent with the code.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
SRC_MODULES = sorted((REPO / "src").rglob("*.py"))

#: Names of the removed second compile route (the legacy compiler classes,
#: the session, their deprecation machinery and the old CLI command);
#: ``CompilationService`` is the one front door.
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

    for sub in ("analysis", "blocking", "circuits", "core", "fleet",
                "linalg", "pipeline", "pulse", "qaoa", "service", "sim",
                "transpile", "vqe"):
        assert hasattr(repro, sub)


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
    "package", ["repro", "repro.core", "repro.pipeline", "repro.service"]
)
def test_removed_compile_routes_not_exported(package):
    module = importlib.import_module(package)
    leftover = set(REMOVED_NAMES) & (set(module.__all__) | set(vars(module)))
    assert not leftover, sorted(leftover)
