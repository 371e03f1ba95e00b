"""Public-API surface checks.

Every name exported via ``__all__`` must exist, and the documented
quickstart flows must work end-to-end against the public API only.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.blocking",
    "repro.circuits",
    "repro.core",
    "repro.library",
    "repro.linalg",
    "repro.perf",
    "repro.pipeline",
    "repro.pulse",
    "repro.pulse.grape",
    "repro.qaoa",
    "repro.server",
    "repro.service",
    "repro.sim",
    "repro.transpile",
    "repro.vqe",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), package
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_docstrings(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and module.__doc__.strip(), package

    def test_version(self):
        import repro

        assert repro.__version__


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
                assert issubclass(obj, errors.ReproError), name


class TestReadmeQuickstart:
    def test_readme_flow(self):
        # The literal flow from README.md's quickstart section (with fast
        # settings so the test stays quick).
        from repro.pulse.grape import GrapeHyperparameters, GrapeSettings
        from repro.qaoa import maxcut_problem, qaoa_circuit
        from repro.service import CompilationService, CompileRequest
        from repro.transpile import transpile

        problem = maxcut_problem("3regular", 6, seed=0)
        circuit = transpile(qaoa_circuit(problem, p=1))
        theta = [0.4, 0.9]
        with CompilationService(
            settings=GrapeSettings(dt_ns=0.5, target_fidelity=0.98),
            hyperparameters=GrapeHyperparameters(0.05, 0.002, max_iterations=120),
        ) as service:
            pulse = service.compile(
                CompileRequest(
                    circuit, theta, strategy="strict-partial", max_block_width=2
                )
            )
            baseline = service.compile(
                CompileRequest(circuit, theta, strategy="gate")
            )
        assert pulse.pulse_duration_ns <= baseline.pulse_duration_ns + 1e-9
        assert pulse.runtime_iterations == 0
