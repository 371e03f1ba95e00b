"""The repository benchmark: variational compilation, end to end.

    python3 benchmarks/e2e/run.py --workload strict_stream --seed 0 --seconds 15 --trace 0

Runs each workload (``--workload all`` runs the four in turn) in its own
fresh Python process with every ``REPRO_*`` variable removed from its
environment, so no configuration and no process-global counter leaks
between workloads.  With ``--trace 0`` it reports the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics.  Every
output is checked; the last stdout line is one JSON object::

    {"correct": true, "attempted": 1402, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 13.1, "unit": "ms"}, ...}}

The exit code is 0 only when every output passed its checks.  A results
file with the host record goes under ``--results-dir``; traced runs also
write their spans to ``trace-<workload>.jsonl`` there.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("strict_stream", "grape_stream", "flexible_stream", "http_concurrent")
#: A workload process that outlives this is killed and the run fails.
WORKLOAD_TIMEOUT_S = 170


def host_record() -> dict:
    """Where the numbers come from: the fields every results file carries."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = out.stdout.strip() if out.returncode == 0 else None
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": commit,
    }


def run_workload(name: str, args) -> dict:
    """One workload in a fresh process; its parsed JSON report."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--expected-dir", str(args.expected_dir),
        "--results-dir", str(args.results_dir),
        "--layers", str(HERE / "layers.json"),
    ]
    command += ["--smoke"] if args.smoke else []
    command += ["--write-expected"] if args.write_expected else []
    # A session of its own lets a timeout kill the workload together with
    # the server process it may have started.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload {name} ran past {WORKLOAD_TIMEOUT_S} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def to_metrics(values: dict, declared: list) -> dict:
    """``values`` as ``{name: {"value", "unit"}}`` for every declared metric."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.",
        epilog="See benchmarks/e2e/README.md for workloads and metrics.",
    )
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="about ten requests per workload")
    parser.add_argument("--expected-dir", type=Path, default=HERE / "expected")
    parser.add_argument("--results-dir", type=Path, default=HERE / "results")
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="record the reference outputs of the single-client workloads",
    )
    args = parser.parse_args()
    args.expected_dir = args.expected_dir.resolve()
    args.results_dir = args.results_dir.resolve()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    host = host_record()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    try:
        for name in names:
            report = run_workload(name, args)
            report["metrics"] = to_metrics(report.pop("values"), declared)
            reports[name] = report
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    label = f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'e2e'}"
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    args.results_dir.mkdir(parents=True, exist_ok=True)
    (args.results_dir / f"{label}-{stamp}.json").write_text(
        json.dumps(
            {
                "host": host,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "smoke": args.smoke,
                "workloads": reports,
            },
            indent=1,
        )
        + "\n"
    )

    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    for name, report in reports.items():
        for failure in report["info"]["failures"]:
            print(f"{name}: {failure}", file=sys.stderr)
    if len(reports) == 1:
        metrics = next(iter(reports.values()))["metrics"]
    else:
        for name, report in reports.items():
            print(json.dumps({"workload": name, "metrics": report["metrics"]}))
        metrics = {
            f"{name}.{metric}": entry
            for name, report in reports.items()
            for metric, entry in report["metrics"].items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
