"""rlapso benchmark: one workload in one fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload train|compare|solo-30d \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` runs the workload twice at half size in one process, first
plain and then with every layer traced, and reports the per-layer metrics,
the tracing overhead and a self-check of the tracer against the plain run.
The last line of standard output is the result as one JSON object; the line
before it is a JSON report with the machine facts, the output digest and the
raw counts.  Spans of a traced run go to ``.perfbench_out/spans-<workload>.npz``.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# pinned before numpy is first imported, here and in the import probes
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train", "compare", "solo-30d")
SETUP_REPEATS = 5
IMPORT_REPEATS = 9
P90_MIN_UNITS = 100  # at least ten samples beyond the 90th percentile

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import rlapso; print(repr(time.perf_counter() - t))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rlapso benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds(first: float) -> float:
    """Median time to import the package: this process's import plus fresh
    interpreters that import it again."""
    samples = [first]
    for _ in range(IMPORT_REPEATS - 1):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
                               capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(probe.stdout))
    return statistics.median(samples)


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def unit_summary(outcome) -> dict:
    """Unit time percentiles.  Units of different kinds differ in cost, and a
    median over the mixture jumps from kind to kind under small timing noise,
    so ``unit_s.p50`` is each unit's kind median averaged over the units:
    every kind weighs by its number of units."""
    by_kind = {}
    for kind, t in zip(outcome.unit_kind, outcome.unit_s):
        by_kind.setdefault(kind, []).append(t)
    medians = {kind: statistics.median(ts) for kind, ts in by_kind.items()}
    summary = {
        "unit_s.samples": len(outcome.unit_s),
        "unit_s.kinds": len(by_kind),
        "unit_s.p50": statistics.fmean(medians[kind] for kind in outcome.unit_kind),
    }
    if len(outcome.unit_s) >= P90_MIN_UNITS:
        summary["unit_s.p90"] = statistics.quantiles(outcome.unit_s, n=10)[-1]
    return summary


def measure(workload, args, workdir: Path, first_import: float):
    """Untraced run: the end-to-end metrics."""
    size = workload.size(args.seconds)
    import_s = import_seconds(first_import)
    setup_times = []
    for i in range(SETUP_REPEATS):
        target = workdir / f"setup{i}"
        target.mkdir()
        t = time.perf_counter()
        ctx = workload.setup(args.seed, size, target)
        setup_times.append(time.perf_counter() - t)
    outcome = workload.run(ctx)
    units = unit_summary(outcome)
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "wall_s": (outcome.wall_s, "s"),
        "evals_per_s": (outcome.evals / outcome.wall_s, "1/s"),
        "unit_s.p50": (units["unit_s.p50"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {"size": size, "import_s": import_s, "setup_repeats_s": setup_times,
              "evals": outcome.evals, "train_steps": outcome.train_steps, **units}
    return [outcome], metrics, report, {}


def measure_traced(workload, args, workdir: Path, first_import: float):
    """Traced run: the per-layer metrics, checked against a plain run of the
    same inputs in the same process."""
    import tracer

    size = workload.size(args.seconds / 2)
    (workdir / "plain").mkdir()
    (workdir / "traced").mkdir()
    plain = workload.run(workload.setup(args.seed, size, workdir / "plain"))
    spans = tracer.Tracer()
    with tracer.Patches() as patches:
        spans.install(patches)
        traced = workload.run(workload.setup(args.seed, size, workdir / "traced"))
    spans_path = OUT / f"spans-{workload.name}.npz"
    spans.save(spans_path)

    metrics = spans.layer_metrics()
    validations = traced.info.get("validations", 0)
    metrics["ddpg.validation.replaced_frac"] = (
        traced.info["snapshots_kept"] / validations if validations else 0.0, "ratio")
    metrics["trace_overhead_frac"] = (traced.wall_s / plain.wall_s - 1.0, "ratio")
    self_check = {
        "evaluate_calls_match_records":
            metrics["benchmarks.evaluate.calls"][0] == traced.evals == plain.evals,
        "train_step_calls_match_records":
            metrics["ddpg.train_step.calls"][0] == traced.train_steps == plain.train_steps,
        "digest_matches_plain_run": traced.digest == plain.digest,
    }
    report = {"size": size, "plain_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
              "evals": traced.evals, "train_steps": traced.train_steps,
              "spans": len(spans.name_ids), "spans_file": str(spans_path.relative_to(ROOT)),
              "untraced_targets": spans.missing, **unit_summary(plain)}
    return [plain, traced], metrics, report, self_check


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rlapso" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import rlapso
    first_import = time.perf_counter() - t
    if Path(rlapso.__file__).resolve().parent != (SRC / "rlapso").resolve():
        print(f"perfbench: imported rlapso from {rlapso.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        run = measure_traced if args.trace else measure
        outcomes, metrics, report, self_check = run(workload, args, workdir, first_import)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(o.unit_ok) for o in outcomes)
    failed = sum(not ok for o in outcomes for ok in o.unit_ok)
    checks = dict(self_check)
    for o in outcomes:
        for name, ok in o.checks.items():
            checks[name] = checks.get(name, True) and ok
    correct = failed == 0 and all(checks.values())

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {'correct' if correct else 'INCORRECT'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "output_sha256": outcomes[-1].digest, "failed_frac": failed / attempted,
        "checks": checks, **report, **outcomes[-1].info,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
