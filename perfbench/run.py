"""Benchmark for fraug: one workload, one seed, one closed-loop caller.

Usage, from the repository root:

    python3 perfbench/run.py --workload longterm-mask --seed 1 --seconds 30 --trace 0

The workload's operation runs back to back for ``--seconds`` seconds in
this one process. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` spends half the time untraced and half traced and reports
the per-layer metrics. Every metric is printed with its unit, and the
last line of standard output is one JSON object: correct, attempted,
failed and metrics. The full result, with provenance, goes to
``perfbench/out/``. See perfbench/README.md.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")



def import_fraug(modules):
    """Import fraug and its ``modules`` afresh (numpy already loaded).

    Returns (seconds, namespace of the modules).
    """
    for name in [n for n in sys.modules if n == "fraug" or n.startswith("fraug.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    lib = SimpleNamespace(**{m: importlib.import_module(f"fraug.{m}") for m in modules})
    return time.perf_counter() - t0, lib


def measure(workload, lib, state, seconds, tracer, label, min_ops=1):
    """Run the operation back to back until ``seconds`` have passed.

    Runs at least ``min_ops`` operations.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.begin(f"{label}{len(ops)}")
        try:
            result = workload.op(lib, state, len(ops), tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = {"failures": [f"{type(exc).__name__}: {exc}"]}
        ops.append(result)
    return ops


def percentile_summary(values):
    """Median, and the highest of p75/p90/p95/p99 with ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def end_to_end(ops, setups, attempted, failed):
    good = [op for op in ops if not op["failures"]]
    m = {"setup_s": statistics.median(setups),
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
         "ops_ok_frac": 1.0 - failed / attempted}
    if good:
        m["wall_s"] = statistics.median(op["wall_s"] for op in good)
        if "train_s" in good[0]:
            m["train_windows_per_s"] = statistics.median(
                op["windows"] / op["train_s"] for op in good)
        if "test_mse" in good[0]:
            per_series = {op["series"]: op["test_mse"] for op in good}
            m["test_mse"] = statistics.fmean(per_series.values())
    return m


def git_sha(root):
    """HEAD of the repository at ``root``, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(nproc):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
            "nproc": nproc, "machine": platform.machine(),
            "git_sha": git_sha(ROOT), "src_lines": src_lines}


def declared(mode):
    """{metric: unit} that BENCHMARK.json declares for this mode, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if mode else "end_to_end"]}


def merge_checks(checks):
    """One check per name: passed if every instance passed."""
    merged = {}
    for name, ok, detail in checks:
        first = merged.setdefault(name, [True, detail, 0])
        if first[0] and not ok:
            first[:2] = [False, detail]
        first[2] += 1
    return [(name, ok, f"{detail} ({n} operations)")
            for name, (ok, detail, n) in merged.items()]


def finite_or_none(value):
    return value if not isinstance(value, float) or math.isfinite(value) else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fraug" / "__init__.py").is_file():
        print(f"error: no fraug sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from layers import HOOKS, MODULES, TARGETS, layer_metrics, numpy_gap
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        units = declared(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read the metrics from BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.inputs(args.seed, workdir)

    setups = []
    for _ in range(SETUP_REPEATS):
        state = None
        import_s, lib = import_fraug(MODULES)
        t0 = time.perf_counter()
        state = workload.setup(lib, inputs)
        setups.append(import_s + time.perf_counter() - t0)
    if Path(lib.spectral.__file__).resolve().parents[2] != ROOT:
        print(f"error: fraug imported from {lib.spectral.__file__}", file=sys.stderr)
        return 2

    budget = args.seconds / 2 if args.trace else args.seconds
    probe = None
    if workload.probe:
        probe = Tracer({k: TARGETS[k] for k in workload.probe},
                       {k: HOOKS[k] for k in workload.probe if k in HOOKS}).install()
    ops = measure(workload, lib, state, budget, probe, "op",
                  min_ops=1 if args.trace else workload.min_ops)
    if probe is not None:
        probe.uninstall()

    checks, traced, metrics = [], [], {}
    if args.trace:
        state = None
        tracer = Tracer(TARGETS, HOOKS).install()
        state = workload.setup(lib, inputs)
        traced = measure(workload, lib, state, budget, tracer, "traced")
        tracer.uninstall()
        checks += merge_checks(workload.identities(tracer, state))
        gap = numpy_gap(lib, tracer.seen, args.seed)
        metrics = layer_metrics(tracer, gap)
        walls = [op["wall_s"] for op in ops if not op["failures"]]
        traced_walls = [op["wall_s"] for op in traced if not op["failures"]]
        if walls and traced_walls:
            metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                              / statistics.median(walls) - 1.0)
        tracer.write_spans(workdir / "spans.csv.gz")
    checks += workload.run_checks(lib, state)

    attempted = len(ops) + len(traced) + len(checks)
    failed = (sum(bool(op["failures"]) for op in ops + traced)
              + sum(not ok for _, ok, _ in checks))
    if not args.trace:
        metrics = end_to_end(ops, setups, attempted, failed)
    metrics = {k: finite_or_none(float(v)) for k, v in metrics.items()}

    # A declared metric that this workload leaves undefined is omitted.
    shown = {k: u for k, u in units.items() if metrics.get(k) is not None}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in shown.items()},
    }
    failures = sorted({f for op in ops + traced for f in op["failures"]})
    walls = [op["wall_s"] for op in ops if not op["failures"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(nproc),
        "setup_s": setups,
        "wall_s": percentile_summary(walls) if walls else None,
        "operations": [{k: finite_or_none(v) for k, v in op.items()} for op in ops],
        "traced_operations": [{k: finite_or_none(v) for k, v in op.items()}
                              for op in traced],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "all_metrics": metrics, "result": result,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, allow_nan=False))

    for name, ok, detail in checks:
        print(f"check {name:<40} {'ok' if ok else 'FAILED'}  {detail}")
    for failure in failures:
        print(f"operation failure: {failure}")
    print("provenance " + json.dumps(record["provenance"]))
    for k, u in shown.items():
        print(f"{k:<48} {metrics[k]:>16.6g} {u}")
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
