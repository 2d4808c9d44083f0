"""Set-up, untraced and traced runs, and the result record for one workload."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import spans
import workloads
from gauge import NOMINAL_PASS_S, Gauged

# Set up at least this many times, and until this much time has passed:
# a 0.1 s set-up needs many repeats before its median is steady.
SETUPS = 5
SETUP_MIN_S = 2.0


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup_repeatedly(workload, seed: int, work: Path) -> tuple[float, float]:
    """Set up repeatedly from scratch: (median cost in s at the gauge's
    nominal speed, median wall s).

    Every set-up must write the same bytes, since inputs and set-up-time
    models are functions of the seed alone.
    """
    timer = Gauged()
    walls, costs, digests = [], [], set()
    while len(walls) < SETUPS or sum(walls) < SETUP_MIN_S:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wall, cost = timer.run(workload.setup, seed, work)
        walls.append(wall)
        costs.append(cost)
        digests.add(tree_digest(work))
    workloads.check(len(digests) == 1, "set-up is not deterministic")
    return (statistics.median(costs) * NOMINAL_PASS_S,
            statistics.median(walls))


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def machine() -> dict:
    import numpy
    import scipy

    from prosolab import _accel
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": _accel.BACKEND,
        "have_numba": _accel.HAVE_NUMBA,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def traced(workload, seconds: float) -> tuple[dict, dict, int]:
    """Per-layer self time and calls, per block, plus the tracing overhead.

    Untraced and traced blocks alternate until ``seconds`` have passed, so
    the overhead compares blocks run under the same conditions.
    """
    tracer = spans.Tracer()
    plain, walls = [], []
    t_end = perf_counter() + seconds
    while not walls or perf_counter() < t_end:
        plain.append(workload.block())
        with tracer:
            walls.append(workload.block())
    n = len(walls)
    totals = tracer.layer_totals()
    silent = [layer for layer in workload.traced_layers
              if totals[layer][1] == 0]
    workloads.check(not silent,
                    f"no calls recorded for {', '.join(silent)}: a traced "
                    "binding no longer matches the program")
    metrics = {}
    for layer, (ms, calls) in totals.items():
        metrics[f"{layer}.ms"] = (ms / n, "ms")
        metrics[f"{layer}.calls"] = (calls / n, "count")
    counts = tracer.counts
    frames = counts["acoustics.frames"]
    plain_s, block_s = statistics.median(plain), statistics.median(walls)
    metrics.update({
        "acoustics.frames": (frames / n, "count"),
        "acoustics.voiced_frac": (
            counts["acoustics.voiced"] / frames if frames else 0.0,
            "fraction"),
        "prominence.loma_lines": (counts["prominence.loma_lines"] / n,
                                  "count"),
        "crf.nfev": (tracer.nfev() / n, "count"),
        "crf.features": (counts["crf.features"], "count"),
        "tokens": (workload.block_tokens(), "count"),
        "annotate.failed.cwt": (0, "count"),
        "cli.jobs2_scaling": (0.0, "ratio"),
        "trace.overhead_ms": ((block_s - plain_s) * 1e3, "ms"),
        "trace.overhead_frac": ((block_s - plain_s) / plain_s, "fraction"),
    })
    metrics.update(workload.trace_extras(plain_s))
    detail = {"blocks": (n, "count"), "traced_block_s": (block_s, "s"),
              "untraced_block_s": (plain_s, "s"),
              "spans": (len(tracer.spans), "count")}
    return metrics, detail, 2 * n


def as_json_metrics(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def run(name: str, seed: int, seconds: float, trace: bool,
        work: Path) -> bool:
    """Run one workload in ``work``; print the detail and result lines."""
    workload = workloads.WORKLOADS[name]()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    detail = {"workload": name, "seed": seed, "trace": int(trace),
              "machine": machine()}
    try:
        setup_s, setup_wall_s = setup_repeatedly(workload, seed, work)
        detail["inputs"] = workload.inputs_info()
        detail["setup_wall_s"] = setup_wall_s
        if trace:
            metrics, figures, attempted = traced(workload, seconds)
        else:
            metrics, figures, attempted = workload.measure(seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
        detail["figures"] = as_json_metrics(figures)
        result["attempted"] = attempted
        result["metrics"] = as_json_metrics(metrics)
    except workloads.CheckFailed as exc:
        result["correct"] = False
        detail["error"] = str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return result["correct"]
