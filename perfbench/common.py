"""Shared pieces of the benchmark: provenance, environment guard, statistics,
memory, exact-counter bookkeeping and the metric catalogue."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
"""BLAS/OpenMP thread pools, pinned to one thread per process: the host has
two cores, one for the benchmark process and one for a serving worker."""

BACKEND = "compiled"
PROFILE = "reference"

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "max_rate_rps": "1/s",
    "peak_rss_mb": "MB",
}
"""End-to-end metric -> unit.  Every workload reports all of them.

The p99 latency is not among them: across seeds on the seed host it spread
by 66 % of its median on ``serve_mixed`` (R2, 1000 requests) and 15 % on the
other two, too wide for any regression bound.  Each record still carries it
(per ladder phase on ``serve_mixed``), reported as unresolved."""

NUM_BLOCKS = 6
"""Encoder depth of the paper-scale workloads; per-block metrics name blocks
0..5 (the 2-block serving bank reports 0 for blocks 2..5)."""

PER_LAYER = {
    "encoder.forward_ms": "ms",
    "encoder.glue_ms": "ms",
    **{f"block{j}.attn_ms": "ms" for j in range(NUM_BLOCKS)},
    **{f"block{j}.ffn_ms": "ms" for j in range(NUM_BLOCKS)},
    **{
        f"kernel.{name}_ms": "ms"
        for name in (
            "query_proj",
            "value_proj",
            "neighbors",
            "gather",
            "aggregate",
            "fwp",
            "output_proj",
            "norm",
            "ffn",
            "unattributed",
        )
    },
    "prune.pixel_keep": "fraction",
    "prune.point_keep": "fraction",
    "plan.bytes": "MB",
    "plan.grows_steady": "count",
    "serve.submit_us": "us",
    "serve.poll_busy_frac": "fraction",
    "serve.batch_size_mean": "count",
    "serve.batches_full": "count",
    "serve.batches_wait": "count",
    "serve.primary_frac": "fraction",
    "worker.compute_ms_mean": "ms",
    "worker.busy_frac": "fraction",
    "serve.noncompute_ms_mean": "ms",
    "gen.late_ms_p99": "ms",
    "stream.cold_frame_ms": "ms",
    "stream.warm_frame_ms": "ms",
    "stream.rows_computed_frac": "fraction",
    "stream.frames_cold": "count",
    "stream.frames_warm": "count",
    "stream.frames_reused": "count",
    "stream.noncompute_ms_mean": "ms",
    "trace.overhead_pct": "%",
}
"""Per-layer metric -> unit, from the traced run.  Per-item times are means
per image, request or frame.  A layer a workload does not have (the engine
on ``encode_paper``, streaming sessions outside ``stream_video``) reads 0."""


class BenchEnvironmentError(RuntimeError):
    """The run is not under the pinned backend/profile/thread environment."""


def environment_record() -> dict:
    """Provenance of a run: host, interpreter, NumPy/BLAS, backend, profile."""
    from repro.kernels import COMPILED_AVAILABLE, get_active_profile, get_backend

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "backend": get_backend().name,
        "compiled_available": COMPILED_AVAILABLE,
        "profile": get_active_profile().name,
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def guard_environment(env: dict) -> None:
    """Refuse to measure anything but the compiled backend under the
    reference profile with single-threaded BLAS."""
    problems = []
    if not env["compiled_available"] or env["backend"] != BACKEND:
        problems.append(f"kernel backend resolves to {env['backend']!r}, not {BACKEND!r}")
    if env["profile"] != PROFILE:
        problems.append(f"dispatch profile is {env['profile']!r}, not {PROFILE!r}")
    unpinned = [name for name, value in env["threads"].items() if value != "1"]
    if unpinned:
        problems.append(f"thread pools not pinned to 1: {', '.join(unpinned)}")
    if problems:
        raise BenchEnvironmentError("; ".join(problems))


def guard_plan_stats(where: str, stats: dict) -> None:
    """Check one runner's ``plan_stats()`` (in-process or from a worker)."""
    if stats.get("backend") != BACKEND or stats.get("profile") != PROFILE:
        raise BenchEnvironmentError(
            f"{where} runs backend={stats.get('backend')!r} "
            f"profile={stats.get('profile')!r}; expected {BACKEND!r}/{PROFILE!r}"
        )


def guard_workers(engine) -> list[dict]:
    """Every worker of ``engine`` must serve every class on the compiled
    backend under the reference profile.  Returns ``worker_stats()``."""
    stats = engine.worker_stats(timeout=60.0)
    if not stats or any(entry is None for entry in stats):
        raise BenchEnvironmentError(f"worker stats unavailable: {stats!r}")
    for index, entry in enumerate(stats):
        for name, class_stats in entry.items():
            if isinstance(class_stats, dict) and "backend" in class_stats:
                guard_plan_stats(f"worker {index} class {name!r}", class_stats)
    return stats


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return (own + children) / scale


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def median(values) -> float:
    return percentile(values, 50.0)


@dataclass
class WorkloadResult:
    """What one workload run hands back to the measurement process."""

    metrics: dict[str, float]
    """End-to-end metrics (untraced run) or per-layer metrics (traced run)."""
    attempted: int
    failed: int
    checks: dict[str, bool]
    """Named correctness checks; the run is correct when all hold."""
    counters: dict
    """Exact work counters; must repeat exactly for the same seed."""
    details: dict = field(default_factory=dict)
    """Everything else worth keeping in the record (phases, levels, ...)."""
    spans: dict = field(default_factory=dict)
    """Raw traced spans, written out at the end of a traced run."""


def compare_counters(store: Path, key: str, source_hash: str, counters: dict) -> str | None:
    """Compare ``counters`` with the ones an earlier run of the same seed and
    source recorded; record them when none exist.  Returns a mismatch
    description, or ``None`` when they repeat (or are new)."""
    path = store / f"{key}.json"
    canonical = json.loads(json.dumps(counters, sort_keys=True))
    if path.exists():
        previous = json.loads(path.read_text())
        if previous.get("source") == source_hash:
            if previous["counters"] != canonical:
                diff = sorted(
                    name
                    for name in set(previous["counters"]) | set(canonical)
                    if previous["counters"].get(name) != canonical.get(name)
                )
                return f"exact counters differ from the previous run of {key}: {diff}"
            return None
    store.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"source": source_hash, "counters": canonical}, sort_keys=True))
    tmp.replace(path)
    return None


def keep_ratios(counts: list[list[list[int]]]) -> tuple[float, float]:
    """Mean FWP pixel keep over masked blocks (1..L-1) and mean PAP point
    keep over all blocks, across images."""
    pixel = [b[0] / b[1] for image in counts for b in image[1:]]
    point = [b[2] / b[3] for image in counts for b in image]
    return (float(np.mean(pixel)) if pixel else 1.0, float(np.mean(point)) if point else 1.0)
