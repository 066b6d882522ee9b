"""Measurement process of the benchmark (started by ``perfbench/run.py``).

Runs one workload under the pinned environment, checks its outputs and its
exact work counters, writes the full record (and, for a traced run, its
spans) under the record directory, and prints the one-line JSON result as
the last line of standard output.

    python3 -m perfbench.measure --workload serve_mixed --seed 1 --seconds 20 \\
        --trace 0 --record-dir .bench_build/perfbench/records
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from perfbench.common import (
    END_TO_END,
    PER_LAYER,
    compare_counters,
    environment_record,
    guard_environment,
)

WORKLOADS = ("encode_paper", "serve_mixed", "stream_video")


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str):
    if name == "encode_paper":
        from perfbench.encode import run
    elif name == "serve_mixed":
        from perfbench.serve import run
    else:
        from perfbench.stream import run
    return run(seed, seconds, trace, scale)


def result_line(result, trace: bool) -> dict:
    """The last stdout line: every metric of the run's kind, with its unit.
    Layers a workload does not have read 0."""
    catalogue = PER_LAYER if trace else END_TO_END
    unknown = sorted(set(result.metrics) - set(catalogue))
    if unknown:
        raise KeyError(f"metrics outside the catalogue: {unknown}")
    return {
        "correct": result.failed == 0,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in catalogue.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--record-dir", type=Path, required=True)
    parser.add_argument("--source-hash", default="unknown")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = environment_record()
    guard_environment(env)
    trace = bool(args.trace)
    started = time.time()
    result = run_workload(args.workload, args.seed, args.seconds, trace, args.scale)

    key = f"{args.workload}-{args.scale}-seed{args.seed}-{args.seconds:g}s"
    mismatch = compare_counters(
        args.record_dir / "counters", key, args.source_hash, result.counters
    )
    result.checks["counters_repeat"] = mismatch is None
    if not all(result.checks.values()):
        # A failed check fails the run even when no single item is to blame.
        result.failed = max(result.failed, 1)
    line = result_line(result, trace)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "scale": args.scale,
        "source": args.source_hash,
        "started_unix": started,
        "environment": env,
        "checks": result.checks,
        "counter_mismatch": mismatch,
        "failed_frac": result.failed / max(result.attempted, 1),
        "counters": result.counters,
        "details": result.details,
        "result": line,
    }
    args.record_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{key}-trace{int(trace)}"
    (args.record_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if result.spans:
        (args.record_dir / f"{stem}.spans.json").write_text(json.dumps(result.spans))

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# checks {json.dumps(result.checks, sort_keys=True)}")
    for phase in result.details.get("ladder", []):
        print(f"# phase {json.dumps(phase, sort_keys=True)}")
    for name, level in result.details.get("levels_s", {}).items():
        print(f"# level {name} {json.dumps(level, sort_keys=True)}")
    if mismatch is not None:
        print(f"# {mismatch}")
    print(f"# record {args.record_dir / (stem + '.json')}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
