"""``serve_mixed``: a stateless request service under an open loop.

Poisson arrivals go into a kill-free :class:`ServingEngine` with one worker
process and ``max_batch_size=4``, carrying the serving benchmarks' 3-shape x
2-class mix (``fp32`` / ``int12``) of small pyramids (60-175 tokens, d=64, 2
blocks).  The load climbs a ladder of three fixed rates sized from the
seed host's capacity (about 200 req/s).  Scheduling, batching and IPC
dominate; the pyramids fall below the sparse-dispatch minimums, so a
sparse-kernel change predicts no change here.

Every request is timed from the instant it was *due* to be sent, so a stalled
generator or engine shows as latency of the requests behind the stall; how
late the generator itself ran is reported as ``gen.late_ms_p99``.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from perfbench.bank import STATS_KEY, BenchBank, BenchBankFactory
from perfbench.common import (
    BACKEND,
    PROFILE,
    WorkloadResult,
    keep_ratios,
    guard_plan_stats,
    guard_workers,
    median,
    peak_rss_mb,
    percentile,
)
from perfbench.tracing import (
    Tracer,
    encoder_layer_metrics,
    encoder_levels,
    level_error,
    overhead_pct,
)

MAX_BATCH_SIZE = 4
P99_LIMIT_MS = 500.0
"""Latency limit of the rate ladder: a phase meets it when its p99 is at most
this and its queue drained within it after the last arrival.  On the seed
host p99 at R3 is 40-90 ms when quiet, but hypervisor steal from other
tenants pushed it past 300 ms at R2 in some runs; at 500 ms a phase fails for
a backlog that keeps growing, not for a slow minute of the host.  A backlog
at R3 outgrows the limit within the phase once capacity falls below about
120 req/s."""

CHECK_REQUESTS = 48
"""Requests of the untimed correctness phase."""

CHECK_STRIDE = 25
"""Every this-many-th measured request is also checked against the serial
reference (all of the check phase is)."""


@dataclass(frozen=True)
class ServeScale:
    rates_rps: tuple[float, float, float]
    shares: tuple[float, float, float]
    """Share of ``--seconds`` each ladder phase lasts (R2's share gives it at
    least 1000 requests at 20 s or more, enough for a p99 with ten samples
    beyond)."""
    setups: int
    num_layers: int = 2


SCALES = {
    "full": ServeScale(rates_rps=(50.0, 100.0, 150.0), shares=(0.3, 0.5, 0.2), setups=3),
    "tiny": ServeScale(rates_rps=(20.0, 40.0, 60.0), shares=(0.3, 0.4, 0.3), setups=2),
}


def shape_mix():
    """The serving benchmarks' weighted pyramid mix (two common signatures
    so the scheduler keeps re-grouping, and a rarer third); integer weights."""
    from repro.utils.shapes import LevelShape

    return (
        ((LevelShape(8, 12), LevelShape(4, 6)), 2.0),
        ((LevelShape(6, 8), LevelShape(3, 4)), 2.0),
        ((LevelShape(10, 14), LevelShape(5, 7)), 1.0),
    )


CLASS_MIX = (("fp32", 1.0), ("int12", 1.0))
D_MODEL = 64


def bank_spec(num_layers: int = 2):
    from repro.core.config import DEFAConfig
    from repro.engine.serving import ModelBankSpec

    return ModelBankSpec(
        num_layers=num_layers,
        d_model=D_MODEL,
        num_heads=4,
        num_levels=2,
        num_points=2,
        ffn_dim=128,
        rng_seed=0,
        classes=(
            ("fp32", DEFAConfig(quant_bits=None, kernel_backend=BACKEND)),
            (
                "int12",
                DEFAConfig(quant_bits=12, enable_query_pruning=True, kernel_backend=BACKEND),
            ),
        ),
        machine_profile=PROFILE,
    )


def traffic(count: int, rate: float, seed: int):
    """``count`` Poisson arrivals at exactly ``rate`` on average, over a
    balanced request mix.

    The arrival gaps are exponential, rescaled so the last request is due at
    ``count / rate`` (given the count, that is still a Poisson process), so
    every seed offers the same load.  Shapes and classes follow the mix
    weights exactly within every cycle of ten requests, in seeded order, so
    seeds differ in features, order and timing but not in the amount of work.
    """
    from repro.engine.batching import WorkItem
    from repro.engine.traffic import TrafficEvent

    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=count))
    arrivals *= (count / rate) / arrivals[-1]
    cycle = [
        (shapes, name)
        for shapes, weight in shape_mix()
        for name, _ in CLASS_MIX
        for _ in range(int(weight))
    ]
    events = []
    for i in range(count):
        if i % len(cycle) == 0:
            order = rng.permutation(len(cycle))
        shapes, name = cycle[order[i % len(cycle)]]
        n_in = sum(s.num_pixels for s in shapes)
        features = rng.standard_normal((n_in, D_MODEL)).astype(np.float32)
        item = WorkItem(item_id=f"req-{i:05d}", features=features, spatial_shapes=shapes)
        events.append(TrafficEvent(arrival_s=float(arrivals[i]), item=item, request_class=name))
    return events


class SwitchableClock:
    """Engine clock that can be frozen: with time standing still no group is
    ever flushed for waiting, so the batches of the check phase depend only
    on submission order (full groups, then the explicit flush)."""

    def __init__(self) -> None:
        self.frozen: float | None = None

    def __call__(self) -> float:
        return self.frozen if self.frozen is not None else time.monotonic()


class Outcome:
    """Completion instant and error of one request (set by the pump thread)."""

    __slots__ = ("done", "error")

    def __init__(self) -> None:
        self.done = 0.0
        self.error: BaseException | None = None


def _watch(future, outcome: Outcome, finished: threading.Semaphore) -> None:
    def callback(f) -> None:
        outcome.done = time.perf_counter()
        outcome.error = f.exception()
        finished.release()

    future.add_done_callback(callback)


def warm_up(engine, events) -> None:
    futures = [engine.submit(e.item, e.request_class) for e in events]
    for future in futures:
        future.result(timeout=60)


def run_phase(engine, events, keep_every: int):
    """Send ``events`` on their schedule, wait for all of them, and return the
    phase's per-request numbers plus the outputs kept for checking."""
    finished = threading.Semaphore(0)
    outcomes, futures, late = [], [], []
    start = time.perf_counter() + 0.02
    due = [start + e.arrival_s for e in events]
    for i, event in enumerate(events):
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late.append(time.perf_counter() - due[i])
        outcome = Outcome()
        future = engine.submit(event.item, event.request_class)
        _watch(future, outcome, finished)
        outcomes.append(outcome)
        futures.append(future)
    for _ in events:
        if not finished.acquire(timeout=120):
            raise TimeoutError("serving phase did not drain within 120 s")
    latencies = [o.done - d for o, d in zip(outcomes, due)]
    failed = sum(1 for o in outcomes if o.error is not None)
    kept = {
        i: futures[i].result()
        for i in range(0, len(events), keep_every)
        if outcomes[i].error is None
    }
    last_done = max(o.done for o in outcomes)
    return {
        "sent": len(events),
        "succeeded": len(events) - failed,
        "failed": failed,
        "offered_rps": len(events) / (due[-1] - start),
        "completed_rps": len(events) / (last_done - start),
        "latencies_s": latencies,
        "late_s": late,
        "window": (start, last_done),
        "drain_ms": 1e3 * (last_done - due[-1]),
        "kept": kept,
    }


def run(seed: int, seconds: float, trace: bool, scale: str = "full") -> WorkloadResult:
    from repro.engine.serving import ServingConfig, ServingEngine
    from repro.engine.traffic import serial_reference_outputs

    cfg = SCALES[scale]
    spec = bank_spec(cfg.num_layers)
    phases = [
        traffic(max(2, round(rate * share * seconds)), rate, seed * 16 + k)
        for k, (rate, share) in enumerate(zip(cfg.rates_rps, cfg.shares))
    ]
    check_events = traffic(CHECK_REQUESTS, 100.0, seed * 16 + 8)
    warm_events = traffic(24, 100.0, seed * 16 + 9)
    factory = BenchBankFactory(spec) if trace else spec.build
    clock = SwitchableClock()

    setups = []
    engine = None
    for _ in range(cfg.setups):
        if engine is not None:
            engine.shutdown()
        t0 = time.perf_counter()
        engine = ServingEngine(
            factory,
            ServingConfig(max_batch_size=MAX_BATCH_SIZE, num_workers=1),
            clock=clock,
        ).start()
        warm_up(engine, warm_events)
        setups.append(time.perf_counter() - t0)

    submit_tracer, poll_tracer = engine_tracers(engine, trace)
    try:
        guard_workers(engine)
        results = []
        batch_marks = [len(engine.stats.batches)]
        for events in phases:
            results.append(run_phase(engine, events, CHECK_STRIDE))
            batch_marks.append(len(engine.stats.batches))
        measured_batches = engine.stats.batches[batch_marks[0] : batch_marks[-1]]

        # Untimed check phase on a frozen clock: deterministic batching.
        clock.frozen = time.monotonic()
        check_futures = [engine.submit(e.item, e.request_class) for e in check_events]
        engine.flush(timeout=120)
        clock.frozen = None
        check_batches = engine.stats.batches[batch_marks[-1] :]
        check_served = [f.result(timeout=60) for f in check_futures]
        worker = guard_workers(engine)[0]
    finally:
        submit_tracer.unwrap_all()
        poll_tracer.unwrap_all()
        engine.shutdown()
    rss = peak_rss_mb()

    # Serial reference in this process, twice: the second pass must match
    # the first bit for bit and grow no arena.
    reference = BenchBank(spec.build(), trace=False)
    for name, runner in reference.runners.items():
        guard_plan_stats(f"reference runner {name!r}", runner.plan_stats())
    sampled = [
        (phases[k][i], out) for k, r in enumerate(results) for i, out in r["kept"].items()
    ]
    events = list(check_events) + [event for event, _ in sampled]
    served = check_served + [out for _, out in sampled]
    expected = serial_reference_outputs(reference, events)
    check_prune = reference.prune_log[:CHECK_REQUESTS]
    grows = sum(r.plan_stats()["grows"] for r in reference.runners.values())
    again = serial_reference_outputs(reference, events)
    grows_steady = sum(r.plan_stats()["grows"] for r in reference.runners.values()) - grows
    mismatched = sum(
        1 for got, want in zip(served, expected) if not np.array_equal(got, want)
    )
    primary_frac = primary_share(measured_batches)
    request_failures = sum(r["failed"] for r in results)
    checks = {
        "served_bit_equal_serial": mismatched == 0,
        "reference_repeats": all(np.array_equal(a, b) for a, b in zip(expected, again)),
        "plan_grows_steady_zero": grows_steady == 0,
        "kill_free_primary": primary_frac == 1.0,
        "no_request_failed": request_failures == 0,
    }

    attempted = sum(r["sent"] for r in results) + len(check_events)

    check_counts = Counter(f"{b.request_class}/{b.reason}/{b.size}" for b in check_batches)
    counters = {
        "sent_per_phase": [r["sent"] for r in results],
        "check_batches": dict(sorted(check_counts.items())),
        "check_prune_counts": check_prune,
        "plan_grows_steady": grows_steady,
        "primary_frac": primary_frac,
    }

    ladder = []
    for rate, r in zip(cfg.rates_rps, results):
        p99 = 1e3 * percentile(r["latencies_s"], 99.0)
        backlogged = r["drain_ms"] > P99_LIMIT_MS
        ladder.append(
            {
                "rate_rps": rate,
                "offered_rps": r["offered_rps"],
                "completed_rps": r["completed_rps"],
                "sent": r["sent"],
                "succeeded": r["succeeded"],
                "failed": r["failed"],
                "p50_ms": 1e3 * median(r["latencies_s"]),
                "p90_ms": 1e3 * percentile(r["latencies_s"], 90.0),
                "p99_ms": p99,
                "drain_ms": r["drain_ms"],
                "late_ms_p99": 1e3 * percentile(r["late_s"], 99.0),
                "backlogged": backlogged,
                "meets_limit": p99 <= P99_LIMIT_MS and not backlogged and r["failed"] == 0,
            }
        )
    passing = [p["completed_rps"] for p in ladder if p["meets_limit"]]
    details = {
        "ladder": ladder,
        "p99_limit_ms": P99_LIMIT_MS,
        "setups_s": setups,
        "measured_batches": len(measured_batches),
        "check_batches": len(check_batches),
        "mismatched": mismatched,
    }
    spans = {}
    if not trace:
        metrics = {
            "setup_s": median(setups),
            "throughput_per_s": results[-1]["completed_rps"],
            "latency_ms_p50": ladder[0]["p50_ms"],
            "max_rate_rps": max(passing) if passing else 0.0,
            "peak_rss_mb": rss,
        }
    else:
        records = worker[STATS_KEY]
        windows = [r["window"] for r in results]
        metrics = serving_layer_metrics(
            records, windows, [lat for r in results for lat in r["latencies_s"]]
        )
        metrics.update(engine_layer_metrics(submit_tracer, poll_tracer, windows))
        metrics.update(batch_metrics(measured_batches, primary_frac))
        levels = encoder_levels(records["spans"], records["sections"], cfg.num_layers)
        traced_requests = sum(f[3] for f in records["forwards"] if f[4])
        metrics.update(encoder_layer_metrics(levels, traced_requests))
        pixel, point = keep_ratios(check_prune)
        metrics.update(
            {
                "gen.late_ms_p99": 1e3 * percentile([x for r in results for x in r["late_s"]], 99),
                "prune.pixel_keep": pixel,
                "prune.point_keep": point,
                "plan.bytes": plan_bytes(worker) / 2**20,
                "plan.grows_steady": grows_steady,
                "trace.overhead_pct": forward_overhead_pct(records["forwards"], windows),
            }
        )
        details["levels_s"] = levels
        details["level_error_s"] = {k: level_error(v) for k, v in levels.items()}
        details["traced_requests"] = traced_requests
        spans = {
            "worker": records,
            "submit": submit_tracer.spans,
            "poll": poll_tracer.spans,
        }
    return WorkloadResult(
        metrics=metrics,
        attempted=attempted,
        failed=request_failures + mismatched,
        checks=checks,
        counters=counters,
        details=details,
        spans=spans,
    )


def plan_bytes(worker_stats: dict) -> int:
    return sum(
        stats["bytes"]
        for stats in worker_stats.values()
        if isinstance(stats, dict) and "bytes" in stats
    )


def in_windows(start: float, windows) -> bool:
    return any(lo <= start <= hi for lo, hi in windows)


def serving_layer_metrics(records: dict, windows, latencies_s) -> dict[str, float]:
    """Worker compute vs the non-compute residual of request latency.

    Each request experiences its whole batch's forward, so the compute share
    of the mean latency is the request-weighted mean forward time; the rest
    (queueing, transport both ways, resolving) is the residual.
    """
    forwards = [f for f in records["forwards"] if in_windows(f[0], windows)]
    requests = sum(f[3] for f in forwards)
    compute = sum((f[1] - f[0]) * f[3] for f in forwards) / max(requests, 1)
    busy = sum(f[1] - f[0] for f in forwards)
    wall = sum(hi - lo for lo, hi in windows)
    mean_latency = float(np.mean(latencies_s)) if len(latencies_s) else 0.0
    return {
        "worker.compute_ms_mean": 1e3 * compute,
        "worker.busy_frac": busy / wall if wall > 0 else 0.0,
        "serve.noncompute_ms_mean": 1e3 * (mean_latency - compute),
    }


def engine_layer_metrics(submit_tracer: Tracer, poll_tracer: Tracer, windows) -> dict[str, float]:
    submits = [s[2] - s[1] for s in submit_tracer.spans if in_windows(s[1], windows)]
    polls = sum(s[2] - s[1] for s in poll_tracer.spans if in_windows(s[1], windows))
    wall = sum(hi - lo for lo, hi in windows)
    return {
        "serve.submit_us": 1e6 * float(np.mean(submits)) if submits else 0.0,
        "serve.poll_busy_frac": polls / wall if wall > 0 else 0.0,
    }


def engine_tracers(engine, trace: bool) -> tuple[Tracer, Tracer]:
    """Tracers of the engine's ``submit`` (client thread) and ``poll`` (pump
    thread); separate, because the two threads interleave their calls."""
    submit_tracer, poll_tracer = Tracer(), Tracer()
    if trace:
        submit_tracer.wrap(engine, "submit", "submit")
        poll_tracer.wrap(engine, "poll", "poll")
    return submit_tracer, poll_tracer


def primary_share(batches) -> float:
    """Share of batches served by a worker process (not the fallback)."""
    return sum(1 for b in batches if b.path == "worker") / len(batches) if batches else 0.0


def batch_metrics(batches, primary_frac: float) -> dict[str, float]:
    return {
        "serve.batch_size_mean": float(np.mean([b.size for b in batches])) if batches else 0.0,
        "serve.batches_full": sum(1 for b in batches if b.reason == "full"),
        "serve.batches_wait": sum(1 for b in batches if b.reason == "wait"),
        "serve.primary_frac": primary_frac,
    }


def forward_overhead_pct(forwards, windows) -> float:
    """Tracing overhead on the measured batches: per-request forward time of
    the traced batches against the untraced ones (medians)."""
    per_request = {True: [], False: []}
    for start, end, _cls, size, traced in forwards:
        if in_windows(start, windows):
            per_request[traced].append((end - start) / size)
    return overhead_pct(per_request[True], per_request[False])
