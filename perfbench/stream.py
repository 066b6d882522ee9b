"""``stream_video``: a video service with temporal reuse.

Two closed-loop streams each submit their next frame when the previous one
resolves.  Frames are low-motion :class:`SyntheticVideoStream` frames at
``deformable_detr@medium`` (4,484 tokens, d=256, 6 blocks), generated lazily
(one paper-scale frame would be 18 MB), and go through the same
:class:`ServingEngine` as a stream-affine ``video`` class with
``keyframe_interval=8``.  Few requests with 4.6 MB payloads each way: here
transport matters and scheduling does not, the opposite of ``serve_mixed``.
It is the only workload where ``engine.streaming`` temporal reuse does the
work (warm frames, frozen rows, the reused fast path).
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass

import numpy as np

from perfbench.bank import STATS_KEY, BenchBank, BenchBankFactory
from perfbench.common import (
    BACKEND,
    PROFILE,
    WorkloadResult,
    keep_ratios,
    guard_workers,
    median,
    peak_rss_mb,
    percentile,
)
from perfbench.serve import (
    MAX_BATCH_SIZE,
    batch_metrics,
    engine_layer_metrics,
    engine_tracers,
    primary_share,
    serving_layer_metrics,
)
from perfbench.tracing import (
    encoder_layer_metrics,
    encoder_levels,
    level_error,
    overhead_pct,
)

NUM_STREAMS = 2
KEYFRAME_INTERVAL = 8
NUM_OBJECTS = 6
OBJECT_SIZE = 0.085
"""Six smaller objects rather than the default three: with three, the share
of rows a warm frame recomputes varied by 15 % (coefficient of variation)
from seed to seed, so the seed, not the program, set the frame rate.  Six
objects of radius 0.085 keep the default low motion and bring that to 8 %
at a mean of about 70 % of rows recomputed."""
CHECK_FRAMES = 2
"""Frames per stream replayed in-process and compared bit for bit (the cold
first frame and the warm frame after it); the loop always serves at least
this many per stream."""


@dataclass(frozen=True)
class StreamScale:
    workload_scale: str
    num_layers: int
    setups: int


SCALES = {
    "full": StreamScale(workload_scale="medium", num_layers=6, setups=3),
    "tiny": StreamScale(workload_scale="tiny", num_layers=2, setups=2),
}


def bank_spec(workload, num_layers: int):
    from repro.core.config import DEFAConfig
    from repro.engine.serving import ModelBankSpec
    from repro.engine.streaming import StreamingConfig

    model = workload.model
    video = DEFAConfig(
        fwp_k=1.0, quant_bits=12, enable_query_pruning=True, kernel_backend=BACKEND
    )
    return ModelBankSpec(
        num_layers=num_layers,
        d_model=model.d_model,
        num_heads=model.num_heads,
        num_levels=model.num_levels,
        num_points=model.num_points,
        ffn_dim=model.ffn_dim,
        rng_seed=0,
        classes=(),
        streams=(("video", video, StreamingConfig(keyframe_interval=KEYFRAME_INTERVAL)),),
        machine_profile=PROFILE,
    )


def make_streams(workload, seed: int):
    from repro.workloads.video import SyntheticVideoStream, VideoStreamSpec

    return [
        SyntheticVideoStream.from_workload(
            workload,
            VideoStreamSpec(
                num_objects=NUM_OBJECTS, object_size=OBJECT_SIZE, seed=seed * 16 + s
            ),
        )
        for s in range(NUM_STREAMS)
    ]


def frame_item(workload, stream, stream_id: str, index: int):
    from repro.engine.batching import WorkItem

    return WorkItem(
        item_id=f"{stream_id}/frame-{index:05d}",
        features=stream.frame(index),
        spatial_shapes=tuple(workload.spatial_shapes),
        stream_id=stream_id,
        frame_index=index,
    )


def run(seed: int, seconds: float, trace: bool, scale: str = "full") -> WorkloadResult:
    from repro.engine.serving import ServingConfig, ServingEngine
    from repro.engine.traffic import TrafficEvent, serial_reference_outputs
    from repro.workloads.specs import get_workload

    cfg = SCALES[scale]
    workload = get_workload("deformable_detr", cfg.workload_scale)
    spec = bank_spec(workload, cfg.num_layers)
    streams = make_streams(workload, seed)
    stream_ids = [f"stream-{s}" for s in range(NUM_STREAMS)]
    warm_stream = make_streams(workload, seed + 7919)[0]
    factory = BenchBankFactory(spec) if trace else spec.build

    setups = []
    engine = None
    for k in range(cfg.setups):
        if engine is not None:
            engine.shutdown()
        warm = frame_item(workload, warm_stream, f"warmup-{k}", 0)
        t0 = time.perf_counter()
        engine = ServingEngine(
            factory, ServingConfig(max_batch_size=MAX_BATCH_SIZE, num_workers=1)
        ).start()
        engine.submit(warm, "video").result(timeout=120)
        setups.append(time.perf_counter() - t0)

    submit_tracer, poll_tracer = engine_tracers(engine, trace)
    latencies: list[float] = []
    served: dict[tuple[int, int], np.ndarray] = {}
    errors = 0
    try:
        guard_workers(engine)
        batch_mark = len(engine.stats.batches)
        next_frame = [0] * NUM_STREAMS
        pending = {}
        start = time.perf_counter()

        def submit(s: int) -> None:
            item = frame_item(workload, streams[s], stream_ids[s], next_frame[s])
            pending[engine.submit(item, "video")] = (s, next_frame[s], time.perf_counter())
            next_frame[s] += 1

        for s in range(NUM_STREAMS):
            submit(s)
        last_done = start
        while pending:
            done, _ = wait(list(pending), timeout=120, return_when=FIRST_COMPLETED)
            if not done:
                raise TimeoutError("no frame resolved within 120 s")
            now = time.perf_counter()
            for future in done:
                s, index, sent = pending.pop(future)
                last_done = now
                latencies.append(now - sent)
                if future.exception() is not None:
                    errors += 1
                elif index < CHECK_FRAMES:
                    served[(s, index)] = future.result()
                if next_frame[s] < CHECK_FRAMES or now - start < seconds:
                    submit(s)
        window = (start, last_done)
        measured_batches = engine.stats.batches[batch_mark:]
        worker = guard_workers(engine)[0]
    finally:
        submit_tracer.unwrap_all()
        poll_tracer.unwrap_all()
        engine.shutdown()
    rss = peak_rss_mb()

    # In-process replay of the first frames of every stream through the same
    # bank spec: served frames must match bit for bit.  Then one stream is
    # reset and replayed again: same outputs, and no arena may grow.
    reference = BenchBank(spec.build(), trace=False)
    keys = [(s, i) for s in range(NUM_STREAMS) for i in range(CHECK_FRAMES)]
    events = [
        TrafficEvent(0.0, frame_item(workload, streams[s], stream_ids[s], i), "video")
        for s, i in keys
    ]
    expected = serial_reference_outputs(reference, events)
    replay = list(reference.frame_log)
    mismatched = sum(
        1 for key, want in zip(keys, expected) if not np.array_equal(served.get(key), want)
    )
    session = reference.streaming["video"].sessions[stream_ids[0]]
    grows = session.plan_stats()["grows"]
    session.reset()
    again = [
        session.process(e.item.features, e.item.frame_index).memory
        for e in events[:CHECK_FRAMES]
    ]
    grows_steady = session.plan_stats()["grows"] - grows
    primary_frac = primary_share(measured_batches)
    checks = {
        "served_bit_equal_replay": mismatched == 0,
        "replay_repeats": all(
            np.array_equal(a, b) for a, b in zip(again, expected[:CHECK_FRAMES])
        ),
        "plan_grows_steady_zero": grows_steady == 0,
        "kill_free_primary": primary_frac == 1.0,
        "no_frame_failed": errors == 0,
    }

    kinds = [f[2] for f in replay]
    counters = {
        "replay_kinds": kinds,
        "replay_rows": [[f[3], f[4]] for f in replay],
        "replay_prune_counts": [f[8] for f in replay],
        "plan_grows_steady": grows_steady,
        "primary_frac": primary_frac,
    }
    frames = len(latencies)
    throughput = frames / (window[1] - window[0])
    details = {
        "workload": workload.name,
        "frames": frames,
        "frames_per_stream": next_frame,
        "setups_s": setups,
        "latencies_ms": [1e3 * t for t in latencies],
        "latency_ms_p99_unresolved": 1e3 * percentile(latencies, 99.0),
        "mismatched": mismatched,
    }
    spans = {}
    if not trace:
        metrics = {
            "setup_s": median(setups),
            "throughput_per_s": throughput,
            "latency_ms_p50": 1e3 * median(latencies),
            # Closed loop: the streams keep the worker saturated, so the
            # highest sustainable frame rate is the measured throughput.
            "max_rate_rps": throughput,
            "peak_rss_mb": rss,
        }
    else:
        records = worker[STATS_KEY]
        served_frames = [
            f for f in records["frames"] if f[0] in stream_ids and window[0] <= f[5] <= window[1]
        ]
        metrics = serving_layer_metrics(records, [window], latencies)
        metrics["stream.noncompute_ms_mean"] = metrics["serve.noncompute_ms_mean"]
        metrics.update(engine_layer_metrics(submit_tracer, poll_tracer, [window]))
        metrics.update(batch_metrics(measured_batches, primary_frac))
        metrics.update(frame_metrics(served_frames))
        levels = encoder_levels(records["spans"], records["sections"], cfg.num_layers)
        traced_frames = sum(1 for f in records["frames"] if f[7])
        metrics.update(encoder_layer_metrics(levels, traced_frames))
        pixel, point = keep_ratios(counters["replay_prune_counts"])
        metrics.update(
            {
                "prune.pixel_keep": pixel,
                "prune.point_keep": point,
                "plan.bytes": worker["video"]["bytes"] / 2**20,
                "plan.grows_steady": grows_steady,
                "trace.overhead_pct": warm_overhead_pct(served_frames),
            }
        )
        details["levels_s"] = levels
        details["level_error_s"] = {k: level_error(v) for k, v in levels.items()}
        details["traced_frames"] = traced_frames
        spans = {"worker": records, "submit": submit_tracer.spans, "poll": poll_tracer.spans}
    return WorkloadResult(
        metrics=metrics,
        attempted=frames,
        failed=errors + mismatched,
        checks=checks,
        counters=counters,
        details=details,
        spans=spans,
    )


def frame_metrics(frames) -> dict[str, float]:
    """Session time by frame kind, frame-kind counts and useful-row share."""
    by_kind = {"cold": [], "warm": [], "reused": []}
    for f in frames:
        by_kind[f[2]].append(f[6] - f[5])
    rows = sum(f[3] for f in frames)
    total = sum(f[4] for f in frames)
    return {
        "stream.cold_frame_ms": 1e3 * float(np.mean(by_kind["cold"])) if by_kind["cold"] else 0.0,
        "stream.warm_frame_ms": 1e3 * float(np.mean(by_kind["warm"])) if by_kind["warm"] else 0.0,
        "stream.rows_computed_frac": rows / total if total else 0.0,
        "stream.frames_cold": len(by_kind["cold"]),
        "stream.frames_warm": len(by_kind["warm"]),
        "stream.frames_reused": len(by_kind["reused"]),
    }


def warm_overhead_pct(frames) -> float:
    """Tracing overhead on warm frames: traced against untraced session time."""
    warm = [(f[6] - f[5], f[7]) for f in frames if f[2] == "warm"]
    return overhead_pct([t for t, on in warm if on], [t for t, on in warm if not on])
