"""``encode_paper``: offline detection encoding at the paper's operating point.

A closed loop with one client runs :meth:`DEFAEncoderRunner.forward` one
image at a time on ``deformable_detr@paper`` (800x1066, 17,821 tokens, 4
levels, d=256, 6 blocks) under INT12, ``fwp_k=1.0``, PAP 0.035 and query
pruning.  Images are distinct seeded ``synthetic_features``; the seed also
draws each image's hotspot count.  The sparse kernels, projections and FFN do
nearly all the work here and the serving engine none, so an engine change
predicts no change on this workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from perfbench.common import (
    BACKEND,
    PROFILE,
    WorkloadResult,
    keep_ratios,
    guard_plan_stats,
    median,
    peak_rss_mb,
    percentile,
)
from perfbench.tracing import (
    Tracer,
    encoder_layer_metrics,
    encoder_levels,
    instrument_encoder,
    level_error,
    overhead_pct,
)

INT12_BLOCK_TOL = 2e-2
"""Block-wise sparse/masked-dense drift bound for INT12 encoder blocks: the
repo's existing encoder INT12 tier (``ENCODER_INT12_TOL`` of
``benchmarks/bench_sparse_speedup.py``) — a few quantization steps, widened
by the LayerNorm/FFN stage inside the block."""

COUNTED_IMAGES = 3
"""The first images of every run feed the exact counters (the loop always
runs at least this many, so the counters never depend on speed)."""


@dataclass(frozen=True)
class EncodeScale:
    workload_scale: str
    num_layers: int
    setups: int


SCALES = {
    "full": EncodeScale(workload_scale="paper", num_layers=6, setups=3),
    "tiny": EncodeScale(workload_scale="tiny", num_layers=2, setups=2),
}


def encode_config():
    from repro.core.config import DEFAConfig

    return DEFAConfig(
        fwp_k=1.0,
        pap_threshold=0.035,
        quant_bits=12,
        enable_query_pruning=True,
        kernel_backend=BACKEND,
    )


class EncodeInputs:
    """Seeded images: measured image ``i`` and warm-up image ``k`` come from
    disjoint seed streams, so set-up never sees a measured image."""

    def __init__(self, spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed

    def _draw(self, stream: int, index: int) -> tuple[int, np.ndarray]:
        from repro.workloads.traces import synthetic_features

        rng = np.random.default_rng([self.seed, stream, index])
        hotspots = int(rng.integers(4, 13))
        return hotspots, synthetic_features(self.spec, num_hotspots=hotspots, rng=rng)

    def image(self, index: int) -> tuple[int, np.ndarray]:
        return self._draw(0, index)

    def warmup(self, index: int) -> np.ndarray:
        return self._draw(1, index)[1]


class EncoderModel:
    """One built encoder + runner with its positional inputs."""

    def __init__(self, spec, num_layers: int) -> None:
        from repro.core.encoder_runner import DEFAEncoderRunner
        from repro.kernels import ExecutionOptions
        from repro.nn.encoder import DeformableEncoder
        from repro.nn.positional import make_reference_points, sine_positional_encoding

        model = spec.model
        self.shapes = spec.spatial_shapes
        self.encoder = DeformableEncoder(
            num_layers=num_layers,
            d_model=model.d_model,
            num_heads=model.num_heads,
            num_levels=model.num_levels,
            num_points=model.num_points,
            ffn_dim=model.ffn_dim,
            activation=model.activation,
            rng=0,
        )
        self.runner = DEFAEncoderRunner(
            self.encoder, encode_config(), ExecutionOptions(machine_profile=PROFILE)
        )
        self.pos = sine_positional_encoding(self.shapes, model.d_model)
        self.reference_points = make_reference_points(self.shapes)

    def forward(self, image: np.ndarray):
        return self.runner.forward(image, self.pos, self.reference_points, self.shapes)


def layer_counts(result) -> list[list[int]]:
    """Exact per-block prune counts of one forward."""
    return [
        [s.pixels_kept, s.pixels_total, s.points_kept, s.points_total, s.pixels_kept_next]
        for s in result.layer_stats
    ]


class BlockCapture:
    """Record the exact inputs and outputs of chosen encoder blocks during one
    forward, by wrapping the public block calls on the runner's instances."""

    def __init__(self, runner, blocks: list[int]) -> None:
        self.records: dict[int, dict] = {j: {} for j in blocks}
        self._wrapped = []
        for j in blocks:
            self._wrap(runner.defa_layers[j], "forward_detailed", j, self._attn)
            self._wrap(runner.encoder.layers[j], "forward_ffn_stage", j, self._ffn)

    def _wrap(self, obj, attr, j, hook) -> None:
        original = getattr(obj, attr)

        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            hook(self.records[j], args, kwargs, out)
            return out

        setattr(obj, attr, wrapped)
        self._wrapped.append((obj, attr))

    @staticmethod
    def _attn(record, args, kwargs, out) -> None:
        mask = kwargs.get("fmap_mask")
        record["query"] = np.array(args[0])
        record["x"] = np.array(args[2])
        record["mask"] = None if mask is None else np.array(mask)
        record["mask_next"] = np.array(out.fmap_mask_next)

    @staticmethod
    def _ffn(record, args, kwargs, out) -> None:
        record["out"] = np.array(out)

    def remove(self) -> None:
        for obj, attr in self._wrapped:
            delattr(obj, attr)


def check_blocks(num_layers: int, seed: int) -> list[int]:
    """The block checked against masked-dense execution: one masked block
    (1..L-1) chosen by the seed, so every masked block is covered across
    seeds; checking all of them would add a dense forward to every run."""
    if num_layers < 2:
        return [0]
    return [1 + seed % (num_layers - 1)]


def blockwise_drift(model: EncoderModel, records: dict[int, dict]) -> tuple[float, bool]:
    """Max drift of each captured block against masked-dense execution of the
    same block input and recorded incoming mask, and whether the generated
    next-block masks agree exactly."""
    from repro.core.encoder_runner import DEFAEncoderRunner
    from repro.kernels import ExecutionOptions

    dense = DEFAEncoderRunner(
        model.encoder,
        encode_config(),
        ExecutionOptions(sparse_mode="dense", machine_profile=PROFILE),
    )
    drift = 0.0
    masks_equal = True
    for j, record in records.items():
        attn = dense.defa_layers[j].forward_detailed(
            record["query"],
            model.reference_points,
            record["x"],
            model.shapes,
            fmap_mask=record["mask"],
        )
        keep, compact = dense.ffn_stage_plan(record["mask"], record["x"].shape[0])
        out = dense.encoder.layers[j].forward_ffn_stage(
            record["x"], attn.output, keep_mask=keep, compact=compact
        )
        drift = max(drift, float(np.max(np.abs(out - record["out"]))))
        masks_equal &= bool(np.array_equal(attn.fmap_mask_next, record["mask_next"]))
    return drift, masks_equal


def run(seed: int, seconds: float, trace: bool, scale: str = "full") -> WorkloadResult:
    from repro.workloads.specs import get_workload

    cfg = SCALES[scale]
    spec = get_workload("deformable_detr", cfg.workload_scale)
    inputs = EncodeInputs(spec, seed)

    # Set-up: build the model and warm its arenas, several times; the last
    # build is the one measured.
    setups = []
    model = None
    for k in range(cfg.setups):
        warm = inputs.warmup(k)
        model = None  # release the previous arenas before building again
        t0 = time.perf_counter()
        model = EncoderModel(spec, cfg.num_layers)
        model.forward(warm)
        setups.append(time.perf_counter() - t0)
    runner = model.runner
    guard_plan_stats("encoder runner", runner.plan_stats())

    tracer = Tracer() if trace else None
    if tracer is not None:
        instrument_encoder(tracer, runner)

    latencies, traced, untraced, hotspots, counts = [], [], [], [], []
    first = None
    start = time.perf_counter()
    index = 0
    while index < COUNTED_IMAGES or time.perf_counter() - start < seconds:
        spots, image = inputs.image(index)
        on = tracer is not None and index % 2 == 1
        if tracer is not None:
            tracer.enabled = on
        t0 = time.perf_counter()
        if on:
            with tracer.kernel_sections():
                result = model.forward(image)
        else:
            result = model.forward(image)
        elapsed = time.perf_counter() - t0
        latencies.append(elapsed)
        (traced if on else untraced).append(elapsed)
        hotspots.append(spots)
        counts.append(layer_counts(result))
        if first is None:
            first = (image, result.memory)
        index += 1
    rss = peak_rss_mb()
    plan = runner.plan_stats()
    if tracer is not None:
        tracer.unwrap_all()

    # Correctness, outside the timed window: re-run the first image (it must
    # reproduce its output bit for bit without growing the warm arenas), and
    # check one block of that re-run against masked-dense execution of the
    # mask it recorded.
    blocks = check_blocks(cfg.num_layers, seed)
    grows_before = runner.plan_stats()["grows"]
    capture = BlockCapture(runner, blocks)
    try:
        rerun = model.forward(first[0])
    finally:
        capture.remove()
    grows_steady = runner.plan_stats()["grows"] - grows_before
    drift, masks_equal = blockwise_drift(model, capture.records)
    checks = {
        "rerun_bit_equal": bool(np.array_equal(rerun.memory, first[1])),
        "blockwise_masked_dense": drift <= INT12_BLOCK_TOL and masks_equal,
        "plan_grows_steady_zero": grows_steady == 0,
    }

    pixel_keep, point_keep = keep_ratios(counts)
    counters = {
        "prune_counts": counts[:COUNTED_IMAGES],
        "hotspots": hotspots[:COUNTED_IMAGES],
        "plan_grows_steady": grows_steady,
    }
    details = {
        "workload": spec.name,
        "num_layers": cfg.num_layers,
        "images": len(latencies),
        "latencies_ms": [1e3 * t for t in latencies],
        "latency_ms_p99_unresolved": 1e3 * percentile(latencies, 99.0),
        "setups_s": setups,
        "hotspots": hotspots,
        "check_blocks": blocks,
        "blockwise_drift": drift,
        "blockwise_tol": INT12_BLOCK_TOL,
        "plan": plan,
    }
    spans = {}
    if tracer is None:
        throughput = len(latencies) / sum(latencies)
        metrics = {
            "setup_s": median(setups),
            "throughput_per_s": throughput,
            "latency_ms_p50": 1e3 * median(latencies),
            # A closed loop with one client keeps the encoder always busy, so
            # the highest rate it can sustain is its throughput.
            "max_rate_rps": throughput,
            "peak_rss_mb": rss,
        }
    else:
        levels = encoder_levels(tracer.spans, tracer.sections, cfg.num_layers)
        details["levels_s"] = levels
        details["level_error_s"] = {k: level_error(v) for k, v in levels.items()}
        metrics = encoder_layer_metrics(levels, len(traced))
        metrics.update(
            {
                "prune.pixel_keep": pixel_keep,
                "prune.point_keep": point_keep,
                "plan.bytes": plan["bytes"] / 2**20,
                "plan.grows_steady": grows_steady,
                "trace.overhead_pct": overhead_pct(traced, untraced),
            }
        )
        spans = {"spans": tracer.spans, "sections": tracer.sections}
    return WorkloadResult(
        metrics=metrics,
        attempted=len(latencies),
        failed=0,
        checks=checks,
        counters=counters,
        details=details,
        spans=spans,
    )
