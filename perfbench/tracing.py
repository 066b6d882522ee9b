"""Span tracing from outside the program, and the partition arithmetic.

The benchmark adds no tracing inside ``src/``.  A :class:`Tracer` instead
replaces public methods *on the benchmark's own instances* (an instance
attribute shadows the class method) with wrappers that record one span per
call: name, start, end and the index of the enclosing span.  Kernel sections
come from the repo's public :func:`~repro.utils.timing.collect_kernel_timings`
collector, whose ``record`` hook is redirected on the collector instance so
every section call is kept as an interval instead of a running sum — which
lets nested sections be detected and counted once.

Spans stay in memory and are written out at the end of the run.  The
summaries here turn them into per-layer self times plus an explicit
``unattributed`` residual per level, so each level adds up to its wall time
by construction.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

KERNEL_SECTIONS = (
    "query_proj",
    "value_proj",
    "neighbors",
    "gather",
    "aggregate",
    "fwp",
    "output_proj",
    "norm",
    "ffn",
)
"""Every ``kernel_section`` name the repo's kernels mark.  The compiled backend
fuses the sparse ``gather`` into ``aggregate``; the dense MSGS path, which the
small serving pyramids take, still marks ``gather``."""


class Tracer:
    """In-memory span recorder driven by method wrappers.

    ``enabled`` toggles recording per item, so one run can interleave traced
    and untraced items and state the tracing overhead against itself.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        """``[name, start, end, parent_index]`` per call, in call order."""
        self.sections: list[tuple[str, float, float]] = []
        """``(section, start, end)`` per kernel-section call."""
        self.enabled = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str]] = []

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Record a span named *name* around every ``obj.attr(...)`` call."""
        original = getattr(obj, attr)

        def traced(*args, **kwargs):
            # A method re-entering itself (the FFN stage falls back to its own
            # dense form) stays inside the outer call's span.
            if not self.enabled or (self._stack and self.spans[self._stack[-1]][0] == name):
                return original(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()

        setattr(obj, attr, traced)
        self._restore.append((obj, attr))

    def unwrap_all(self) -> None:
        """Remove every wrapper (the class methods show through again)."""
        for obj, attr in reversed(self._restore):
            delattr(obj, attr)
        self._restore.clear()

    @contextmanager
    def kernel_sections(self) -> Iterator[None]:
        """Collect kernel-section intervals for the enclosed region."""
        from repro.utils.timing import collect_kernel_timings

        with collect_kernel_timings() as timings:
            sections = self.sections

            def record(name: str, elapsed: float) -> None:
                end = time.perf_counter()
                sections.append((name, end - elapsed, end))

            timings.record = record
            yield


def top_level(intervals: list[tuple[str, float, float]]) -> list[tuple[str, float, float]]:
    """The intervals not contained in an earlier-starting one.

    Sections nest (a backend may mark ``gather`` inside another section);
    only the outermost call of a nest belongs to the level's partition.
    """
    result = []
    reach = float("-inf")
    for name, start, end in sorted(intervals, key=lambda iv: (iv[1], -iv[2])):
        if end <= reach:
            continue
        result.append((name, start, end))
        reach = max(reach, end)
    return result


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``wall`` (summed durations), ``self`` (wall minus the
    part covered by child spans) and ``calls``.  Seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"wall": 0.0, "self": 0.0, "calls": 0}
    )
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["wall"] += end - start
        entry["self"] += end - start - child_time[index]
        entry["calls"] += 1
    return dict(out)


def partition(wall: float, parts: dict[str, float]) -> dict[str, float]:
    """``parts`` plus the explicit ``unattributed`` residual: the returned
    values sum to ``wall`` exactly (up to float rounding)."""
    out = dict(parts)
    out["unattributed"] = wall - sum(parts.values())
    return out


def encoder_levels(
    spans: list[list],
    sections: list[tuple[str, float, float]],
    num_blocks: int,
) -> dict[str, dict[str, float]]:
    """The two encoder levels of a traced run, in seconds (summed over items).

    * ``encoder``: the wall of every ``encoder`` span (a runner forward)
      split into ``block{j}.attn`` / ``block{j}.ffn`` spans plus the
      runner's own ``glue`` (its self time — the unattributed residual of
      this level).
    * ``kernel``: the wall of all block spans split into top-level kernel
      sections plus ``unattributed``.

    Each level also carries ``wall`` so a reader can check the sum.
    """
    times = self_times(spans)
    blocks = {}
    for j in range(num_blocks):
        for stage in ("attn", "ffn"):
            key = f"block{j}.{stage}"
            blocks[key] = times.get(key, {"wall": 0.0})["wall"]
    encoder_wall = times.get("encoder", {"wall": 0.0})["wall"]
    encoder = partition(encoder_wall, blocks)
    encoder["glue"] = encoder.pop("unattributed")
    encoder["wall"] = encoder_wall

    block_wall = sum(blocks.values())
    per_section: dict[str, float] = {name: 0.0 for name in KERNEL_SECTIONS}
    for name, start, end in top_level(sections):
        per_section[name] = per_section.get(name, 0.0) + (end - start)
    kernel = partition(block_wall, per_section)
    kernel["wall"] = block_wall
    return {"encoder": encoder, "kernel": kernel}


def level_error(level: dict[str, float]) -> float:
    """``|sum(parts) - wall|`` of one level from :func:`encoder_levels`."""
    parts = sum(value for key, value in level.items() if key != "wall")
    return abs(parts - level["wall"])


def instrument_encoder(tracer: Tracer, runner, method: str = "forward") -> None:
    """Wrap a runner's forward and every block of its attention/FFN stages.

    ``method`` is the runner entry the caller uses (``forward`` for single
    images, ``forward_batched`` for the serving adapters).  Encoder layers
    may be shared between runners; each is wrapped once.
    """
    tracer.wrap(runner, method, "encoder")
    for j, attn in enumerate(runner.defa_layers):
        tracer.wrap(attn, "forward_detailed", f"block{j}.attn")
    for j, layer in enumerate(runner.encoder.layers):
        if "forward_ffn_stage" not in vars(layer):
            tracer.wrap(layer, "forward_ffn_stage", f"block{j}.ffn")


def encoder_layer_metrics(levels: dict, items: int) -> dict[str, float]:
    """Per-item (image, request or frame) ms of the encoder and kernel levels."""
    scale = 1e3 / max(items, 1)
    encoder, kernel = levels["encoder"], levels["kernel"]
    metrics = {
        "encoder.forward_ms": scale * encoder["wall"],
        "encoder.glue_ms": scale * encoder["glue"],
    }
    for key, value in encoder.items():
        if key.startswith("block"):
            metrics[f"{key}_ms"] = scale * value
    for key, value in kernel.items():
        if key != "wall":
            metrics[f"kernel.{key}_ms"] = scale * value
    return metrics


def overhead_pct(traced: list[float], untraced: list[float]) -> float:
    """Median traced item time over median untraced item time, minus 1, %."""
    if not traced or not untraced:
        return 0.0
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
