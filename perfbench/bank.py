"""Benchmark-side model bank: the serving program's own bank, observed.

:class:`BenchBank` wraps a bank built by :meth:`ModelBankSpec.build` (same
forwards, runners and streaming servers) and records, from outside the
program's code:

* every ``ModelBank.forward`` call — start, end, class, batch size — the
  worker's compute time;
* every streaming frame — kind, computed rows, prune counts — by wrapping
  each new session's public ``process``;
* every stateless request's prune counts, by wrapping the runners' public
  ``forward_batched``;
* with ``trace=True``, encoder/block spans and kernel sections on every
  second batch (every odd frame of a stream), so the run states its own
  tracing overhead.

Inside a worker process the records travel back through the only public
channel there is: :meth:`plan_stats`, which ``ServingEngine.worker_stats()``
returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine.serving import ModelBank, ModelBankSpec

from perfbench.tracing import Tracer, instrument_encoder

STATS_KEY = "_bench"
"""Key of the benchmark records inside :meth:`BenchBank.plan_stats`; it has
no ``backend`` entry, so per-class guards skip it."""


def prune_counts(layer_stats) -> list[list[int]]:
    """Exact per-block FWP/PAP counts of one image or frame."""
    return [
        [s.pixels_kept, s.pixels_total, s.points_kept, s.points_total]
        for s in layer_stats
    ]


class BenchBank(ModelBank):
    """A :class:`ModelBank` that records what it serves (see module doc)."""

    def __init__(self, bank: ModelBank, trace: bool) -> None:
        super().__init__(bank.forwards, bank.runners, bank.streaming, bank.fault_plan)
        self.trace = trace
        self.tracer = Tracer()
        self.forward_log: list[tuple] = []
        """``(start, end, request_class, batch_size, traced)`` per forward."""
        self.frame_log: list[tuple] = []
        """``(stream_id, frame_index, kind, computed_rows, total_rows, start,
        end, traced, prune_counts)`` per streaming frame."""
        self.prune_log: list[list[list[int]]] = []
        """Prune counts per stateless request, in execution order."""
        self._calls = 0
        for runner in self.runners.values():
            self._observe_runner(runner)
            if trace:
                instrument_encoder(self.tracer, runner, "forward_batched")
        for server in self.streaming.values():
            self._observe_server(server)

    def _observe_runner(self, runner) -> None:
        original = runner.forward_batched
        log = self.prune_log

        def forward_batched(*args, **kwargs):
            result = original(*args, **kwargs)
            log.extend(prune_counts(image.layer_stats) for image in result.images)
            return result

        runner.forward_batched = forward_batched

    def _observe_server(self, server) -> None:
        original = server.session

        def session(stream_id, spatial_shapes):
            fresh = stream_id not in server.sessions
            sess = original(stream_id, spatial_shapes)
            if fresh:
                self._observe_session(stream_id, sess)
            return sess

        server.session = session

    def _observe_session(self, stream_id: str, session) -> None:
        if self.trace:
            instrument_encoder(self.tracer, session.runner, "forward")
            self.tracer.wrap(session, "process", "session")
        original = session.process
        log = self.frame_log
        tracer = self.tracer

        def process(features, frame_index=None):
            start = time.perf_counter()
            result = original(features, frame_index)
            log.append(
                (
                    stream_id,
                    result.frame_index,
                    result.kind,
                    result.computed_rows,
                    result.total_rows,
                    start,
                    time.perf_counter(),
                    self.trace and tracer.enabled,
                    prune_counts(result.layer_stats),
                )
            )
            return result

        session.process = process

    def forward(self, request_class, features, spatial_shapes, meta=None):
        # Trace every second batch, or every odd frame of a stream: parity of
        # the call count would trace one of two interleaved streams only.
        parity = meta[0][1] if meta else self._calls
        traced = self.trace and parity % 2 == 1
        self._calls += 1
        self.tracer.enabled = traced
        start = time.perf_counter()
        if traced:
            with self.tracer.kernel_sections():
                out = super().forward(request_class, features, spatial_shapes, meta)
        else:
            out = super().forward(request_class, features, spatial_shapes, meta)
        self.forward_log.append(
            (start, time.perf_counter(), request_class, int(features.shape[0]), traced)
        )
        return out

    def records(self) -> dict:
        return {
            "forwards": self.forward_log,
            "frames": self.frame_log,
            "prune": self.prune_log,
            "spans": self.tracer.spans,
            "sections": self.tracer.sections,
        }

    def plan_stats(self) -> dict:
        stats = super().plan_stats()
        stats[STATS_KEY] = self.records()
        return stats


@dataclass(frozen=True)
class BenchBankFactory:
    """Picklable zero-argument bank factory for :class:`ServingEngine`."""

    spec: ModelBankSpec
    trace: bool = True

    def __call__(self) -> BenchBank:
        return BenchBank(self.spec.build(), trace=self.trace)
