"""Zero-allocation execution plans: a capacity-growing named buffer arena.

Steady-state encoder forwards re-allocate every intermediate on every block
(compact gathers, projection outputs, FFN hidden buffers, masks).  On a
single-core NumPy substrate those allocations are not free: arrays above the
malloc mmap threshold are returned to the OS on free, so every block pays
mmap + page-fault + TLB churn for hundreds of megabytes of temporaries.  An
:class:`ExecutionPlan` removes that traffic: each named intermediate is
allocated once at its high-water-mark capacity and reused across blocks and
across :class:`~repro.engine.batching.BatchRunner` work items.

Usage and lifetime rules
------------------------

* ``plan.buffer(name, shape, dtype)`` returns an array view of exactly
  ``shape``.  The *content* of a named buffer stays valid only until the next
  ``buffer()`` request with the same name — a name identifies one logical
  intermediate of the execution, not a storage slot to hold on to.
* Buffers grow monotonically: a request larger than the cached capacity
  reallocates (counted in :attr:`grows`), a smaller one reuses the prefix.
  After one warm forward per shape signature the plan is at its high-water
  mark and subsequent forwards perform no large allocations.
* Plans are keyed by the caller on ``(shape-signature, batch-size)`` (see
  :meth:`repro.core.encoder_runner.DEFAEncoderRunner.execution_plan`): a
  shape-signature change means a *new* plan, never a resize-in-place of a
  live one, so two signatures interleaved (the BatchRunner regime) each keep
  their own warm arena.
* Nothing returned to an API caller may alias a plan buffer (results must
  survive the next forward); callers copy the final output out of the arena.
  The aliasing-corruption test in ``tests/test_kernels.py`` pins this.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ExecutionPlan"]


class ExecutionPlan:
    """Named-buffer arena for the per-block intermediates of one runner.

    Not thread-safe (neither is the NumPy substrate it serves); one plan
    belongs to one runner and one shape signature.
    """

    def __init__(self, max_buffer_bytes: int | None = None) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}
        self.max_buffer_bytes = max_buffer_bytes
        """Per-buffer retention cap: requests larger than this are served
        fresh and *not* cached, so a long-lived arena (e.g. the fused
        backend's plan-less scratch) never pins a one-off large workload's
        high-water mark for the process lifetime.  ``None`` (the default for
        runner-owned plans, whose lifetime matches their workload) retains
        everything."""

        self.hits = 0
        """Requests served from an existing buffer without allocating."""
        self.grows = 0
        """Requests that had to allocate (first use, capacity growth, or an
        over-cap transient)."""

    def buffer(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """An uninitialised array of exactly *shape*, reusing cached capacity.

        The returned array is a view into the arena; its previous content is
        arbitrary (use :meth:`zeros` / :meth:`full` for initialised buffers).
        """
        dt = np.dtype(dtype)
        size = int(np.prod(shape)) if shape else 1
        if self.max_buffer_bytes is not None and size * dt.itemsize > self.max_buffer_bytes:
            self.grows += 1
            return np.empty(shape, dtype=dt)  # transient: never retained
        key = (name, dt)
        flat = self._buffers.get(key)
        if flat is None or flat.size < size:
            flat = np.empty(max(size, 1), dtype=dt)
            self._buffers[key] = flat
            self.grows += 1
        else:
            self.hits += 1
        return flat[:size].reshape(shape)

    def zeros(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """A zero-filled buffer (memset of reused capacity, no allocation)."""
        out = self.buffer(name, shape, dtype)
        out.fill(0)
        return out

    def take(
        self, name: str, source: np.ndarray, indices: np.ndarray, axis: int = 0
    ) -> np.ndarray:
        """``np.take(source, indices, axis)`` gathered into a plan buffer.

        numpy's default ``mode="raise"`` gathers through a temporary copy of
        ``out`` (nothing may be written before every index is checked).  One
        bounds check up front lets in-range indices use ``mode="clip"``,
        which writes straight into the buffer with the same result; negative
        or out-of-range indices keep the ``"raise"`` call and its semantics.
        """
        indices = np.asarray(indices)
        shape = source.shape[:axis] + indices.shape + source.shape[axis + 1 :]
        out = self.buffer(name, shape, source.dtype)
        if indices.size == 0 or (
            indices.min() >= 0 and indices.max() < source.shape[axis]
        ):
            np.take(source, indices, axis=axis, out=out, mode="clip")
        else:
            np.take(source, indices, axis=axis, out=out)
        return out

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    @property
    def allocated_bytes(self) -> int:
        """Total arena capacity in bytes (the steady-state footprint)."""
        return int(sum(b.nbytes for b in self._buffers.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionPlan(buffers={self.num_buffers}, "
            f"bytes={self.allocated_bytes}, hits={self.hits}, grows={self.grows})"
        )
