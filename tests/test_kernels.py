"""Tests for the kernel-backend registry and the execution-plan arena (PR 5).

Covers the selection machinery (env var / config / per-call override), the
:class:`~repro.kernels.ExecutionPlan` buffer-reuse semantics, bit-identity of
the fused and compiled backends against the reference backend at the kernel
and encoder level, the no-aliasing-corruption guarantee across consecutive
plan-reusing forwards, and the steady-state allocation budget (via
``tracemalloc``).  The compiled C backend (PR 7) joins every bit-identity
suite when its extension is built (``COMPILED_AVAILABLE``); on hosts without
it the registry fallback itself is tested instead (``"compiled"`` must
resolve to ``"fused"`` with a ``RuntimeWarning``, never an ImportError).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.kernels import (
    COMPILED_AVAILABLE,
    KERNEL_BACKENDS,
    ExecutionOptions,
    ExecutionPlan,
    compiled_backend,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.quant.quantizer import QuantSpec, fake_quantize
from repro.nn.encoder import DeformableEncoder, DeformableEncoderLayer
from repro.nn.grid_sample import (
    ms_deform_attn_from_compact_trace,
    multi_scale_neighbors_sparse,
)
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.nn.tensor_utils import layer_norm
from repro.utils.shapes import LevelShape, make_level_shapes

SHAPES = [LevelShape(8, 12), LevelShape(4, 6), LevelShape(2, 3)]
N_IN = sum(s.num_pixels for s in SHAPES)
N_Q, N_H, N_L, N_P, D_H = 29, 4, 3, 2, 8

#: Backends held to bit-identity against "reference" — the compiled backend
#: joins only where its extension is actually built.
FAST_BACKENDS = ("fused",) + (("compiled",) if COMPILED_AVAILABLE else ())


def _kernel_inputs(seed=0):
    rng = np.random.default_rng(seed)
    value = rng.standard_normal((N_IN, N_H, D_H)).astype(np.float32)
    locs = rng.uniform(-0.15, 1.15, (N_Q, N_H, N_L, N_P, 2)).astype(np.float32)
    attn = rng.uniform(0.0, 1.0, (N_Q, N_H, N_L, N_P)).astype(np.float32)
    mask = rng.uniform(0.0, 1.0, attn.shape) < 0.35
    return value, locs, attn, mask


def _encoder_fixture(num_layers=3, seed=0):
    shapes = make_level_shapes(24, 32, (4, 8, 16))
    encoder = DeformableEncoder(
        num_layers=num_layers,
        d_model=64,
        num_heads=4,
        num_levels=len(shapes),
        num_points=2,
        ffn_dim=128,
        rng=seed,
    )
    n_in = sum(s.num_pixels for s in shapes)
    rng = np.random.default_rng(seed + 1)
    features = rng.standard_normal((n_in, 64)).astype(np.float32)
    pos = sine_positional_encoding(shapes, 64)
    reference_points = make_reference_points(shapes)
    return shapes, encoder, features, pos, reference_points


class TestRegistry:
    def test_known_backends(self):
        assert KERNEL_BACKENDS == ("reference", "fused", "compiled")
        for name in ("reference", "fused"):
            assert resolve_backend(name).name == name
        if COMPILED_AVAILABLE:
            assert resolve_backend("compiled").name == "compiled"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="kernel backend"):
            set_backend("turbo")
        with pytest.raises(ValueError, match="kernel backend"):
            resolve_backend("turbo")

    def test_resolve_none_follows_process_default(self):
        with use_backend("reference"):
            assert resolve_backend(None).name == "reference"
        with use_backend("fused"):
            assert resolve_backend(None).name == "fused"

    def test_use_backend_restores_previous(self):
        before = get_backend().name
        with use_backend("reference"):
            assert get_backend().name == "reference"
        assert get_backend().name == before

    def test_backend_object_passes_through(self):
        backend = resolve_backend("fused")
        assert resolve_backend(backend) is backend

    def test_config_validates_backend_name(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            DEFAConfig(kernel_backend="turbo")
        assert DEFAConfig(kernel_backend="reference").kernel_backend == "reference"


class TestExecutionPlan:
    def test_buffer_reuse_and_growth(self):
        plan = ExecutionPlan()
        a = plan.buffer("x", (16, 4), np.float32)
        b = plan.buffer("x", (8, 4), np.float32)  # smaller: reuses capacity
        assert b.base is a.base or b.base is a  # same storage
        assert plan.grows == 1 and plan.hits == 1
        c = plan.buffer("x", (64, 4), np.float32)  # larger: reallocates
        assert plan.grows == 2
        assert c.shape == (64, 4)

    def test_distinct_names_and_dtypes_get_distinct_storage(self):
        plan = ExecutionPlan()
        a = plan.buffer("x", (8,), np.float32)
        b = plan.buffer("y", (8,), np.float32)
        d = plan.buffer("x", (8,), np.float64)
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, d)

    def test_retention_cap_serves_large_requests_fresh(self):
        plan = ExecutionPlan(max_buffer_bytes=64)
        small = plan.buffer("x", (8,), np.float32)  # 32 bytes: cached
        assert np.shares_memory(small, plan.buffer("x", (8,), np.float32))
        big_a = plan.buffer("x", (64,), np.float32)  # 256 bytes: transient
        big_b = plan.buffer("x", (64,), np.float32)
        assert not np.shares_memory(big_a, big_b)
        assert plan.allocated_bytes == 32  # only the small buffer is retained

    def test_fused_scratch_does_not_pin_large_workloads(self):
        scratch = resolve_backend("fused")._scratch
        assert scratch.max_buffer_bytes is not None

    def test_zeros_and_take(self):
        plan = ExecutionPlan()
        z = plan.zeros("z", (5, 3))
        assert not z.any()
        src = np.arange(20.0, dtype=np.float32).reshape(10, 2)
        got = plan.take("t", src, np.array([1, 3, 5]))
        np.testing.assert_array_equal(got, src[[1, 3, 5]])

    def test_take_matches_numpy_bitwise(self):
        # In-range indices take the unbuffered "clip" gather; negative ones
        # keep numpy's wrap-around "raise" semantics.  Same bits either way.
        plan = ExecutionPlan()
        rng = np.random.default_rng(0)
        src = rng.standard_normal((10, 6)).astype(np.float32)
        src[2, :3] = (-0.0, np.nan, -np.inf)
        cases = [
            ([1, 3, 9, 0, 2, 2], 0),
            ([], 0),
            ([-1, 2, -10], 0),
            ([5, 0, 2], 1),
            ([-6, 5], 1),
        ]
        for indices, axis in cases:
            indices = np.array(indices, dtype=np.int64)
            got = plan.take("t", src, indices, axis=axis)
            expected = np.take(src, indices, axis=axis)
            assert got.shape == expected.shape
            assert np.array_equal(_bits(got), _bits(expected))

    @pytest.mark.parametrize("indices", [[0, 10], [3, -11], [11]])
    def test_take_out_of_range_still_raises(self, indices):
        plan = ExecutionPlan()
        src = np.zeros((10, 4), dtype=np.float32)
        with pytest.raises(IndexError):
            plan.take("t", src, np.array(indices, dtype=np.int64))


class TestFusedBitIdentity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_compact_kernel_backends_bit_identical(self, backend):
        value, locs, attn, mask = _kernel_inputs()
        trace = multi_scale_neighbors_sparse(SHAPES, locs, point_mask=mask)
        ref = ms_deform_attn_from_compact_trace(value, trace, attn, backend="reference")
        fast = ms_deform_attn_from_compact_trace(value, trace, attn, backend=backend)
        assert np.array_equal(ref, fast)

    def test_fused_trace_construction_bit_identical(self):
        _, locs, _, mask = _kernel_inputs(seed=3)
        ref = multi_scale_neighbors_sparse(
            SHAPES, locs, point_mask=mask, backend="reference"
        )
        fused = multi_scale_neighbors_sparse(
            SHAPES, locs, point_mask=mask, plan=ExecutionPlan(), backend="fused"
        )
        for field in ("kept", "levels", "flat_indices", "weights", "valid"):
            assert np.array_equal(getattr(ref, field), getattr(fused, field)), field

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("sparse_mode", ["dense", "sparse", "auto"])
    def test_encoder_backends_bit_identical(self, sparse_mode, backend):
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        ref_runner = DEFAEncoderRunner(
            encoder, config, sparse_mode=sparse_mode, backend="reference"
        )
        fast_runner = DEFAEncoderRunner(
            encoder, config, sparse_mode=sparse_mode, backend=backend
        )
        ref = ref_runner.forward(features, pos, reference_points, shapes)
        fast = fast_runner.forward(features, pos, reference_points, shapes)
        assert np.array_equal(ref.memory, fast.memory)
        for a, b in zip(ref.fmap_masks, fast.fmap_masks):
            assert np.array_equal(a, b)
        assert len(ref.layer_stats) == len(fast.layer_stats) == 3
        for a, b in zip(ref.layer_stats, fast.layer_stats):
            assert a.offset_clipping_fraction == b.offset_clipping_fraction
            assert a.pixels_kept_next == b.pixels_kept_next

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_batched_encoder_backends_bit_identical(self, backend):
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        batch = np.stack([features, features * 0.5, features + 0.1])
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        ref = DEFAEncoderRunner(encoder, config, sparse_mode="sparse", backend="reference")
        fast = DEFAEncoderRunner(encoder, config, sparse_mode="sparse", backend=backend)
        a = ref.forward_batched(batch, pos, reference_points, shapes)
        b = fast.forward_batched(batch, pos, reference_points, shapes)
        assert np.array_equal(a.memory, b.memory)


class TestPlanReuseAcrossForwards:
    def test_no_aliasing_corruption_across_forwards_with_different_masks(self):
        """Results of forward i must survive forward i+1 untouched.

        Two forwards with different inputs produce different FWP masks and
        keep counts, so every arena buffer is rewritten at a different
        occupancy — any result aliasing a plan buffer would be corrupted.
        """
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        runner = DEFAEncoderRunner(encoder, config, sparse_mode="sparse", backend="fused")
        first = runner.forward(features, pos, reference_points, shapes)
        memory_snapshot = first.memory.copy()
        mask_snapshots = [m.copy() for m in first.fmap_masks]
        stats_snapshot = [(s.pixels_kept, s.points_kept) for s in first.layer_stats]

        rng = np.random.default_rng(99)
        other = rng.standard_normal(features.shape).astype(np.float32) * 2.0
        second = runner.forward(other, pos, reference_points, shapes)

        np.testing.assert_array_equal(first.memory, memory_snapshot)
        for kept, snap in zip(first.fmap_masks, mask_snapshots):
            np.testing.assert_array_equal(kept, snap)
        assert [(s.pixels_kept, s.points_kept) for s in first.layer_stats] == stats_snapshot
        # and the second result is the same as a fresh runner would produce
        fresh = DEFAEncoderRunner(encoder, config, sparse_mode="sparse", backend="fused")
        again = fresh.forward(other, pos, reference_points, shapes)
        np.testing.assert_array_equal(second.memory, again.memory)

    def test_plans_keyed_by_shape_signature_and_batch(self):
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        runner = DEFAEncoderRunner(encoder, config, sparse_mode="sparse", backend="fused")
        runner.forward(features, pos, reference_points, shapes)
        runner.forward_batched(
            np.stack([features, features]), pos, reference_points, shapes
        )
        keys = set(runner._plans)
        assert len(keys) == 2  # (signature, 1) and (signature, 2)
        batch_sizes = {key[1] for key in keys}
        assert batch_sizes == {1, 2}
        # A single image is a batch of one: it shares the batch-of-one plan.
        runner.forward_batched(features[None], pos, reference_points, shapes)
        assert set(runner._plans) == keys

    def test_plan_cache_is_lru_bounded(self):
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        runner = DEFAEncoderRunner(encoder, config, sparse_mode="sparse", backend="fused")
        first_key = (tuple(s.as_tuple() for s in shapes), 1)
        runner.forward(features, pos, reference_points, shapes)
        # Synthetic distinct signatures fill the cache past the bound; the
        # real signature is refreshed (LRU) halfway, so it must survive.
        for i in range(runner.MAX_EXECUTION_PLANS - 1):
            runner.execution_plan(shapes, batch_size=100 + i)
            if i == runner.MAX_EXECUTION_PLANS // 2:
                runner.execution_plan(shapes, batch_size=1)  # refresh
        assert first_key in runner._plans
        for i in range(runner.MAX_EXECUTION_PLANS + 1):
            runner.execution_plan(shapes, batch_size=200 + i)
        assert len(runner._plans) == runner.MAX_EXECUTION_PLANS
        assert first_key not in runner._plans  # evicted least-recently-used
        # A dropped signature simply re-warms: the forward still works.
        result = runner.forward(features, pos, reference_points, shapes)
        assert result.memory.shape == features.shape

    def test_collect_details_disables_the_plan(self):
        """Detailed outputs are handed to the caller, so they must not live
        in arena buffers; the runner falls back to fresh allocation."""
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        runner = DEFAEncoderRunner(encoder, config, sparse_mode="sparse", backend="fused")
        detailed = runner.forward(
            features, pos, reference_points, shapes, collect_details=True
        )
        kept_output = detailed.layer_outputs[1].output.copy()
        kept_weights = detailed.layer_outputs[1].attention_weights.copy()
        runner.forward(features * 1.5, pos, reference_points, shapes)
        np.testing.assert_array_equal(detailed.layer_outputs[1].output, kept_output)
        np.testing.assert_array_equal(
            detailed.layer_outputs[1].attention_weights, kept_weights
        )


class TestAllocationBudget:
    def test_steady_state_fused_forward_allocates_far_less_than_reference(self):
        """The tracemalloc smoke check of the zero-allocation plans.

        After one warm forward per signature the arena is at its high-water
        mark, so a steady-state fused forward's peak *traced* allocation
        (tracemalloc only sees allocations made after ``start()``) must stay
        under a fixed budget — a small multiple of the input size — while
        the reference backend allocates every intermediate freshly.
        """
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)

        def peak_bytes(runner):
            runner.forward(features, pos, reference_points, shapes)  # warm
            tracemalloc.start()
            runner.forward(features, pos, reference_points, shapes)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        fused_peak = peak_bytes(
            DEFAEncoderRunner(encoder, config, sparse_mode="sparse", backend="fused")
        )
        reference_peak = peak_bytes(
            DEFAEncoderRunner(encoder, config, sparse_mode="sparse", backend="reference")
        )
        # Fixed budget: with the PAP/fold records in arena buffers (PR 9) the
        # only escaping arrays are the final memory copy and the per-block FWP
        # masks, plus transient NumPy reductions (argmax, flatnonzero); the
        # budget tightened from 24x to 12x the input when the last per-block
        # PAP/fold allocations moved into the plan.
        input_bytes = features.nbytes
        assert fused_peak < 12 * input_bytes, (
            f"steady-state fused forward peaked at {fused_peak} traced bytes "
            f"(budget {12 * input_bytes})"
        )
        assert fused_peak < reference_peak / 2, (
            f"fused peak {fused_peak} not well below reference peak {reference_peak}"
        )


class TestCompiledFallback:
    """The no-toolchain path: ``"compiled"`` must resolve to ``"fused"`` with
    a ``RuntimeWarning`` at every selection layer — never an ImportError —
    so configs and environment variables naming it stay valid everywhere."""

    def test_resolve_falls_back_to_fused_with_warning(self, monkeypatch):
        monkeypatch.setattr(compiled_backend, "COMPILED_AVAILABLE", False)
        with pytest.warns(RuntimeWarning, match="falling back to 'fused'"):
            backend = resolve_backend("compiled")
        assert backend.name == "fused"

    def test_set_backend_falls_back(self, monkeypatch):
        from repro.kernels import registry

        monkeypatch.setattr(compiled_backend, "COMPILED_AVAILABLE", False)
        before = registry.get_backend()
        try:
            with pytest.warns(RuntimeWarning, match="not available"):
                assert set_backend("compiled").name == "fused"
            assert get_backend().name == "fused"
        finally:
            registry._current = before

    def test_runner_with_compiled_config_serves_via_fused(self, monkeypatch):
        monkeypatch.setattr(compiled_backend, "COMPILED_AVAILABLE", False)
        config = DEFAConfig(kernel_backend="compiled")  # name stays valid
        shapes, encoder, features, pos, reference_points = _encoder_fixture(
            num_layers=1
        )
        runner = DEFAEncoderRunner(encoder, config, sparse_mode="sparse")
        with pytest.warns(RuntimeWarning, match="falling back to 'fused'"):
            assert runner.resolved_backend().name == "fused"
            assert runner.plan_stats()["backend"] == "fused"
            result = runner.forward(features, pos, reference_points, shapes)
        assert result.memory.shape == features.shape

    @pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled library not built")
    def test_plan_stats_report_the_compiled_backend_when_available(self):
        shapes, encoder, features, pos, reference_points = _encoder_fixture(
            num_layers=1
        )
        runner = DEFAEncoderRunner(
            encoder, DEFAConfig(kernel_backend="compiled"), sparse_mode="sparse"
        )
        assert runner.plan_stats()["backend"] == "compiled"
        runner.forward(features, pos, reference_points, shapes)
        stats = runner.plan_stats()
        assert stats["backend"] == "compiled" and stats["plans"] >= 1


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled library not built")
class TestCompiledFakeQuantize:
    """Unit coverage of the C fake-quantize dispatch in the projection
    helpers: every supported scale layout is bit-identical to the numpy
    in-place chain; unsupported layouts return ``None`` (numpy fallback)."""

    SPEC = QuantSpec(num_bits=12)

    def _numpy_chain(self, x, max_abs):
        out = np.empty_like(x)
        scratch = np.empty(x.shape, dtype=np.float64)
        fake_quantize(x, self.SPEC, max_abs=max_abs, out=out, scratch=scratch)
        return out

    def _compiled_chain(self, x, max_abs):
        backend = resolve_backend("compiled")
        out = np.empty_like(x)
        return backend.fake_quantize_into(x, self.SPEC, max_abs, out)

    @pytest.mark.parametrize(
        "shape,axis",
        [
            ((13, 7), None),  # scalar full-array scale
            ((3, 11, 5), (1, 2)),  # per-image (B, 1, 1) keepdims scale
            ((17, 6), (1,)),  # per-row (rows, 1) scale
        ],
    )
    def test_supported_layouts_bit_identical(self, shape, axis):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(shape).astype(np.float32) * 3.0
        if axis is None:
            max_abs = float(np.max(np.abs(x)))
        else:
            max_abs = np.max(np.abs(x), axis=axis, keepdims=True)
        expected = self._numpy_chain(x, max_abs)
        got = self._compiled_chain(x, max_abs)
        assert got is not None
        assert np.array_equal(
            expected.view(np.uint32), got.view(np.uint32)
        )  # bitwise, ±0.0 included

    def test_unsupported_layouts_decline(self):
        rng = np.random.default_rng(6)
        backend = resolve_backend("compiled")
        # Middle-axis broadcast (per-channel-like) scale: not row-wise.
        x = rng.standard_normal((3, 4, 6)).astype(np.float32)
        max_abs = np.max(np.abs(x), axis=1, keepdims=True)  # (3, 1, 6)
        assert backend.fake_quantize_into(x, self.SPEC, max_abs, np.empty_like(x)) is None
        # Non-contiguous input.
        base = rng.standard_normal((8, 10)).astype(np.float32)
        strided = base[:, ::2]
        out = np.empty(strided.shape, dtype=np.float32)
        assert backend.fake_quantize_into(strided, self.SPEC, 1.0, out) is None
        # Wrong dtype.
        x64 = rng.standard_normal((4, 4))
        assert (
            backend.fake_quantize_into(x64, self.SPEC, 1.0, np.empty((4, 4), np.float32))
            is None
        )


def _bits(array: np.ndarray) -> np.ndarray:
    """Bit patterns of a float32 array (±0.0 and NaN payloads included)."""
    return np.ascontiguousarray(array).view(np.uint32)


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled library not built")
class TestCompiledSamplingKernels:
    """``defa_locate`` and ``defa_compact_trace`` against the numpy code they
    replace, compared bitwise; unsupported inputs must decline (``None``)."""

    RANGES = (2.0, 1.5, 1.0)

    @staticmethod
    def _offsets(batch, seed=0):
        rng = np.random.default_rng(seed)
        offsets = rng.normal(0.0, 1.5, (batch, N_Q, N_H, N_L, N_P, 2)).astype(np.float32)
        # exactly on the range, just past it, and infinite: clamp boundaries
        offsets[0, 0, 0, 0, 0] = (2.0, -2.0)
        offsets[0, 0, 0, 1, 0] = (np.nextafter(np.float32(1.5), np.float32(2)), -np.inf)
        offsets[0, 1, 0, 2, 1] = (np.inf, -0.0)
        return offsets

    @staticmethod
    def _numpy_locate(offsets, ref, ranges):
        from repro.core.range_narrowing import RangeNarrowing
        from repro.nn.msdeform_attn import MSDeformAttn

        offsets = offsets.copy()
        counts = np.zeros(offsets.shape[0], dtype=np.int64)
        if ranges is not None:
            narrowing = RangeNarrowing(ranges)
            counts = narrowing.clipped_counts(offsets)
            narrowing.clamp_offsets(offsets, out=offsets)
        attn = MSDeformAttn(d_model=16, num_heads=N_H, num_levels=N_L, num_points=N_P, rng=0)
        return attn.compute_sampling_locations(ref, offsets, SHAPES), counts

    @pytest.mark.parametrize("ranges", [RANGES, None])
    @pytest.mark.parametrize("batch,per_image_ref", [(1, False), (3, False), (3, True)])
    def test_locate_bit_identical(self, batch, per_image_ref, ranges):
        offsets = self._offsets(batch)
        rng = np.random.default_rng(1)
        ref_shape = ((batch,) if per_image_ref else ()) + (N_Q, N_L, 2)
        ref = rng.uniform(0.0, 1.0, ref_shape).astype(np.float32)
        expected, expected_counts = self._numpy_locate(offsets, ref, ranges)
        before = offsets.copy()
        out = np.empty_like(offsets)
        counts = resolve_backend("compiled").locate_into(offsets, ref, SHAPES, ranges, out)
        assert counts is not None
        assert np.array_equal(_bits(out), _bits(expected))
        assert np.array_equal(counts, expected_counts)
        if ranges is not None:
            assert counts[0] > 0
        assert np.array_equal(_bits(offsets), _bits(before))  # input untouched

    def test_locate_declines_unsupported_layouts(self):
        backend = resolve_backend("compiled")
        offsets = self._offsets(2)
        ref = np.full((N_Q, N_L, 2), 0.5, dtype=np.float32)
        strided = np.repeat(offsets, 2, axis=0)[::2]  # non-contiguous
        assert not strided.flags.c_contiguous
        out = np.empty_like(offsets)
        assert backend.locate_into(strided, ref, SHAPES, self.RANGES, out) is None
        as64 = offsets.astype(np.float64)
        assert backend.locate_into(as64, ref, SHAPES, self.RANGES, as64.copy()) is None
        odd_ref = np.full((5, N_Q, N_L, 2), 0.5, dtype=np.float32)  # batch mismatch
        assert backend.locate_into(offsets, odd_ref, SHAPES, None, out) is None

    @staticmethod
    def _trace_fields(trace):
        return {
            "kept": trace.kept,
            "levels": trace.levels,
            "flat_indices": trace.flat_indices,
            "weights": _bits(trace.weights),
            "valid": trace.valid,
        }

    def _assert_trace_bit_identical(self, locs, mask):
        from repro.nn.grid_sample import _compact_trace_impl

        oracle = _compact_trace_impl(SHAPES, locs, mask, plan=ExecutionPlan(), backend="fused")
        expected = {k: v.copy() for k, v in self._trace_fields(oracle).items()}
        for plan in (ExecutionPlan(), None):
            got = _compact_trace_impl(SHAPES, locs, mask, plan=plan, backend="compiled")
            for name, value in self._trace_fields(got).items():
                assert value.dtype == expected[name].dtype, name
                assert np.array_equal(value, expected[name]), name
        return expected

    @pytest.mark.parametrize("batch", [1, 3])
    def test_compact_trace_bit_identical(self, batch):
        rng = np.random.default_rng(batch)
        locs = rng.uniform(-0.15, 1.15, (batch, N_Q, N_H, N_L, N_P, 2)).astype(np.float32)
        mask = rng.uniform(0.0, 1.0, locs.shape[:-1]) < 0.35
        expected = self._assert_trace_bit_identical(locs, mask)
        assert 0 < expected["kept"].size < mask.size
        assert (expected["flat_indices"] == -1).any()  # out-of-bounds neighbours
        assert expected["valid"].all(axis=1).any()

    def test_compact_trace_edges(self):
        """Pixel centres (zero fractions), locations outside [0, 1] (floor of
        negatives, every neighbour invalid) and the exact corners."""
        locs = np.zeros((1, N_Q, N_H, N_L, N_P, 2), dtype=np.float32)
        for lvl, shape in enumerate(SHAPES):
            cols = (np.arange(N_Q) % shape.width + 0.5) / shape.width
            rows = (np.arange(N_Q) % shape.height + 0.5) / shape.height
            locs[0, :, :, lvl, 0, 0] = cols[:, None]
            locs[0, :, :, lvl, 0, 1] = rows[:, None]
        locs[0, :, :, :, 1] = np.linspace(-1.5, 2.5, N_Q, dtype=np.float32)[:, None, None, None]
        locs[0, 0, 0, :, 1] = (0.0, 1.0)
        locs[0, 1, 0, :, 1] = (-0.0, -1e-7)
        expected = self._assert_trace_bit_identical(locs, None)
        assert expected["kept"].size == locs[..., 0].size
        assert (expected["flat_indices"] == -1).all(axis=1).any()  # fully outside

    def test_compact_trace_empty(self):
        locs = np.full((2, N_Q, N_H, N_L, N_P, 2), 0.5, dtype=np.float32)
        mask = np.zeros(locs.shape[:-1], dtype=bool)
        expected = self._assert_trace_bit_identical(locs, mask)
        assert expected["kept"].size == 0

    def test_compact_trace_declines_unsupported_layouts(self):
        backend = resolve_backend("compiled")
        locs = np.full((1, N_Q, N_H, N_L, N_P, 2), 0.5, dtype=np.float32)
        kept = np.arange(10, dtype=np.int64)
        strided = np.repeat(locs, 2, axis=-1)[..., ::2]
        assert not strided.flags.c_contiguous
        assert backend.compact_trace_arrays(strided, kept, SHAPES) is None
        assert backend.compact_trace_arrays(locs.astype(np.float64), kept, SHAPES) is None
        assert backend.compact_trace_arrays(locs, kept.astype(np.int32), SHAPES) is None
        past_end = np.array([0, locs[..., 0].size], dtype=np.int64)  # out of bounds
        assert backend.compact_trace_arrays(locs, past_end, SHAPES) is None
        # ...and the constructor then runs the numpy code, bit-identically
        from repro.nn.grid_sample import _compact_trace_impl

        fallback = _compact_trace_impl(SHAPES, strided, None, backend="compiled")
        oracle = _compact_trace_impl(SHAPES, locs, None, backend="fused")
        assert np.array_equal(_bits(fallback.weights), _bits(oracle.weights))
        assert np.array_equal(fallback.flat_indices, oracle.flat_indices)

    def test_all_queries_pruned_clip_fraction_is_zero(self):
        from repro.core.pipeline import DEFAAttention
        from repro.nn.msdeform_attn import MSDeformAttn

        attn = MSDeformAttn(d_model=32, num_heads=N_H, num_levels=N_L, num_points=N_P, rng=0)
        rng = np.random.default_rng(2)
        features = rng.standard_normal((N_IN, 32)).astype(np.float32)
        reference = rng.uniform(0.0, 1.0, (N_IN, N_L, 2)).astype(np.float32)
        config = DEFAConfig(enable_query_pruning=True, level_ranges=(0.1, 0.1, 0.1))
        defa = DEFAAttention(attn, config)
        for backend in ("fused", "compiled"):
            options = ExecutionOptions(kernel_backend=backend)
            kept_all = defa.forward_detailed(
                features, reference, features, SHAPES, np.ones(N_IN, bool), options
            )
            none_kept = defa.forward_detailed(
                features, reference, features, SHAPES, np.zeros(N_IN, bool), options
            )
            assert kept_all.stats.offset_clipping_fraction > 0.0
            assert none_kept.stats.offset_clipping_fraction == 0.0

    def test_compiled_forward_skips_the_numpy_trace_scratch(self):
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        runners = {
            name: DEFAEncoderRunner(
                encoder,
                config,
                options=ExecutionOptions(sparse_mode="sparse", kernel_backend=name),
            )
            for name in ("fused", "compiled")
        }
        for runner in runners.values():
            runner.forward(features, pos, reference_points, shapes)

        def names(runner):
            return {name for plan in runner._plans.values() for name, _ in plan._buffers}

        scratch = {"trace.loc", "trace.x", "trace.y", "trace.rows", "trace.cols"}
        assert scratch <= names(runners["fused"])
        trace_names = {n for n in names(runners["compiled"]) if n.startswith("trace.")}
        assert trace_names == {"trace.levels", "trace.weights", "trace.valid", "trace.flat"}
        assert runners["compiled"].plan_stats()["bytes"] < runners["fused"].plan_stats()["bytes"]


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled library not built")
def test_loader_refuses_a_library_with_another_abi(monkeypatch):
    assert compiled_backend._load_library() is not None
    monkeypatch.setattr(compiled_backend, "_ABI_VERSION", compiled_backend._ABI_VERSION + 1)
    assert compiled_backend._load_library() is None


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled library not built")
class TestCompiledRowKernels:
    """``defa_add_layer_norm`` and ``defa_bias_relu`` against the numpy chain
    they replace, compared bitwise; unsupported inputs must decline (``None``)."""

    EPS = 1e-5

    @staticmethod
    def _rows(n, d, scale=1.0, seed=0):
        rng = np.random.default_rng(seed)
        a = (rng.standard_normal((n, d)) * scale).astype(np.float32)
        b = (rng.standard_normal((n, d)) * scale).astype(np.float32)
        weight = rng.uniform(0.5, 1.5, d).astype(np.float32)
        bias = rng.standard_normal(d).astype(np.float32)
        return a, b, weight, bias

    def _check(self, a, b, weight, bias, out, in_rows=None, out_rows=None):
        """Run the hook into a copy of *out* and the numpy chain into
        another; return both (the NaN-free bits are asserted equal)."""
        expected = out.copy()
        x = a + b if in_rows is None else a[in_rows] + b[in_rows]
        with np.errstate(invalid="ignore"):  # inf - inf in the special rows
            rows = layer_norm(x, weight, bias, self.EPS)
        if out_rows is None:
            expected[...] = rows
        else:
            expected[out_rows] = rows
        got = out.copy()
        result = resolve_backend("compiled").add_layer_norm_into(
            a, b, weight, bias, self.EPS, got, in_rows, out_rows
        )
        assert result is got
        nan = np.isnan(expected)
        assert np.array_equal(nan, np.isnan(got))
        assert np.array_equal(_bits(got)[~nan], _bits(expected)[~nan])
        return got, expected

    @pytest.mark.parametrize("d", [1, 7, 8, 64, 100, 129, 255, 256, 1000])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 50.0])
    def test_add_layer_norm_bit_identical(self, d, scale):
        a, b, weight, bias = self._rows(37, d, scale, seed=d)
        self._check(a, b, weight, bias, np.empty_like(a))

    @pytest.mark.parametrize("d", [7, 256])
    def test_gather_scatter_and_identity_rows(self, d):
        a, b, weight, bias = self._rows(20, d, seed=1)
        gather = np.array([19, 0, 7, 7, 3], dtype=np.int64)
        scatter = np.array([4, 17, 0, 9, 12], dtype=np.int64)
        sentinel = np.full((20, d), 7.0, dtype=np.float32)
        self._check(a, b, weight, bias, np.empty((5, d), np.float32), in_rows=gather)
        got, _ = self._check(a[:5], b[:5], weight, bias, sentinel, out_rows=scatter)
        untouched = np.setdiff1d(np.arange(20), scatter)
        assert (got[untouched] == 7.0).all()  # only the scattered rows change
        self._check(a, b, weight, bias, sentinel, in_rows=gather, out_rows=scatter)
        identity = np.arange(20, dtype=np.int64)
        self._check(a, b, weight, bias, sentinel, in_rows=identity, out_rows=identity)

    def test_zero_rows(self):
        a, b, weight, bias = self._rows(6, 64, seed=2)
        empty = np.zeros(0, dtype=np.int64)
        self._check(a, b, weight, bias, np.empty((0, 64), np.float32), in_rows=empty)
        got, _ = self._check(a, b, weight, bias, a.copy(), in_rows=empty, out_rows=empty)
        assert np.array_equal(_bits(got), _bits(a))

    @pytest.mark.parametrize("d", [5, 64, 129])
    @pytest.mark.parametrize("negative_zero_bias", [False, True])
    def test_special_rows(self, d, negative_zero_bias):
        a, b, weight, bias = self._rows(6, d, seed=3)
        if negative_zero_bias:  # lets the sign of a zero row reach the output
            bias[:] = -0.0
        a[0], b[0] = 0.0, 0.0
        a[1], b[1] = -0.0, -0.0  # sums to -0.0 elementwise, +0.0 over the row
        a[2, 1] = np.inf
        a[3, 0], b[3, 2] = np.inf, -np.inf
        a[4, d // 2] = np.nan
        self._check(a, b, weight, bias, np.empty_like(a))

    def test_wide_rows_need_no_scratch(self):
        # The output row doubles as the sum buffer, so any row width works.
        a, b, weight, bias = self._rows(3, 20000, seed=4)
        self._check(a, b, weight, bias, np.empty_like(a))

    def test_add_layer_norm_declines_unsupported_input(self):
        backend = resolve_backend("compiled")
        a, b, weight, bias = self._rows(8, 16, seed=5)
        out = np.empty_like(a)

        def hook(a=a, b=b, out=out, in_rows=None, out_rows=None, weight=weight):
            return backend.add_layer_norm_into(
                a, b, weight, bias, self.EPS, out, in_rows, out_rows
            )

        rows = np.arange(8, dtype=np.int64)
        assert hook(a=a.astype(np.float64)) is None
        assert hook(out=out.astype(np.float64)) is None
        assert hook(a=np.repeat(a, 2, axis=1)[:, ::2]) is None  # non-contiguous
        assert hook(weight=weight[:8]) is None
        assert hook(in_rows=rows.astype(np.int32)) is None
        assert hook(in_rows=rows[:5]) is None  # 5 rows into 8 output rows
        for bad in ([0, 1, 2, 3, 4, 5, 6, 8], [0, 1, 2, 3, 4, 5, 6, -1]):
            bad = np.array(bad, dtype=np.int64)
            assert hook(in_rows=bad) is None
            assert hook(out_rows=bad) is None

    @pytest.mark.parametrize("cols", [1, 13, 128])
    def test_bias_relu_bit_identical(self, cols):
        rng = np.random.default_rng(cols)
        h = rng.standard_normal((9, cols)).astype(np.float32)
        bias = rng.standard_normal(cols).astype(np.float32)
        h[0], bias[0] = -0.0, -0.0  # h + b = -0.0: numpy's maximum gives +0.0
        h[1, :] = np.nan
        h[2, cols - 1] = -np.inf
        h[3, 0] = np.float32(-1e-38)
        expected = h + bias
        np.maximum(expected, 0.0, out=expected)
        got = h.copy()
        assert resolve_backend("compiled").bias_relu_into(got, bias) is got
        assert np.array_equal(_bits(got), _bits(expected))

    def test_bias_relu_declines_unsupported_input(self):
        backend = resolve_backend("compiled")
        h = np.ones((4, 6), dtype=np.float32)
        bias = np.ones(6, dtype=np.float32)
        assert backend.bias_relu_into(h.astype(np.float64), bias) is None
        assert backend.bias_relu_into(h, bias.astype(np.float64)) is None
        assert backend.bias_relu_into(h[:, ::2], bias[:3]) is None
        assert backend.bias_relu_into(h, bias[:5]) is None
        assert (h == 1.0).all()

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    def test_ffn_stage_compiled_matches_fused(self, batched, activation):
        layer = DeformableEncoderLayer(d_model=32, ffn_dim=96, activation=activation, rng=0)
        rng = np.random.default_rng(6)
        shape = (3, 50, 32) if batched else (50, 32)
        src = rng.standard_normal(shape).astype(np.float32)
        attn = rng.standard_normal(shape).astype(np.float32)
        mask = rng.uniform(size=shape[:-1]) < 0.4
        for keep_mask, compact in ((None, False), (mask, False), (mask, True)):
            outputs = {}
            for name in ("fused", "compiled"):
                plan = ExecutionPlan()
                stream = plan.buffer("stream", shape)
                for out in (None, stream):  # arena output and caller stream
                    outputs[name, out is None] = layer.forward_ffn_stage(
                        src, attn, keep_mask, compact, plan=plan, out=out, backend=name
                    ).copy()
            for own_buffer in (True, False):
                fused = outputs["fused", own_buffer]
                assert np.array_equal(_bits(outputs["compiled", own_buffer]), _bits(fused))
            allocating = layer.forward_ffn_stage(src, attn, keep_mask, compact)
            assert np.array_equal(_bits(allocating), _bits(fused))

    def test_compiled_stage_runs_the_hooks_and_skips_the_row_gathers(self, monkeypatch):
        backend_class = type(resolve_backend("compiled"))
        accepted = []
        for hook in ("add_layer_norm_into", "bias_relu_into"):
            original = getattr(backend_class, hook)

            def spy(self, *args, _original=original, _hook=hook, **kwargs):
                result = _original(self, *args, **kwargs)
                accepted.append((_hook, result is not None))
                return result

            monkeypatch.setattr(backend_class, hook, spy)
        layer = DeformableEncoderLayer(d_model=32, ffn_dim=64, rng=0)
        rng = np.random.default_rng(7)
        src = rng.standard_normal((40, 32)).astype(np.float32)
        mask = rng.uniform(size=40) < 0.5
        for keep_mask, compact in ((None, False), (mask, False), (mask, True)):
            accepted.clear()
            plan = ExecutionPlan()
            layer.forward_ffn_stage(src, src, keep_mask, compact, plan=plan, backend="compiled")
            # two norms and one ReLU per stage, none declined
            assert sorted(accepted) == [
                ("add_layer_norm_into", True),
                ("add_layer_norm_into", True),
                ("bias_relu_into", True),
            ]
        names = {}
        for name in ("fused", "compiled"):
            plan = ExecutionPlan()
            layer.forward_ffn_stage(src, src, mask, compact=True, plan=plan, backend=name)
            names[name] = {key for key, _ in plan._buffers}
        assert {"ffn.rows_attn", "ffn.rows_mixed"} <= names["fused"]
        assert "ffn.rows_attn" not in names["compiled"]
