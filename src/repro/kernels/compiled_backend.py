"""The ``"compiled"`` kernel backend: C hot loops behind the registry.

Loads the shared library built from ``src/repro/kernels/_c/defa_kernels.c``
(``python setup.py build_ext --inplace``) via :mod:`ctypes` and exposes it as
a backend object selected per-call/per-config exactly like ``"fused"``.  Six
entry points cover the hot loops of the sparse encoder and its inter-block
stage:

* ``defa_locate`` (:meth:`CompiledBackend.locate_into`) — the range-narrowing
  clamp with its per-image count of clamped components, the divide by the
  level size and the add of the reference point, in one pass over the raw
  offsets instead of a count, a clip, a divide and an add over the grid;
* ``defa_compact_trace`` (:meth:`CompiledBackend.compact_trace_arrays`) —
  the bilinear neighbour, weight, validity and flat-index math of the
  compacted sampling trace, one pass over the kept points instead of some
  thirty numpy passes through per-point scratch arrays;
* ``defa_gather_combine_segsum`` — the flat neighbour gather, the
  4-neighbour bilinear weight combine and the segment sum, fused into one
  pass over the kept points (no ``(K, 4, D_h)`` gather block, no ``(K, D_h)``
  contribution block — the numpy backends stream several MB per chunk
  through memory just to feed ``reduceat``);
* ``defa_fake_quantize`` — the divide → rint → clip → rescale chain of
  dynamic activation quantization in a single pass, replacing four
  full-array numpy passes plus a float64 scratch;
* ``defa_add_layer_norm`` (:meth:`CompiledBackend.add_layer_norm_into`) —
  the residual add and LayerNorm of one row in one pass, optionally reading
  gathered rows and writing scattered rows, so the compact inter-block stage
  needs no row copies and no ``(N, D)`` variance temporary;
* ``defa_bias_relu`` (:meth:`CompiledBackend.bias_relu_into`) — the FFN's
  first bias add and ReLU as one in-place pass over the hidden block.

All but ``defa_gather_combine_segsum`` are duck-typed hooks: they return
``None`` for an input outside their contract and the caller runs the numpy
code, which stays the fused path, the no-toolchain fallback and the
bit-identity oracle.

**Graceful degradation.**  When no library is found (no toolchain, never
built, stale ABI), :data:`COMPILED_AVAILABLE` is ``False`` and
:func:`repro.kernels.registry._lookup` resolves ``"compiled"`` to the fused
backend with a warning — never an ImportError.

**Numerics.**  Every kernel replicates the numpy op order exactly (see the C
source header): the locate pass is the float32 ``np.clip`` → ``np.divide``
→ ``np.add`` sequence elementwise, the compact trace uses the float32 pixel
coordinate, the float64-through fraction and the float32 weight products of
``_compact_trace_arrays_fused``, the combine accumulates the four neighbours
sequentially in float32 as einsum does, the segment sum replays
``np.add.reduceat``'s ``first + pairwise(rest)`` order including the shared
8 MiB chunk boundaries, and the quantize chain is the same elementwise
float64 sequence.  The add + LayerNorm is ``a + b``, ``mean = sum / D``,
``var = sum((x - mean)**2) / D``, ``(x - mean) / sqrtf(var + eps) * weight
+ bias`` in float32, where both row sums are numpy's last-axis reduction:
the identity ``0.0`` plus ``pairwise_sum`` over the *whole* row (not
reduceat's ``first + pairwise(rest)``).  The ReLU keeps ``t`` when ``t > 0``
or ``t`` is NaN and writes ``+0.0`` otherwise — ``-0.0`` included — which is
what numpy's SIMD ``np.maximum(t, 0.0)`` computes; on a numpy that keeps
``-0.0`` the hook declines (checked once at import).
The backend is therefore *bit-identical* to ``"fused"`` on every supported
input, and :data:`COMPILED_EQUIVALENCE_TOL` — the backend's tier in the
equivalence probes and ``run_all --check`` gates — is exactly ``0.0``.  The
tier constant exists so that a platform where identity is unachievable (a
compiler that ignores ``-ffp-contract=off``, a non-IEEE libm ``rint``) can
widen *this backend's* gate explicitly without touching the 0.0
fused-vs-reference gate, the same per-comparison precedent as the PR 4
BLAS-row-count tolerance.

Inputs the C kernels do not support (non-contiguous arrays, unexpected
dtypes, per-channel/broadcast scale layouts) fall back to the inherited
fused implementations, which are bit-identical anyway — support is a pure
performance question, never a correctness one.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro.kernels.backends import (
    _SPARSE_CONTRIB_BUDGET_BYTES,
    FLOAT_DTYPE,
    FusedBackend,
)
from repro.kernels.plan import ExecutionPlan
from repro.quant.quantizer import QuantSpec, compute_scale
from repro.utils.shapes import level_start_indices
from repro.utils.timing import kernel_section

__all__ = [
    "COMPILED_AVAILABLE",
    "COMPILED_EQUIVALENCE_TOL",
    "CompiledBackend",
]

COMPILED_EQUIVALENCE_TOL = 0.0
"""Compiled-vs-fused drift bound: the per-backend tolerance tier of the
``"compiled"`` backend in equivalence probes and CI gates.  Exactly zero —
the C kernels replicate the numpy float op order including reduceat's
pairwise summation — and deliberately separate from the fused-vs-reference
0.0 gate so a diverging platform would widen only this tier, explicitly."""

_ABI_VERSION = 3
"""Expected ``defa_kernels_abi()`` of the library; must match the C source.
A stale in-place build after a signature change is refused, not called."""

_LIB_STEM = "_defa_kernels"

_PTR, _I64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double

_SIGNATURES = {
    # offsets, ref, size, ranges, batch, n_q, n_h, n_l, n_p, ref_stride, out, counts
    "defa_locate": [_PTR] * 4 + [_I64] * 6 + [_PTR] * 2,
    # loc, kept, k, n_l, n_p, size, dims, levels, weights, valid, flat
    "defa_compact_trace": [_PTR] * 2 + [_I64] * 3 + [_PTR] * 6,
    # value, kept, flat_idx, weights, valid, attn, k, d_h, n_in, n_h, n_q,
    # points_per_seg, batch, chunk, contrib, sums, out
    "defa_gather_combine_segsum": [_PTR] * 6 + [_I64] * 8 + [_PTR] * 3,
    # x, out, n, scales, row_size, qmin, qmax
    "defa_fake_quantize": [_PTR, _PTR, _I64, _PTR, _I64, _F64, _F64],
    # a, b, in_rows, out_rows, k, d, weight, bias, eps, out
    "defa_add_layer_norm": [_PTR] * 4 + [_I64] * 2 + [_PTR] * 2 + [_F64, _PTR],
    # h, b, rows, cols
    "defa_bias_relu": [_PTR, _PTR, _I64, _I64],
}
"""ctypes argument types of every void entry point of the library."""

_STACK_LEVELS = 48
"""Recursion head-room of the C pairwise segment sum (each level halves the
row count, so 48 covers any conceivable segment length)."""

_SUM_SCRATCH_ROWS = 9 + _STACK_LEVELS
"""Rows of the ``(rows, d_h)`` summation scratch: 1 result row + 8 unrolled
partial-sum rows + one row per recursion level."""


def _load_library() -> ctypes.CDLL | None:
    """The kernel library next to this module, or ``None`` when unusable."""
    here = Path(__file__).resolve().parent
    for path in sorted(here.glob(_LIB_STEM + "*")):
        if path.suffix not in {".so", ".dylib", ".pyd"}:
            continue
        try:
            lib = ctypes.CDLL(str(path))
            abi = lib.defa_kernels_abi
            for entry, argtypes in _SIGNATURES.items():
                function = getattr(lib, entry)
                function.argtypes = argtypes
                function.restype = None
        except (OSError, AttributeError):
            continue
        abi.restype = ctypes.c_int64
        abi.argtypes = []
        if abi() != _ABI_VERSION:
            continue
        return lib
    return None


_LIB = _load_library()

COMPILED_AVAILABLE = _LIB is not None
"""Whether the compiled kernel library was found and loaded.  ``False`` on
hosts that never ran ``setup.py build_ext`` (or have no C toolchain); the
registry then resolves ``"compiled"`` to ``"fused"`` with a warning."""


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _numpy_relu_zeroes_negative_zero() -> bool:
    """Whether ``np.maximum(t, 0.0)`` maps ``-0.0`` to ``+0.0`` everywhere.

    numpy's SIMD loops (x86 ``max_ps``, NEON ``fmax``) do; a scalar build's
    ``t >= 0 ? t : 0`` would keep ``-0.0``.  ``defa_bias_relu`` implements
    the former, so on a host where numpy disagrees the hook declines.  The
    odd length covers both the vector body and the remainder.
    """
    relu = np.maximum(np.full(67, -0.0, dtype=FLOAT_DTYPE), 0.0)
    return not np.signbit(relu).any()


_RELU_MATCHES_NUMPY = _numpy_relu_zeroes_negative_zero()


def _level_sizes(spatial_shapes) -> np.ndarray:
    """``(N_l, 2)`` float32 ``(width, height)`` of every pyramid level."""
    return np.array([(s.width, s.height) for s in spatial_shapes], dtype=FLOAT_DTYPE)


def _rowwise_scales(x: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Flatten a broadcastable quantization scale to per-row form.

    Returns ``(scales_1d, row_size)`` such that ``scales_1d[i]`` applies to
    the ``i``-th block of ``row_size`` elements of C-ordered ``x`` — the
    layout ``defa_fake_quantize`` consumes.  Covers every scale shape the
    projection helpers produce: a scalar (full-array dynamic scale), the
    per-image ``(B, 1, 1)`` keepdims array and the per-row ``(rows, 1)``
    array.  ``None`` means the layout is not row-wise (e.g. per-channel
    scales broadcasting along a middle axis) and the caller must fall back.
    """
    scale = np.asarray(scale, dtype=np.float64)
    if scale.size == 1:
        return np.ascontiguousarray(scale.reshape(1)), x.size
    if scale.ndim != x.ndim:
        return None
    lead = scale.ndim
    while lead > 0 and scale.shape[lead - 1] == 1:
        lead -= 1
    if scale.shape[:lead] != x.shape[:lead]:
        return None
    return np.ascontiguousarray(scale.reshape(-1)), x.size // scale.size


class CompiledBackend(FusedBackend):
    """C-kernel variant of the fused backend (same plans, same bits).

    Inherits the fused backend's plan/arena conventions (``fused = True``:
    runners thread :class:`ExecutionPlan` arenas through it, plan-less calls
    use the internal retention-capped scratch), overrides the gather/
    aggregate kernel and adds the ``locate_into`` / ``compact_trace_arrays``
    / ``fake_quantize_into`` / ``add_layer_norm_into`` / ``bias_relu_into``
    hooks, all single-pass C kernels.  Steady-state
    calls perform no large allocations beyond a subset of the plan buffers
    the fused backend uses — the C scratch rows live in the arena too, and
    the compact trace needs none of the fused path's per-point scratch.
    """

    name = "compiled"

    def locate_into(
        self,
        offsets: np.ndarray,
        reference_points: np.ndarray,
        spatial_shapes,
        level_ranges: tuple[float, ...] | None,
        out: np.ndarray,
    ) -> np.ndarray | None:
        """Clamp, divide and add in one C pass into *out*; ``None`` = unsupported.

        ``offsets`` is ``(B, N_q, N_h, N_l, N_p, 2)`` in level pixels and
        ``reference_points`` is shared ``(N_q, N_l, 2)`` or per-image
        ``(B, N_q, N_l, 2)``.  Writes the sampling locations of
        ``RangeNarrowing(level_ranges).clamp_offsets`` followed by
        ``MSDeformAttn.compute_sampling_locations`` into *out*, bit for bit,
        without modifying ``offsets``; ``level_ranges=None`` skips the clamp.
        Returns the ``(B,)`` int64 per-image count of offset components the
        clamp changed (all zero without a clamp).
        """
        if (
            offsets.ndim != 6
            or offsets.dtype != FLOAT_DTYPE
            or out.dtype != FLOAT_DTYPE
            or out.shape != offsets.shape
            or not offsets.flags.c_contiguous
            or not out.flags.c_contiguous
        ):
            return None
        batch, n_q, n_h, n_l, n_p, _ = offsets.shape
        if len(spatial_shapes) != n_l:
            return None
        ref = np.ascontiguousarray(reference_points, dtype=FLOAT_DTYPE)
        if ref.shape == (n_q, n_l, 2):
            ref_stride = 0
        elif ref.shape == (batch, n_q, n_l, 2):
            ref_stride = n_q * n_l * 2
        else:
            return None
        ranges = None
        if level_ranges is not None:
            ranges = np.asarray(level_ranges, dtype=FLOAT_DTYPE)
            if ranges.shape != (n_l,):
                return None
        sizes = _level_sizes(spatial_shapes)  # named: alive for the call
        counts = np.empty(batch, dtype=np.int64)
        _LIB.defa_locate(
            _ptr(offsets),
            _ptr(ref),
            _ptr(sizes),
            None if ranges is None else _ptr(ranges),
            ctypes.c_int64(batch),
            ctypes.c_int64(n_q),
            ctypes.c_int64(n_h),
            ctypes.c_int64(n_l),
            ctypes.c_int64(n_p),
            ctypes.c_int64(ref_stride),
            _ptr(out),
            _ptr(counts),
        )
        return counts

    def compact_trace_arrays(
        self,
        sampling_locations: np.ndarray,
        kept: np.ndarray,
        spatial_shapes,
        plan: ExecutionPlan | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Per-point compact-trace arrays ``(levels, weights, valid, flat)``.

        One C pass over the kept point ids of the ``(B, N_q, N_h, N_l, N_p,
        2)`` locations, bit-identical to ``_compact_trace_arrays_fused``.
        The arrays live in *plan* buffers under the fused path's names (fresh
        arrays without a plan); ``None`` means the input is unsupported and
        the caller runs the numpy code.
        """
        if (
            sampling_locations.ndim != 6
            or sampling_locations.dtype != FLOAT_DTYPE
            or not sampling_locations.flags.c_contiguous
            or kept.dtype != np.int64
            or kept.ndim != 1
            or not kept.flags.c_contiguous
        ):
            return None
        n_l, n_p = sampling_locations.shape[3], sampling_locations.shape[4]
        if len(spatial_shapes) != n_l:
            return None
        k = int(kept.size)
        if k and (kept.min() < 0 or kept.max() >= sampling_locations.size // 2):
            return None  # the numpy indexing raises the IndexError
        if plan is not None:
            buffer = plan.buffer
        else:  # escapes to the caller: fresh arrays

            def buffer(name, shape, dtype):
                return np.empty(shape, dtype=dtype)

        levels = buffer("trace.levels", (k,), np.int64)
        weights = buffer("trace.weights", (k, 4), FLOAT_DTYPE)
        valid = buffer("trace.valid", (k, 4), np.bool_)
        flat = buffer("trace.flat", (k, 4), np.int64)
        dims = np.array(
            [
                (s.height, s.width, start)
                for s, start in zip(spatial_shapes, level_start_indices(spatial_shapes))
            ],
            dtype=np.int64,
        )
        sizes = _level_sizes(spatial_shapes)
        _LIB.defa_compact_trace(
            _ptr(sampling_locations),
            _ptr(kept),
            ctypes.c_int64(k),
            ctypes.c_int64(n_l),
            ctypes.c_int64(n_p),
            _ptr(sizes),
            _ptr(dims),
            _ptr(levels),
            _ptr(weights),
            _ptr(valid.view(np.uint8)),
            _ptr(flat),
        )
        return levels, weights, valid, flat

    def compact_gather_aggregate(
        self,
        value_flat: np.ndarray,
        trace,
        attn_flat: np.ndarray,
        n_in: int,
        plan: ExecutionPlan | None = None,
    ) -> np.ndarray:
        d_h = int(value_flat.shape[1])
        n_h = trace.num_heads
        n_q, batch = trace.num_queries, trace.batch_size
        k = trace.num_kept
        supported = (
            value_flat.dtype == FLOAT_DTYPE
            and attn_flat.dtype == FLOAT_DTYPE
            and trace.weights.dtype == FLOAT_DTYPE
            and trace.kept.dtype == np.int64
            and trace.flat_indices.dtype == np.int64
            and trace.valid.dtype == np.bool_
            and value_flat.flags.c_contiguous
            and attn_flat.flags.c_contiguous
            and trace.kept.flags.c_contiguous
            and trace.flat_indices.flags.c_contiguous
            and trace.weights.flags.c_contiguous
            and trace.valid.flags.c_contiguous
            and trace.flat_indices.shape[1:] == (4,)
        )
        if not supported:
            return super().compact_gather_aggregate(
                value_flat, trace, attn_flat, n_in, plan=plan
            )
        internal = plan if plan is not None else self._scratch
        if plan is not None:
            output = plan.zeros("msgs.out", (batch * n_q * n_h, d_h), FLOAT_DTYPE)
        else:  # escapes to the caller: must not live in the shared scratch
            output = np.zeros((batch * n_q * n_h, d_h), dtype=FLOAT_DTYPE)
        if k == 0:
            return output
        # Same chunking formula as the numpy backends: shared boundaries mean
        # a shared float summation order (partial sums flush per chunk).
        chunk = max(1, _SPARSE_CONTRIB_BUDGET_BYTES // (4 * 4 * max(d_h, 1)))
        points_per_seg = trace.num_levels * trace.num_points
        run_max = max(1, min(points_per_seg, chunk))
        contrib = internal.buffer("msgs.c_contrib", (run_max, d_h), FLOAT_DTYPE)
        sums = internal.buffer("msgs.c_sums", (_SUM_SCRATCH_ROWS, d_h), FLOAT_DTYPE)
        with kernel_section("aggregate"):  # gather+combine+segsum, one pass
            _LIB.defa_gather_combine_segsum(
                _ptr(value_flat),
                _ptr(trace.kept),
                _ptr(trace.flat_indices),
                _ptr(trace.weights),
                _ptr(trace.valid.view(np.uint8)),
                _ptr(attn_flat),
                ctypes.c_int64(k),
                ctypes.c_int64(d_h),
                ctypes.c_int64(n_in),
                ctypes.c_int64(n_h),
                ctypes.c_int64(n_q),
                ctypes.c_int64(points_per_seg),
                ctypes.c_int64(batch),
                ctypes.c_int64(chunk),
                _ptr(contrib),
                _ptr(sums),
                _ptr(output),
            )
        return output

    def fake_quantize_into(
        self,
        x: np.ndarray,
        spec: QuantSpec,
        max_abs,
        out: np.ndarray,
    ) -> np.ndarray | None:
        """Fused C fake-quantize chain into *out*; ``None`` = unsupported.

        Bit-identical to :func:`repro.quant.quantizer.fake_quantize`'s
        in-place path (same float64 op sequence, elementwise).  Returns
        ``None`` when the input or scale layout is outside the C kernel's
        contract so the caller runs the numpy chain instead.
        """
        if (
            x.dtype != FLOAT_DTYPE
            or out.dtype != FLOAT_DTYPE
            or out.shape != x.shape
            or not x.flags.c_contiguous
            or not out.flags.c_contiguous
        ):
            return None
        if x.size == 0:
            return out
        scale = compute_scale(x, spec, max_abs=max_abs)
        rowwise = _rowwise_scales(x, scale)
        if rowwise is None:
            return None
        scales, row_size = rowwise
        _LIB.defa_fake_quantize(
            _ptr(x),
            _ptr(out),
            ctypes.c_int64(x.size),
            _ptr(scales),
            ctypes.c_int64(row_size),
            ctypes.c_double(spec.qmin),
            ctypes.c_double(spec.qmax),
        )
        return out

    def add_layer_norm_into(
        self,
        a: np.ndarray,
        b: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray,
        eps: float,
        out: np.ndarray,
        in_rows: np.ndarray | None = None,
        out_rows: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """``out[out_rows] = layer_norm((a + b)[in_rows])`` in one C pass.

        ``a`` and ``b`` are same-shape float32 arrays read as rows of their
        last axis, ``out`` any float32 array with that row width (it must
        not alias ``a`` or ``b``).  ``in_rows`` gathers the rows to
        normalize, ``out_rows`` scatters the results; ``None`` is the
        identity for either.  Bit-identical to ``np.add`` followed by
        :func:`repro.nn.tensor_utils.layer_norm` and numpy's gather/scatter
        indexing; ``None`` means unsupported input (wrong dtype or layout,
        mismatched row counts, an index out of ``[0, rows)``) and the caller
        runs the numpy chain, which raises for a bad index.
        """
        arrays = (a, b, weight, bias, out)
        if any(x.dtype != FLOAT_DTYPE or not x.flags.c_contiguous for x in arrays):
            return None
        d = int(a.shape[-1]) if a.ndim else 0
        if (
            d == 0
            or b.shape != a.shape
            or out.ndim == 0
            or out.shape[-1] != d
            or weight.shape != (d,)
            or bias.shape != (d,)
        ):
            return None
        n_in, n_out = a.size // d, out.size // d
        k = n_in if in_rows is None else in_rows.size
        if k != (n_out if out_rows is None else out_rows.size):
            return None
        for rows, n in ((in_rows, n_in), (out_rows, n_out)):
            if rows is None:
                continue
            if (
                rows.dtype != np.int64
                or rows.ndim != 1
                or not rows.flags.c_contiguous
                or (k and (rows.min() < 0 or rows.max() >= n))
            ):
                return None
        _LIB.defa_add_layer_norm(
            _ptr(a),
            _ptr(b),
            None if in_rows is None else _ptr(in_rows),
            None if out_rows is None else _ptr(out_rows),
            ctypes.c_int64(k),
            ctypes.c_int64(d),
            _ptr(weight),
            _ptr(bias),
            ctypes.c_double(eps),
            _ptr(out),
        )
        return out

    def bias_relu_into(self, h: np.ndarray, bias: np.ndarray) -> np.ndarray | None:
        """``h = np.maximum(h + bias, 0.0)`` in place, one C pass.

        ``h`` is a float32 array whose last axis matches the 1-D ``bias``.
        Bit-identical to ``h += bias; np.maximum(h, 0.0, out=h)``; ``None``
        means unsupported input (or a numpy whose ``maximum`` keeps
        ``-0.0``) and the caller runs those two numpy passes.
        """
        if (
            not _RELU_MATCHES_NUMPY
            or h.dtype != FLOAT_DTYPE
            or bias.dtype != FLOAT_DTYPE
            or not h.flags.c_contiguous
            or not bias.flags.c_contiguous
            or h.ndim == 0
            or bias.shape != (h.shape[-1],)
        ):
            return None
        cols = bias.size
        _LIB.defa_bias_relu(
            _ptr(h),
            _ptr(bias),
            ctypes.c_int64(h.size // cols if cols else 0),
            ctypes.c_int64(cols),
        )
        return h
