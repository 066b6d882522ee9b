/* Compiled DEFA hot-path kernels.
 *
 * C implementations of the true hot loops of the sparse encoder, in six
 * entry points:
 *
 * - defa_locate: range-narrowing clamp (with the per-image count of clamped
 *   components) + divide by the level size + add the reference point, one
 *   pass from raw sampling offsets to normalized sampling locations;
 * - defa_compact_trace: the bilinear neighbour/weight/index math of the
 *   compacted sampling trace, one pass over the kept points;
 * - defa_gather_combine_segsum: the flat neighbour gather, the 4-neighbour
 *   bilinear weight combine and the segment sum;
 * - defa_fake_quantize: the fused fake-quantize chain;
 * - defa_add_layer_norm: residual add + LayerNorm over (optionally gathered
 *   and scattered) rows, the inter-block stage's norm;
 * - defa_bias_relu: the FFN's first bias add + ReLU in one in-place pass.
 *
 * Loaded via ctypes by repro/kernels/compiled_backend.py; there is
 * deliberately no Python C-API dependency so the library builds with any C
 * toolchain and degrades to COMPILED_AVAILABLE = False when none exists.
 *
 * Bit-identity contract (the "compiled" backend is gated at exactly 0.0
 * drift against "fused", see benchmarks/baselines/README.md):
 *
 * - The locate pass is the float32 op sequence np.clip -> np.divide ->
 *   np.add of RangeNarrowing.clamp_offsets and
 *   MSDeformAttn.compute_sampling_locations, elementwise; a component
 *   counts as clamped exactly when |offset| > range (NaN never counts and
 *   passes through, as in np.clip).
 * - The compact trace uses the expressions of _compact_trace_arrays_fused:
 *   float32 x = loc * size - 0.5, floor, the fraction (x - floor) taken
 *   through float64 and stored as float32, float32 weight products, and
 *   flat index -1 for out-of-bounds neighbours.
 * - The gather/combine order replicates the fused backend exactly:
 *   w = (weights * valid) * attn as float32, then a sequential float32
 *   accumulation over the four neighbours (numpy's einsum "kfc,kf->kc"
 *   order for a length-4 contraction).
 * - The segment sum replicates np.add.reduceat: each segment sums as
 *   `first row + pairwise_sum(rest)`, where pairwise_sum is numpy's
 *   8-way-unrolled pairwise algorithm (sequential below 8 rows, unrolled
 *   partial sums up to the 128-row block size, recursive halving above).
 * - Segments are split at the same 8 MiB chunk boundaries as both numpy
 *   backends (_SPARSE_CONTRIB_BUDGET_BYTES), flushing a partial sum into
 *   the output row at each boundary in chronological order.
 * - The fake-quantize chain is elementwise float64 divide -> rint ->
 *   clip -> rescale -> float32 store, the exact op sequence of
 *   repro.quant.quantizer.fake_quantize's in-place path.
 * - The add + LayerNorm is repro.nn.tensor_utils.layer_norm(a + b) per row,
 *   in its float32 op order: x = a + b; mean = sum(x) / D; var =
 *   sum((x - mean)^2) / D; out = (x - mean) / sqrtf(var + (float)eps) *
 *   weight + bias.  Both row sums are numpy's last-axis float32 reduction:
 *   the identity 0.0f plus pairwise_sum over the *whole* row (unlike
 *   reduceat's first + pairwise(rest)), so an all -0.0 row sums to +0.0.
 * - The bias + ReLU is `h += b` followed by np.maximum(h, 0.0) as numpy's
 *   SIMD loops compute it: t > 0 or NaN keeps t (NaN bits pass through),
 *   anything else, -0.0 included, becomes +0.0.
 *
 * Must be compiled with FP contraction off (-ffp-contract=off) — a fused
 * multiply-add would change the rounding of the combine loop and of the
 * x * size - 0.5 pixel coordinate.
 */

#include <stdint.h>
#include <string.h>
#include <math.h>

/* Bumped whenever a signature below changes; the ctypes loader refuses a
 * stale library rather than calling it with a mismatched ABI. */
#define DEFA_KERNELS_ABI 3

int64_t
defa_kernels_abi(void)
{
    return DEFA_KERNELS_ABI;
}

/* numpy pairwise summation over the `n` contiguous (w,)-rows at `rows`,
 * written into `res`.  `r8` is 8*w scratch for the unrolled partial sums,
 * `stack` provides one w-sized scratch row per recursion level. */
static void
pairwise_rows(const float *rows, int64_t n, int64_t w,
              float *res, float *r8, float *stack)
{
    if (n < 8) {
        for (int64_t c = 0; c < w; ++c) res[c] = 0.0f;
        for (int64_t i = 0; i < n; ++i) {
            const float *a = rows + i * w;
            for (int64_t c = 0; c < w; ++c) res[c] += a[c];
        }
    }
    else if (n <= 128) {
        memcpy(r8, rows, (size_t)(8 * w) * sizeof(float));
        int64_t i = 8;
        for (; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; ++j) {
                const float *a = rows + (i + j) * w;
                float *r = r8 + j * w;
                for (int64_t c = 0; c < w; ++c) r[c] += a[c];
            }
        }
        for (int64_t c = 0; c < w; ++c)
            res[c] = ((r8[c] + r8[w + c]) + (r8[2 * w + c] + r8[3 * w + c]))
                   + ((r8[4 * w + c] + r8[5 * w + c]) + (r8[6 * w + c] + r8[7 * w + c]));
        for (; i < n; ++i) {
            const float *a = rows + i * w;
            for (int64_t c = 0; c < w; ++c) res[c] += a[c];
        }
    }
    else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        float *right = stack;
        pairwise_rows(rows, n2, w, res, r8, stack + w);
        pairwise_rows(rows + n2 * w, n - n2, w, right, r8, stack + w);
        for (int64_t c = 0; c < w; ++c) res[c] += right[c];
    }
}

/* Fused flat-neighbour gather + bilinear weight combine + segment sum over
 * a compacted sampling trace (CompactSamplingTrace layout):
 *
 *   value     (n_rows, d_h)  float32 value rows, n_rows = batch*n_in*n_h
 *   kept      (k,)           sorted flat point ids; seg = kept / points_per_seg
 *   flat_idx  (k, 4)         neighbour token ids, -1 for out of bounds
 *   weights   (k, 4)         bilinear weights (invalid entries not zeroed)
 *   valid     (k, 4)         in-bounds flags, one byte each
 *   attn      (k,)           attention probability per kept point
 *   contrib   (run_max, d_h) scratch for one segment-within-chunk run
 *   sums      (>=57, d_h)    scratch: res row + 8 unroll rows + 48 stack rows
 *   out       (batch*n_q*n_h, d_h)  caller-zeroed output, accumulated into
 */
void
defa_gather_combine_segsum(
    const float *restrict value,
    const int64_t *restrict kept,
    const int64_t *restrict flat_idx,
    const float *restrict weights,
    const uint8_t *restrict valid,
    const float *restrict attn,
    int64_t k, int64_t d_h,
    int64_t n_in, int64_t n_h, int64_t n_q,
    int64_t points_per_seg,
    int64_t batch,
    int64_t chunk,
    float *restrict contrib,
    float *restrict sums,
    float *restrict out)
{
    float *res = sums;
    float *r8 = sums + d_h;
    float *stack = sums + 9 * d_h;
    int64_t i = 0;
    while (i < k) {
        int64_t seg = kept[i] / points_per_seg;
        /* One run = the rows of this segment inside the current chunk; a
         * segment crossing a chunk boundary flushes one partial sum per
         * chunk, exactly like the chunked reduceat of the numpy backends. */
        int64_t chunk_end = (i / chunk + 1) * chunk;
        int64_t j = i + 1;
        while (j < k && j < chunk_end && kept[j] / points_per_seg == seg) ++j;
        int64_t n = j - i;
        int64_t head = seg % n_h;
        int64_t base = head;
        if (batch > 1) base += (seg / (n_q * n_h)) * n_in * n_h;
        for (int64_t r = 0; r < n; ++r) {
            int64_t p = i + r;
            const int64_t *fi = flat_idx + p * 4;
            const float *wr = weights + p * 4;
            const uint8_t *vr = valid + p * 4;
            float a = attn[p];
            float w0 = wr[0] * (float)vr[0]; w0 *= a;
            float w1 = wr[1] * (float)vr[1]; w1 *= a;
            float w2 = wr[2] * (float)vr[2]; w2 *= a;
            float w3 = wr[3] * (float)vr[3]; w3 *= a;
            /* clamp -1 (out of bounds) to 0: its weight is exactly 0 */
            const float *g0 = value + (base + (fi[0] > 0 ? fi[0] : 0) * n_h) * d_h;
            const float *g1 = value + (base + (fi[1] > 0 ? fi[1] : 0) * n_h) * d_h;
            const float *g2 = value + (base + (fi[2] > 0 ? fi[2] : 0) * n_h) * d_h;
            const float *g3 = value + (base + (fi[3] > 0 ? fi[3] : 0) * n_h) * d_h;
            float *cr = contrib + r * d_h;
            for (int64_t c = 0; c < d_h; ++c) {
                float t = w0 * g0[c];
                t += w1 * g1[c];
                t += w2 * g2[c];
                t += w3 * g3[c];
                cr[c] = t;
            }
        }
        float *o = out + seg * d_h;
        if (n == 1) {
            for (int64_t c = 0; c < d_h; ++c) o[c] += contrib[c];
        } else {
            /* np.add.reduceat: first row + pairwise sum of the rest */
            pairwise_rows(contrib + d_h, n - 1, d_h, res, r8, stack);
            for (int64_t c = 0; c < d_h; ++c) o[c] += contrib[c] + res[c];
        }
        i = j;
    }
}

/* Fused fake-quantize chain: out = clip(rint(x / scale), qmin, qmax) * scale
 * computed in float64 and stored as float32 — one pass instead of the four
 * full-array passes (plus a float64 scratch) of the numpy in-place chain.
 * `scales` holds one float64 scale per row of `row_size` elements
 * (n / row_size rows); a single dynamic scale is the row_size == n case. */
void
defa_fake_quantize(
    const float *restrict x,
    float *restrict out,
    int64_t n,
    const double *restrict scales,
    int64_t row_size,
    double qmin,
    double qmax)
{
    if (row_size <= 0) return;
    int64_t rows = n / row_size;
    for (int64_t r = 0; r < rows; ++r) {
        double s = scales[r];
        const float *xr = x + r * row_size;
        float *orow = out + r * row_size;
        for (int64_t c = 0; c < row_size; ++c) {
            double v = (double)xr[c] / s;
            v = rint(v);
            if (v < qmin) v = qmin;
            if (v > qmax) v = qmax;
            orow[c] = (float)(v * s);
        }
    }
}

/* Range narrowing + sampling locations in one pass over the offset grid:
 *
 *   offsets   (batch, n_q, n_h, n_l, n_p, 2)  raw offsets, level pixels
 *   ref       (n_q, n_l, 2) per image; image b reads ref + b * ref_stride
 *             (ref_stride = 0 for reference points shared by the batch)
 *   size      (n_l, 2)      float32 (width, height) of every level
 *   ranges    (n_l,)        float32 half-ranges, or NULL for no clamp
 *   out       same shape as offsets: ref + clip(offset) / size
 *   counts    (batch,)      components the clamp changed, per image
 */
void
defa_locate(
    const float *restrict offsets,
    const float *restrict ref,
    const float *restrict size,
    const float *restrict ranges,
    int64_t batch, int64_t n_q, int64_t n_h, int64_t n_l, int64_t n_p,
    int64_t ref_stride,
    float *restrict out,
    int64_t *restrict counts)
{
    const int64_t row = n_h * n_l * n_p * 2;
    for (int64_t b = 0; b < batch; ++b) {
        int64_t count = 0;
        for (int64_t q = 0; q < n_q; ++q) {
            const float *rq = ref + b * ref_stride + q * n_l * 2;
            const float *src = offsets + (b * n_q + q) * row;
            float *dst = out + (b * n_q + q) * row;
            for (int64_t h = 0; h < n_h; ++h) {
                for (int64_t l = 0; l < n_l; ++l) {
                    const float rx = rq[2 * l], ry = rq[2 * l + 1];
                    const float sx = size[2 * l], sy = size[2 * l + 1];
                    const float hi = ranges ? ranges[l] : 0.0f;
                    const float lo = -hi;
                    for (int64_t p = 0; p < n_p; ++p) {
                        float vx = src[2 * p], vy = src[2 * p + 1];
                        if (ranges) {
                            count += (vx > hi) + (vx < lo) + (vy > hi) + (vy < lo);
                            vx = vx > hi ? hi : (vx < lo ? lo : vx);
                            vy = vy > hi ? hi : (vy < lo ? lo : vy);
                        }
                        dst[2 * p] = rx + vx / sx;
                        dst[2 * p + 1] = ry + vy / sy;
                    }
                    src += 2 * n_p;
                    dst += 2 * n_p;
                }
            }
        }
        counts[b] = count;
    }
}

/* Per-point arrays of the compacted sampling trace (CompactSamplingTrace
 * layout), built for the kept points only:
 *
 *   loc       (total_points, 2)  normalized (x, y) sampling locations
 *   kept      (k,)               flat point ids; level = (id / n_p) % n_l
 *   size      (n_l, 2)           float32 (width, height) of every level
 *   dims      (n_l, 3)           int64 (height, width, start token)
 *   levels    (k,)               out: level of every kept point
 *   weights   (k, 4)             out: bilinear weights (not zeroed when
 *                                invalid, as in the numpy trace)
 *   valid     (k, 4)             out: in-bounds flags, one byte each
 *   flat      (k, 4)             out: neighbour token ids, -1 when invalid
 *
 * Neighbour order: (y0, x0), (y0, x0+1), (y0+1, x0), (y0+1, x0+1).
 */
void
defa_compact_trace(
    const float *restrict loc,
    const int64_t *restrict kept,
    int64_t k, int64_t n_l, int64_t n_p,
    const float *restrict size,
    const int64_t *restrict dims,
    int64_t *restrict levels,
    float *restrict weights,
    uint8_t *restrict valid,
    int64_t *restrict flat)
{
    for (int64_t i = 0; i < k; ++i) {
        const int64_t id = kept[i];
        const int64_t l = (id / n_p) % n_l;
        const float x = loc[2 * id] * size[2 * l] - 0.5f;
        const float y = loc[2 * id + 1] * size[2 * l + 1] - 0.5f;
        const int64_t x0 = (int64_t)floorf(x);
        const int64_t y0 = (int64_t)floorf(y);
        const float t1 = (float)((double)x - (double)x0);
        const float t0 = (float)((double)y - (double)y0);
        const float u1 = 1.0f - t1;
        const float u0 = 1.0f - t0;
        float *w = weights + 4 * i;
        w[0] = u1 * u0;
        w[1] = t1 * u0;
        w[2] = u1 * t0;
        w[3] = t1 * t0;
        const int64_t h = dims[3 * l], wd = dims[3 * l + 1], start = dims[3 * l + 2];
        const int row_in[2] = {y0 >= 0 && y0 < h, y0 + 1 >= 0 && y0 + 1 < h};
        const int col_in[2] = {x0 >= 0 && x0 < wd, x0 + 1 >= 0 && x0 + 1 < wd};
        uint8_t *v = valid + 4 * i;
        int64_t *f = flat + 4 * i;
        for (int n = 0; n < 4; ++n) {
            const int dy = n >> 1, dx = n & 1;
            const int ok = row_in[dy] && col_in[dx];
            v[n] = (uint8_t)ok;
            f[n] = ok ? start + (y0 + dy) * wd + (x0 + dx) : -1;
        }
        levels[i] = l;
    }
}

/* numpy's float32 pairwise_sum of the n values at x (stride 1).  It and
 * pairwise_sq_dev below are spelled out separately: one function with a
 * "square the term" flag vectorized worse and made defa_add_layer_norm about
 * 40 % slower. */
static float
pairwise_sum(const float *x, int64_t n)
{
    if (n < 8) {
        float res = 0.0f;
        for (int64_t i = 0; i < n; ++i) res += x[i];
        return res;
    }
    if (n <= 128) {
        float r[8];
        for (int j = 0; j < 8; ++j) r[j] = x[j];
        int64_t i = 8;
        for (; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; ++j) r[j] += x[i + j];
        float res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i) res += x[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(x, n2) + pairwise_sum(x + n2, n - n2);
}

/* pairwise_sum of (x[i] - mean)^2, the squares formed on the fly in the
 * same float32 ops as numpy's `t = x - mean; t * t` temporary. */
static float
pairwise_sq_dev(const float *x, int64_t n, float mean)
{
    if (n < 8) {
        float res = 0.0f;
        for (int64_t i = 0; i < n; ++i) {
            const float t = x[i] - mean;
            res += t * t;
        }
        return res;
    }
    if (n <= 128) {
        float r[8];
        for (int j = 0; j < 8; ++j) {
            const float t = x[j] - mean;
            r[j] = t * t;
        }
        int64_t i = 8;
        for (; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; ++j) {
                const float t = x[i + j] - mean;
                r[j] += t * t;
            }
        float res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i) {
            const float t = x[i] - mean;
            res += t * t;
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sq_dev(x, n2, mean) + pairwise_sq_dev(x + n2, n - n2, mean);
}

/* Residual add + LayerNorm over k rows of width d:
 *
 *   x = a[in_rows[r]] + b[in_rows[r]]
 *   out[out_rows[r]] = (x - mean(x)) / sqrtf(var(x) + eps) * weight + bias
 *
 * NULL in_rows / out_rows mean row r.  The output row holds x while the row
 * is normalized, so no scratch is needed; out must not alias a or b.
 */
void
defa_add_layer_norm(
    const float *restrict a,
    const float *restrict b,
    const int64_t *restrict in_rows,
    const int64_t *restrict out_rows,
    int64_t k, int64_t d,
    const float *restrict weight,
    const float *restrict bias,
    double eps,
    float *restrict out)
{
    const float epsf = (float)eps;
    const float df = (float)d;
    for (int64_t r = 0; r < k; ++r) {
        const int64_t src = in_rows ? in_rows[r] : r;
        const float *ar = a + src * d;
        const float *br = b + src * d;
        float *o = out + (out_rows ? out_rows[r] : r) * d;
        for (int64_t c = 0; c < d; ++c) o[c] = ar[c] + br[c];
        const float mean = (0.0f + pairwise_sum(o, d)) / df;
        const float var = (0.0f + pairwise_sq_dev(o, d, mean)) / df;
        const float denom = sqrtf(var + epsf);
        for (int64_t c = 0; c < d; ++c) o[c] = (o[c] - mean) / denom * weight[c] + bias[c];
    }
}

/* In-place FFN bias + ReLU over a (rows, cols) block: h = max(h + b, 0). */
void
defa_bias_relu(float *restrict h, const float *restrict b, int64_t rows, int64_t cols)
{
    for (int64_t r = 0; r < rows; ++r) {
        float *hr = h + r * cols;
        for (int64_t c = 0; c < cols; ++c) {
            const float t = hr[c] + b[c];
            hr[c] = (t > 0.0f || t != t) ? t : 0.0f;
        }
    }
}
