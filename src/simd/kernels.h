/**
 * @file
 * Portable kernel-backend interface for the library's hot loops.
 *
 * A KernelTable bundles the architecture-specific inner kernels the
 * library dispatches at runtime (simd/dispatch.h): the packed-panel
 * GEMM microkernels with their packs (pure copies: a quantized operand
 * is quantized in full before it is packed), the nearest- and
 * stochastic-rounding quantize sweeps, bf16 rounding, the max-abs,
 * error-metric and sum-of-squares reductions, the attention softmax,
 * the decode-attention page walker and the AdamW update. Every GEMM
 * runs through the packed kernels, which fix the per-element
 * accumulation order (a zero accumulator, k ascending in one lane, one
 * add into C), so each backend keeps the guarantee that results are
 * bit-identical for any thread count and any shape split; the page
 * walker keeps the same per-element arithmetic. Different backends may
 * legitimately differ in low-order bits of GEMM, page-walker and
 * sum-of-squares results (FMA contraction, vector-lane accumulation
 * order); the packs, the quantize (both rounding modes), bf16-round,
 * max-abs, softmax and AdamW-update kernels are required to agree
 * bit-for-bit across backends. tests/test_simd.cpp enforces both
 * contracts; tests/test_serve.cpp holds each backend's walker to its
 * own GEMMs.
 */
#ifndef SNIP_SIMD_KERNELS_H
#define SNIP_SIMD_KERNELS_H

#include <cstdint>

#include "quant/codec.h"

namespace snip {
namespace simd {

/// GEMM M-block: the rows of C one packed A panel covers, and the
/// parallelFor unit in tensor/gemm.cpp. Workers own whole rows of C,
/// so the decomposition — and therefore each backend's accumulation
/// order — never depends on thread count.
constexpr int64_t kGemmBlockM = 64;

/// Register-tile edges, shared by every backend: packed A panels hold
/// kGemmPackMR-row strips, packed B panels kGemmPackNR-column strips
/// (6 x 16 is the classic AVX2+FMA sweet spot — twelve 8-lane
/// accumulators).
constexpr int64_t kGemmPackMR = 6;
constexpr int64_t kGemmPackNR = 16;

/// Strip count of a packed dimension (panels are zero-padded to whole
/// strips).
constexpr int64_t
packStrips(int64_t extent, int64_t strip)
{
    return (extent + strip - 1) / strip;
}

/**
 * In-place nearest-rounding fake quantization of @p count values:
 * p[i] = quantizeNearest(p[i] * scale, fmt) * inv_scale.
 * Must match the scalar codec (quant/codec.h) bit for bit. @p grid is
 * quantGrid(fmt), hoisted by the caller so per-span calls (one per
 * row segment of a scaling region, as few as 128 elements) don't pay
 * the constant setup.
 */
using QuantizeNearestFn = void (*)(float *p, int64_t count,
                                   const FloatFormat &fmt,
                                   const QuantGrid &grid, float scale,
                                   float inv_scale);

/**
 * In-place stochastic-rounding fake quantization of @p count values:
 *     p[i] = quantizeStochastic(p[i] * scale, fmt, rng) * inv_scale
 * where the uniform the codec would draw for element i is supplied as
 * @p draws[i]. The codec draws only where stochasticConsumesDraw(p[i]
 * * scale, grid) holds (quant/codec.h), so a caller replays an Rng
 * stream by drawing, in element order, for exactly those elements;
 * the other entries of draws[] are ignored. The rounding rule rounds
 * the grid index up iff draws[i] < frac(index), compared at the
 * draw's full double precision; must match the scalar codec bit for
 * bit.
 */
using QuantizeStochasticFn = void (*)(float *p, int64_t count,
                                      const QuantGrid &grid, float scale,
                                      float inv_scale,
                                      const double *draws);

/** In-place bf16 round-to-nearest-even of @p count values (the
 *  tensorwise bf16 fast path; pure bit manipulation, exact). */
using Bf16RoundFn = void (*)(float *p, int64_t count);

/** Largest |p[i]| over @p count values; 0 for empty runs. NaN inputs
 *  are ignored (never returned), matching a scalar max-reduction. */
using MaxAbsFn = float (*)(const float *p, int64_t count);

/**
 * Error-metric reduction: *sum_sq = sum((q[i]-ref[i])^2) accumulated
 * in double, *max_err = max |q[i]-ref[i]|. max_err must be exact;
 * sum_sq may differ across backends in low-order bits.
 */
using ErrorStatsFn = void (*)(const float *ref, const float *q,
                              int64_t count, double *sum_sq,
                              double *max_err);

/**
 * Pack rows [i0, i1) of the logical GEMM A operand (M x K) into
 * kGemmPackMR-row strips:
 *     ap[s*MR*k + kk*MR + r] = A[i0 + s*MR + r, kk]
 * (zero for i0+s*MR+r >= i1). When @p k_major is false the source is
 * A itself, row-major [M, K] with leading dimension @p ld = K; when
 * true the source is the TN variant's A, row-major [K, M] with
 * @p ld = M, and the element is src[kk*ld + i]. A pack is a pure copy:
 * a quantized operand is quantized before it is packed (tensor/gemm.h).
 *
 * Callers must size the destination with at least 8 floats of
 * headroom past the final strip: vectorized backends store transposed
 * 8-lane groups at stride kGemmPackMR, so the last store of the last
 * strip spills two lanes past the panel (every earlier spill is
 * overwritten by later in-panel stores).
 */
using PackAFn = void (*)(const float *src, int64_t ld, bool k_major,
                         float *ap, int64_t i0, int64_t i1, int64_t k);

/**
 * Pack columns [j0, j1) of the logical GEMM B operand (K x N) into
 * kGemmPackNR-column strips:
 *     bp[s*NR*k + kk*NR + r] = B[kk, s*NR + r]
 * (zero for s*NR+r >= n; @p j0 must be strip-aligned — it is a
 * parallelFor boundary). When @p k_major the source is row-major
 * [K, N] with @p ld = N (the NN/TN B operand); otherwise it is
 * row-major [N, K] with @p ld = K (the NT B operand, e.g. weights) and
 * the element is src[j*ld + kk]. @p bp points at the panel base (strip
 * offsets are computed from j0). A pure copy, like PackAFn.
 */
using PackBFn = void (*)(const float *src, int64_t ld, bool k_major,
                         float *bp, int64_t j0, int64_t j1, int64_t n,
                         int64_t k);

/**
 * One M-row-block of the packed GEMM: C[0..mb) x [0..n) at @p c
 * (leading dimension @p ldc) += Ap * Bp, where ap holds the block's
 * packed A panel and bp the full packed B panel. Each C element gets a
 * zero accumulator, its k-products added in ascending k in one lane,
 * and one add into C — pure functions of the arguments, so results
 * are bit-exact for any thread count.
 */
using GemmPackedBlockFn = void (*)(const float *ap, const float *bp,
                                   float *c, int64_t ldc, int64_t mb,
                                   int64_t n, int64_t k);

/**
 * Thin-M GEMM without the A pack: C[0..m) x [0..n) at @p c (leading
 * dimension @p ldc) += A * Bp for m < kGemmPackMR rows of a row-major
 * A (leading dimension @p lda) read in place, against the full packed
 * B panel @p bp. The per-element work is GemmPackedBlockFn's (zero
 * accumulator, ascending k in one lane, one add into C), so on each
 * backend the output is bit-identical to packing A and running the
 * block kernel — the pack only pays once A has a whole strip of rows.
 */
using GemmPackedRowsFn = void (*)(const float *a, int64_t lda,
                                  const float *bp, float *c, int64_t ldc,
                                  int64_t m, int64_t n, int64_t k);

/**
 * sum(p[i]^2) accumulated in double — the Frobenius-norm reduction the
 * stats collector and eval paths lean on (tensor/ops.cpp dispatches
 * here). Like sum_sq above, backends may differ in low-order bits.
 */
using SumSquaresFn = double (*)(const float *p, int64_t count);

/**
 * Fused scale + causal mask + rowwise softmax over one [seq, seq]
 * attention-score matrix, in place: for row i, entries j <= i are
 * scaled by @p scale, max-shifted, exponentiated and normalized by a
 * double-accumulated row sum; entries j > i become exactly 0.
 *
 * Contract: bit-exact across backends AND bit-exact against the
 * historical open-coded loop (the multiplies are per-element IEEE
 * ops, exp() and the row-sum accumulation stay scalar), which decode
 * attention (nn/attention.cpp) replays for its single query row.
 * tests/test_simd.cpp enforces the agreement.
 */
using AttnSoftmaxFwdFn = void (*)(float *prob, int64_t seq, float scale);

/**
 * Softmax backward with the score scale folded in, one [seq, seq]
 * item: ds[i][j] = prob[i][j] * (dp[i][j] - rowdot(dp[i], prob[i]))
 * * scale for j <= i (rowdot over j <= i, accumulated in double),
 * 0 above the diagonal. @p ds may alias @p dp (each row's dot is
 * fully reduced before the row is overwritten). Same cross-backend
 * bit-exactness contract as AttnSoftmaxFwdFn.
 */
using AttnSoftmaxBwdFn = void (*)(const float *prob, const float *dp,
                                  float *ds, int64_t seq, float scale);

/**
 * Read-only view of one (sequence, layer, kv-head) K/V history in a
 * paged cache; serve::KvCache fills it, so the page layout stays in
 * serve/. Token j lives on page pages[j / page_tokens] in slot
 * s = j % page_tokens; its K row of head_dim elements starts at
 * element page * page_stride + s * row_stride from the K base (V
 * likewise from the V base). fp8 pages hold FP8-E4M3 byte codes
 * (quant/codec.h) in k_codes / v_codes, with the row's inverse scale
 * at k_inv / v_inv[page * inv_page_stride + s * inv_row_stride]; fp32
 * pages hold the floats themselves in k_vals / v_vals (codes null).
 */
struct KvHeadView
{
    const int32_t *pages = nullptr;
    int64_t len = 0;
    int64_t page_tokens = 0;
    int64_t head_dim = 0;
    int64_t page_stride = 0;
    int64_t row_stride = 0;
    const uint8_t *k_codes = nullptr;
    const uint8_t *v_codes = nullptr;
    const float *k_inv = nullptr;
    const float *v_inv = nullptr;
    int64_t inv_page_stride = 0;
    int64_t inv_row_stride = 0;
    const float *k_vals = nullptr;
    const float *v_vals = nullptr;
};

/**
 * Decode attention of one GQA group against one kv head's history,
 * read in place from its pages (@p kv, len >= 1). For each of the
 * @p group query heads q[g*hd, (g+1)*hd):
 *   - scores s_j = q_g . k_j for every stored token j;
 *   - decodeSoftmax(s, len, scale);
 *   - ctx[g*hd + d] = sum_j p_j * v_j[d], j ascending.
 * Both sums use GemmPackedRowsFn's per-element arithmetic — a +0
 * accumulator, ascending order in one lane, one add into a zeroed
 * output — so each value equals what gathering the rows into slabs
 * and running the one-row score and context GEMMs would form on the
 * same backend. fp8 rows are dequantized exactly as
 * dequantE4m3(code, inv) (quant/codec.h), a page at a time and once
 * per row for the whole group. @p scratch holds kvAttendScratch()
 * floats; the probabilities end in its first group * len. Loads never
 * pass a row's head_dim elements.
 */
using KvAttendFn = void (*)(const KvHeadView &kv, const float *q,
                            int64_t group, float scale, float *scratch,
                            float *ctx);

/** Scratch floats kvAttend needs: the group's score rows, its context
 *  rows padded to whole 8-lane chunks, and one page of dequantized
 *  rows with 8 floats of vector-store headroom. */
constexpr int64_t
kvAttendScratch(const KvHeadView &kv, int64_t group)
{
    return group * (kv.len + (kv.head_dim + 7) / 8 * 8) +
           kv.page_tokens * kv.head_dim + 8;
}

/**
 * The decode softmax over one score row, in place: scale + running
 * max, scalar exp, double sum, float normalize — the last row of
 * AttnSoftmaxFwdFn's reference loop. Compiled once (scalar backend)
 * and shared by every backend's kvAttend.
 */
void decodeSoftmax(float *s, int64_t len, float scale);

/**
 * The per-step constants of one AdamW update (optim/adamw.h), computed
 * once per step by the optimizer.
 */
struct AdamwCoeffs
{
    double clip_scale = 1.0;   ///< global grad-norm clip factor
    double decay = 1.0;        ///< 1 - lr * weight_decay
    double b1 = 0.0;           ///< beta1
    double one_minus_b1 = 1.0; ///< 1 - beta1
    double b2 = 0.0;           ///< beta2
    double one_minus_b2 = 1.0; ///< 1 - beta2
    double bias1 = 1.0;        ///< 1 - beta1^t
    double bias2 = 1.0;        ///< 1 - beta2^t
    double lr = 0.0;
    double eps = 0.0;
};

/**
 * One AdamW update of @p n parameters in place, in double precision
 * per element and stored back to float (c = @p coeffs):
 *     g' = g * c.clip_scale
 *     m  = c.b1 * m + c.one_minus_b1 * g'
 *     v  = c.b2 * v + (c.one_minus_b2 * g') * g'
 *     w  = w * c.decay - (c.lr * (m / c.bias1))
 *                        / (sqrt(v / c.bias2) + c.eps)
 * with m and v the double values before their float stores. Every
 * step is one correctly-rounded IEEE operation in this association
 * and no multiply-add is fused, so the kernel is bit-exact across
 * backends.
 */
using AdamwUpdateFn = void (*)(float *w, const float *g, float *m,
                               float *v, int64_t n,
                               const AdamwCoeffs &coeffs);

/** The dispatchable kernel set of one backend. */
struct KernelTable
{
    const char *name;
    PackAFn packA; ///< strip-pack A panels
    PackBFn packB; ///< strip-pack B panels
    GemmPackedBlockFn gemmPackedBlock; ///< packed-panel M-block GEMM
    GemmPackedRowsFn gemmPackedRows;   ///< thin-M rows, A unpacked
    QuantizeNearestFn quantizeNearest;
    QuantizeStochasticFn quantizeStochastic;
    Bf16RoundFn bf16Round;
    MaxAbsFn maxAbs;
    ErrorStatsFn errorStats;
    SumSquaresFn sumSquares;
    AttnSoftmaxFwdFn attnSoftmaxFwd; ///< scale+mask+softmax, one item
    AttnSoftmaxBwdFn attnSoftmaxBwd; ///< softmax backward, one item
    KvAttendFn kvAttend;             ///< decode attention over pages
    AdamwUpdateFn adamwUpdate;       ///< one AdamW update sweep
};

/** The portable plain-C++ backend (always available). */
const KernelTable &scalarKernels();

/** True when the AVX2+FMA backend was compiled in. */
bool avx2Compiled();

/** The AVX2+FMA backend; only valid to *call into* when
 *  dispatch.h's cpuSupportsAvx2() is true. */
const KernelTable &avx2Kernels();

} // namespace simd
} // namespace snip

#endif // SNIP_SIMD_KERNELS_H
