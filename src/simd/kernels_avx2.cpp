/**
 * @file
 * AVX2+FMA backend.
 *
 * This translation unit is the only one compiled with -mavx2 -mfma
 * (per-file options in CMakeLists.txt), and it is only entered behind
 * the CPUID check in simd/dispatch.cpp, so the binary still runs on
 * baseline x86-64.
 *
 * Kernel contracts (simd/kernels.h):
 *   - The packed GEMM kernels keep the scalar backend's per-element
 *     accumulation order (zero accumulator, k ascending in one lane,
 *     one add into C), so results are bit-identical across thread
 *     counts and between the block and rows kernels *within this
 *     backend*; FMA contraction makes low-order bits differ from the
 *     scalar backend (tests bound the relative error).
 *   - The quantize (nearest and stochastic) / bf16-round / max-abs
 *     kernels reproduce the scalar codec bit for bit (tests assert
 *     exact equality): every step below is an exact power-of-two
 *     scale, an exact bit manipulation, or the same correctly-rounded
 *     float op the scalar path performs.
 */
#include "simd/kernels.h"

#if defined(SNIP_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "quant/codec.h"

namespace snip {
namespace simd {

namespace {

// ------------------------------------------------------------ packed

__m256 quantize8Avx2(__m256 x, const QuantGrid &g);
inline void transpose8x8(__m256 r0, __m256 r1, __m256 r2, __m256 r3,
                         __m256 r4, __m256 r5, __m256 r6, __m256 r7,
                         __m256 out[8]);

/** Scalar fused quantize for pack tails/gathers (bit-exact with the
 *  vector path by the backend contract). */
inline float
packQuantOneAvx2(float x, const PackQuant *pq, int64_t sr, int64_t sc)
{
    if (pq == nullptr)
        return x;
    const int64_t reg = (sr / pq->row_block) * pq->regions_per_row +
                        sc / pq->col_block;
    return quantizeNearest(x * pq->scale[reg], *pq->fmt) *
           pq->inv_scale[reg];
}

/**
 * Copy (optionally fused-quantizing) a contiguous source row into a
 * packed panel with stride @p stride at lane @p r: for kk in [0, k),
 * dst[kk*stride + r] = q(row[kk]). @p src_row is the source-matrix row
 * of the run (regions advance along the columns only). The 8-wide
 * vector quantize runs per region segment; the strided scatter stays
 * scalar (pack cost is O(MK + NK) against the GEMM's O(MNK)).
 */
inline void
packRowAvx2(const float *row, float *dst, int64_t stride, int64_t r,
            int64_t k, const PackQuant *pq, int64_t src_row)
{
    if (pq == nullptr) {
        for (int64_t kk = 0; kk < k; ++kk)
            dst[kk * stride + r] = row[kk];
        return;
    }
    const QuantGrid &g = *pq->grid;
    const int64_t reg_row =
        (src_row / pq->row_block) * pq->regions_per_row;
    int64_t kk = 0;
    while (kk < k) {
        const int64_t reg = reg_row + kk / pq->col_block;
        const int64_t seg_end =
            std::min(k, (kk / pq->col_block + 1) * pq->col_block);
        const __m256 vs = _mm256_set1_ps(pq->scale[reg]);
        const __m256 vi = _mm256_set1_ps(pq->inv_scale[reg]);
        for (; kk + 8 <= seg_end; kk += 8) {
            __m256 q = _mm256_mul_ps(
                quantize8Avx2(
                    _mm256_mul_ps(_mm256_loadu_ps(row + kk), vs), g),
                vi);
            alignas(32) float t[8];
            _mm256_store_ps(t, q);
            for (int u = 0; u < 8; ++u)
                dst[(kk + u) * stride + r] = t[u];
        }
        for (; kk < seg_end; ++kk)
            dst[kk * stride + r] =
                quantizeNearest(row[kk] * pq->scale[reg], *pq->fmt) *
                pq->inv_scale[reg];
    }
}

void
packAAvx2(const float *src, int64_t ld, bool k_major, float *ap,
          int64_t i0, int64_t i1, int64_t k, const PackQuant *pq)
{
    const int64_t mb = i1 - i0;
    const int64_t strips = packStrips(mb, kGemmPackMR);
    for (int64_t s = 0; s < strips; ++s) {
        float *dst = ap + s * kGemmPackMR * k;
        const int64_t rows = std::min(kGemmPackMR, mb - s * kGemmPackMR);
        if (!k_major && rows == kGemmPackMR) {
            // Full strip: 6 rows x 8 columns per step through the 8x8
            // transpose; out[t] then holds {A[i0..i0+5, kk+t], x, x}
            // and is stored 8 wide at stride 6 — the two garbage
            // lanes land in the next step's (or strip's) territory and
            // are overwritten, except after the very last step, which
            // spills into the PackA headroom the caller guarantees
            // (simd/kernels.h).
            const float *r0 = src + (i0 + s * kGemmPackMR) * ld;
            int64_t reg_of_row[6];
            if (pq != nullptr)
                for (int64_t r = 0; r < 6; ++r)
                    reg_of_row[r] = ((i0 + s * kGemmPackMR + r) /
                                     pq->row_block) *
                                    pq->regions_per_row;
            int64_t kk = 0;
            while (kk < k) {
                const int64_t seg_end =
                    pq == nullptr
                        ? k
                        : std::min(k, (kk / pq->col_block + 1) *
                                          pq->col_block);
                const int64_t vec_end =
                    kk + ((seg_end - kk) & ~int64_t{7});
                for (; kk < vec_end; kk += 8) {
                    __m256 rows8[8], out[8];
                    for (int64_t r = 0; r < 6; ++r) {
                        __m256 v = _mm256_loadu_ps(r0 + r * ld + kk);
                        if (pq != nullptr) {
                            const int64_t reg =
                                reg_of_row[r] + kk / pq->col_block;
                            v = _mm256_mul_ps(
                                quantize8Avx2(
                                    _mm256_mul_ps(
                                        v, _mm256_set1_ps(
                                               pq->scale[reg])),
                                    *pq->grid),
                                _mm256_set1_ps(pq->inv_scale[reg]));
                        }
                        rows8[r] = v;
                    }
                    rows8[6] = _mm256_setzero_ps();
                    rows8[7] = _mm256_setzero_ps();
                    transpose8x8(rows8[0], rows8[1], rows8[2],
                                 rows8[3], rows8[4], rows8[5],
                                 rows8[6], rows8[7], out);
                    for (int64_t t = 0; t < 8; ++t)
                        _mm256_storeu_ps(
                            dst + (kk + t) * kGemmPackMR, out[t]);
                }
                for (; kk < seg_end; ++kk)
                    for (int64_t r = 0; r < 6; ++r)
                        dst[kk * kGemmPackMR + r] = packQuantOneAvx2(
                            r0[r * ld + kk], pq,
                            i0 + s * kGemmPackMR + r, kk);
            }
            continue;
        }
        const int64_t i0s = i0 + s * kGemmPackMR;
        if (k_major && rows == kGemmPackMR && i0s + 8 <= ld &&
            (pq == nullptr ||
             i0s / pq->col_block == (i0s + kGemmPackMR - 1) /
                                        pq->col_block)) {
            // TN gather, full strip: the strip's 6 source columns are
            // contiguous per source row, so each kk is one (8-wide,
            // 6-valid) load + vector quantize + 6-lane masked store.
            // Needs 8 readable floats from the strip start on the last
            // source row, and (when quantizing) one column region
            // across the 6 lanes; rare boundary strips fall through to
            // the scalar path below.
            const __m256i mask6 =
                _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, 0, 0);
            if (pq == nullptr) {
                for (int64_t kk = 0; kk < k; ++kk)
                    _mm256_maskstore_ps(
                        dst + kk * kGemmPackMR, mask6,
                        _mm256_loadu_ps(src + kk * ld + i0s));
            } else {
                const QuantGrid &g = *pq->grid;
                const int64_t reg_col = i0s / pq->col_block;
                for (int64_t kk = 0; kk < k; ++kk) {
                    const int64_t reg =
                        (kk / pq->row_block) * pq->regions_per_row +
                        reg_col;
                    __m256 v = _mm256_mul_ps(
                        _mm256_loadu_ps(src + kk * ld + i0s),
                        _mm256_set1_ps(pq->scale[reg]));
                    v = _mm256_mul_ps(
                        quantize8Avx2(v, g),
                        _mm256_set1_ps(pq->inv_scale[reg]));
                    _mm256_maskstore_ps(dst + kk * kGemmPackMR, mask6,
                                        v);
                }
            }
            continue;
        }
        for (int64_t r = 0; r < kGemmPackMR; ++r) {
            if (r >= rows) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] = 0.0f;
                continue;
            }
            const int64_t i = i0 + s * kGemmPackMR + r;
            if (k_major) {
                // TN gather: stride-ld walk, scalar fused quantize.
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] = packQuantOneAvx2(
                        src[kk * ld + i], pq, kk, i);
            } else {
                packRowAvx2(src + i * ld, dst, kGemmPackMR, r, k, pq,
                            i);
            }
        }
    }
}

/**
 * 8x8 in-register transpose: out[t] holds lane t of each input row.
 */
inline void
transpose8x8(__m256 r0, __m256 r1, __m256 r2, __m256 r3, __m256 r4,
             __m256 r5, __m256 r6, __m256 r7, __m256 out[8])
{
    __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
    __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
    __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
    __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
    __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
    __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
    __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
    out[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    out[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    out[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    out[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    out[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    out[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    out[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    out[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/**
 * Vectorized NT-orientation B pack of one full 8-row half-strip over
 * one k run that stays inside a single column region per row: loads 8
 * source rows 8 columns at a time, quantizes each row vector with its
 * own scale, transposes, and stores 8 contiguous lanes per kk at
 * dst[kk*16 + half]. Requires k0 and k_end both multiples of 8 away
 * from each other... handled by the caller (tail goes scalar).
 */
inline void
packHalfStripTransposed(const float *src, int64_t ld, float *dst,
                        int64_t half, int64_t k0, int64_t k_end,
                        const PackQuant *pq, const int64_t *reg_of_row,
                        int64_t reg_col)
{
    __m256 out[8];
    for (int64_t kk = k0; kk + 8 <= k_end; kk += 8) {
        __m256 rows[8];
        for (int r = 0; r < 8; ++r) {
            __m256 v = _mm256_loadu_ps(src + r * ld + kk);
            if (pq != nullptr) {
                const int64_t reg = reg_of_row[r] + reg_col;
                v = _mm256_mul_ps(
                    quantize8Avx2(
                        _mm256_mul_ps(
                            v, _mm256_set1_ps(pq->scale[reg])),
                        *pq->grid),
                    _mm256_set1_ps(pq->inv_scale[reg]));
            }
            rows[r] = v;
        }
        transpose8x8(rows[0], rows[1], rows[2], rows[3], rows[4],
                     rows[5], rows[6], rows[7], out);
        for (int t = 0; t < 8; ++t)
            _mm256_storeu_ps(dst + (kk + t) * kGemmPackNR + half,
                             out[t]);
    }
}

void
packBAvx2(const float *src, int64_t ld, bool k_major, float *bp,
          int64_t j0, int64_t j1, int64_t n, int64_t k,
          const PackQuant *pq)
{
    for (int64_t s0 = j0; s0 < j1; s0 += kGemmPackNR) {
        float *dst = bp + (s0 / kGemmPackNR) * kGemmPackNR * k;
        const int64_t cols = std::min(kGemmPackNR, n - s0);
        if (k_major) {
            // Source rows run along j: 16 contiguous floats per kk.
            const bool full = cols == kGemmPackNR;
            const bool one_region =
                pq == nullptr ||
                s0 / pq->col_block ==
                    (s0 + cols - 1) / pq->col_block;
            // Ragged strip: lanes at or past cols load as zero padding.
            const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            const int live = static_cast<int>(cols);
            const __m256i lo_mask =
                _mm256_cmpgt_epi32(_mm256_set1_epi32(live), lane);
            const __m256i hi_mask =
                _mm256_cmpgt_epi32(_mm256_set1_epi32(live - 8), lane);
            for (int64_t kk = 0; kk < k; ++kk) {
                const float *in = src + kk * ld + s0;
                float *out = dst + kk * kGemmPackNR;
                if (full && one_region && pq != nullptr) {
                    const int64_t reg =
                        (kk / pq->row_block) * pq->regions_per_row +
                        s0 / pq->col_block;
                    const __m256 vs = _mm256_set1_ps(pq->scale[reg]);
                    const __m256 vi =
                        _mm256_set1_ps(pq->inv_scale[reg]);
                    const QuantGrid &g = *pq->grid;
                    _mm256_storeu_ps(
                        out, _mm256_mul_ps(
                                 quantize8Avx2(
                                     _mm256_mul_ps(
                                         _mm256_loadu_ps(in), vs),
                                     g),
                                 vi));
                    _mm256_storeu_ps(
                        out + 8,
                        _mm256_mul_ps(
                            quantize8Avx2(
                                _mm256_mul_ps(
                                    _mm256_loadu_ps(in + 8), vs),
                                g),
                            vi));
                } else if (full && pq == nullptr) {
                    _mm256_storeu_ps(out, _mm256_loadu_ps(in));
                    _mm256_storeu_ps(out + 8, _mm256_loadu_ps(in + 8));
                } else if (pq == nullptr) {
                    // Masked-off lanes are neither read nor faulted.
                    _mm256_storeu_ps(out, _mm256_maskload_ps(in, lo_mask));
                    _mm256_storeu_ps(out + 8, _mm256_setzero_ps());
                    if (cols > 8)
                        _mm256_storeu_ps(out + 8,
                                         _mm256_maskload_ps(in + 8, hi_mask));
                } else {
                    int64_t r = 0;
                    for (; r < cols; ++r)
                        out[r] = packQuantOneAvx2(in[r], pq, kk,
                                                  s0 + r);
                    for (; r < kGemmPackNR; ++r)
                        out[r] = 0.0f;
                }
            }
        } else if (cols == kGemmPackNR) {
            // NT orientation, full strip: 8x8 transpose blocks keep
            // both the loads and the stores vectorized.
            for (int64_t half = 0; half < 2; ++half) {
                const float *hsrc = src + (s0 + half * 8) * ld;
                if (pq == nullptr) {
                    const int64_t k8 = k & ~int64_t{7};
                    packHalfStripTransposed(hsrc, ld, dst, half * 8, 0,
                                            k8, nullptr, nullptr, 0);
                    for (int64_t kk = k8; kk < k; ++kk)
                        for (int64_t r = 0; r < 8; ++r)
                            dst[kk * kGemmPackNR + half * 8 + r] =
                                hsrc[r * ld + kk];
                    continue;
                }
                int64_t reg_of_row[8];
                for (int64_t r = 0; r < 8; ++r)
                    reg_of_row[r] = ((s0 + half * 8 + r) /
                                     pq->row_block) *
                                    pq->regions_per_row;
                int64_t kk = 0;
                while (kk < k) {
                    const int64_t seg_end = std::min(
                        k, (kk / pq->col_block + 1) * pq->col_block);
                    const int64_t vec_end =
                        kk + ((seg_end - kk) & ~int64_t{7});
                    packHalfStripTransposed(hsrc, ld, dst, half * 8,
                                            kk, vec_end, pq,
                                            reg_of_row,
                                            kk / pq->col_block);
                    for (int64_t t = vec_end; t < seg_end; ++t)
                        for (int64_t r = 0; r < 8; ++r)
                            dst[t * kGemmPackNR + half * 8 + r] =
                                packQuantOneAvx2(hsrc[r * ld + t], pq,
                                                 s0 + half * 8 + r, t);
                    kk = seg_end;
                }
            }
        } else {
            // NT orientation, ragged strip: per-row pack.
            for (int64_t r = 0; r < kGemmPackNR; ++r) {
                if (r >= cols) {
                    for (int64_t kk = 0; kk < k; ++kk)
                        dst[kk * kGemmPackNR + r] = 0.0f;
                    continue;
                }
                const int64_t j = s0 + r;
                packRowAvx2(src + j * ld, dst, kGemmPackNR, r, k, pq,
                            j);
            }
        }
    }
}

/**
 * 6 x 16 register-tiled packed microkernel: twelve 8-lane accumulators
 * hold the C tile; each k step issues two B loads, six A broadcasts
 * and twelve FMAs. Lanes map one-to-one onto C columns, so every C
 * element accumulates its k-products in ascending-k order — the
 * packed path's fixed accumulation order (no cross-lane reduction).
 */
inline void
microKernel6x16(const float *as, const float *bs, float *c, int64_t ldc,
                int64_t mr, int64_t jn, int64_t k)
{
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
    __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
    __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
    __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < k; ++kk) {
        // Pull the B strip (and A strip) a few iterations ahead: the
        // panels stream from L2/L3 at large k and the FMA chain hides
        // no miss latency on its own.
        _mm_prefetch(reinterpret_cast<const char *>(bs + (kk + 24) * 16),
                     _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char *>(as + (kk + 16) * 6),
                     _MM_HINT_T0);
        const __m256 b0 = _mm256_loadu_ps(bs + kk * 16);
        const __m256 b1 = _mm256_loadu_ps(bs + kk * 16 + 8);
        const float *a = as + kk * 6;
        __m256 va = _mm256_broadcast_ss(a + 0);
        c00 = _mm256_fmadd_ps(va, b0, c00);
        c01 = _mm256_fmadd_ps(va, b1, c01);
        va = _mm256_broadcast_ss(a + 1);
        c10 = _mm256_fmadd_ps(va, b0, c10);
        c11 = _mm256_fmadd_ps(va, b1, c11);
        va = _mm256_broadcast_ss(a + 2);
        c20 = _mm256_fmadd_ps(va, b0, c20);
        c21 = _mm256_fmadd_ps(va, b1, c21);
        va = _mm256_broadcast_ss(a + 3);
        c30 = _mm256_fmadd_ps(va, b0, c30);
        c31 = _mm256_fmadd_ps(va, b1, c31);
        va = _mm256_broadcast_ss(a + 4);
        c40 = _mm256_fmadd_ps(va, b0, c40);
        c41 = _mm256_fmadd_ps(va, b1, c41);
        va = _mm256_broadcast_ss(a + 5);
        c50 = _mm256_fmadd_ps(va, b0, c50);
        c51 = _mm256_fmadd_ps(va, b1, c51);
    }
    const __m256 *acc[6][2] = {{&c00, &c01}, {&c10, &c11},
                               {&c20, &c21}, {&c30, &c31},
                               {&c40, &c41}, {&c50, &c51}};
    if (jn == 16) {
        for (int64_t r = 0; r < mr; ++r) {
            float *crow = c + r * ldc;
            _mm256_storeu_ps(
                crow, _mm256_add_ps(_mm256_loadu_ps(crow), *acc[r][0]));
            _mm256_storeu_ps(crow + 8,
                             _mm256_add_ps(_mm256_loadu_ps(crow + 8),
                                           *acc[r][1]));
        }
        return;
    }
    alignas(32) float t[16];
    for (int64_t r = 0; r < mr; ++r) {
        _mm256_store_ps(t, *acc[r][0]);
        _mm256_store_ps(t + 8, *acc[r][1]);
        float *crow = c + r * ldc;
        for (int64_t j = 0; j < jn; ++j)
            crow[j] += t[j];
    }
}

void
gemmPackedBlockAvx2(const float *ap, const float *bp, float *c,
                    int64_t ldc, int64_t mb, int64_t n, int64_t k)
{
    const int64_t m_strips = packStrips(mb, kGemmPackMR);
    const int64_t n_strips = packStrips(n, kGemmPackNR);
    for (int64_t js = 0; js < n_strips; ++js) {
        const float *bs = bp + js * kGemmPackNR * k;
        const int64_t j0 = js * kGemmPackNR;
        const int64_t jn = std::min(kGemmPackNR, n - j0);
        for (int64_t ms = 0; ms < m_strips; ++ms) {
            const int64_t i0 = ms * kGemmPackMR;
            microKernel6x16(ap + ms * kGemmPackMR * k, bs,
                            c + i0 * ldc + j0, ldc,
                            std::min(kGemmPackMR, mb - i0), jn, k);
        }
    }
}

/**
 * microKernel6x16 for @p M < kGemmPackMR rows of a row-major A read in
 * place (leading dimension @p lda): the same per-row FMA chains, with
 * each A element broadcast from its row instead of a packed strip.
 */
template <int M>
inline void
rowsKernelX16(const float *a, int64_t lda, const float *bs, float *c,
              int64_t ldc, int64_t jn, int64_t k)
{
    __m256 acc[M][2];
    for (int r = 0; r < M; ++r) {
        acc[r][0] = _mm256_setzero_ps();
        acc[r][1] = _mm256_setzero_ps();
    }
    for (int64_t kk = 0; kk < k; ++kk) {
        _mm_prefetch(reinterpret_cast<const char *>(bs + (kk + 24) * 16),
                     _MM_HINT_T0);
        const __m256 b0 = _mm256_loadu_ps(bs + kk * 16);
        const __m256 b1 = _mm256_loadu_ps(bs + kk * 16 + 8);
        for (int r = 0; r < M; ++r) {
            const __m256 va = _mm256_broadcast_ss(a + r * lda + kk);
            acc[r][0] = _mm256_fmadd_ps(va, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(va, b1, acc[r][1]);
        }
    }
    alignas(32) float t[16];
    for (int r = 0; r < M; ++r) {
        float *crow = c + r * ldc;
        if (jn == 16) {
            _mm256_storeu_ps(
                crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]));
            _mm256_storeu_ps(crow + 8,
                             _mm256_add_ps(_mm256_loadu_ps(crow + 8),
                                           acc[r][1]));
            continue;
        }
        _mm256_store_ps(t, acc[r][0]);
        _mm256_store_ps(t + 8, acc[r][1]);
        for (int64_t j = 0; j < jn; ++j)
            crow[j] += t[j];
    }
}

void
gemmPackedRowsAvx2(const float *a, int64_t lda, const float *bp, float *c,
                   int64_t ldc, int64_t m, int64_t n, int64_t k)
{
    static_assert(kGemmPackMR == 6, "one rowsKernelX16 per m < MR");
    const int64_t n_strips = packStrips(n, kGemmPackNR);
    for (int64_t js = 0; js < n_strips; ++js) {
        const float *bs = bp + js * kGemmPackNR * k;
        const int64_t j0 = js * kGemmPackNR;
        const int64_t jn = std::min(kGemmPackNR, n - j0);
        float *cs = c + j0;
        switch (m) {
            case 1:
                rowsKernelX16<1>(a, lda, bs, cs, ldc, jn, k);
                break;
            case 2:
                rowsKernelX16<2>(a, lda, bs, cs, ldc, jn, k);
                break;
            case 3:
                rowsKernelX16<3>(a, lda, bs, cs, ldc, jn, k);
                break;
            case 4:
                rowsKernelX16<4>(a, lda, bs, cs, ldc, jn, k);
                break;
            case 5:
                rowsKernelX16<5>(a, lda, bs, cs, ldc, jn, k);
                break;
            default:
                break;
        }
    }
}

// --------------------------------------------------- quantize / misc

/**
 * Eight-lane grid snap shared by both rounding modes: @p round_index
 * maps the exact grid indices of |x| — one read as a normal-range
 * value, one as a subnormal-range value, plus the is-subnormal lane
 * mask — to the integer indices they round to, and every step around
 * it is bit-exact against the scalar codec (see QuantGrid in
 * quant/codec.h for why each step is exact). Handling of the codec's
 * special cases, in blend order: generic result → NaN forced to -max
 * (the scalar "x > 0 ? +max : -max" on non-finites sends NaN negative
 * regardless of its sign bit) → ±0 preserved as +0. ±Inf needs no own
 * blend: its binade scales the normal-path result to +Inf, the min()
 * clamp brings it to max_value, and the sign bit is restored by OR.
 * The same clamp covers saturated lanes whatever @p round_index
 * returns for them, since no rounding takes an index below the grid
 * point max_value.
 */
/** Rounded grid indices of eight lanes, per range (see snap8Avx2). */
struct Index8
{
    __m256 norm;
    __m256 sub;
};

template <class RoundIndex>
inline __m256
snap8Avx2(__m256 x, const QuantGrid &g, RoundIndex round_index)
{
    const __m256i abs_mask = _mm256_set1_epi32(0x7FFFFFFF);
    const __m256i mant_mask = _mm256_set1_epi32(0x007FFFFF);
    const __m256i exp_mask = _mm256_set1_epi32(0x7F800000);
    const __m256i retag_exp =
        _mm256_set1_epi32((127 + g.mantissa_bits) << 23);

    __m256 ax = _mm256_and_ps(x, _mm256_castsi256_ps(abs_mask));
    __m256 sign = _mm256_andnot_ps(_mm256_castsi256_ps(abs_mask), x);
    __m256i bits = _mm256_castps_si256(ax);

    // Normal range: grid index = mantissa-retagged ax, exact in float.
    __m256 q = _mm256_castsi256_ps(_mm256_or_si256(
        _mm256_and_si256(bits, mant_mask), retag_exp));
    __m256 binade = _mm256_castsi256_ps(_mm256_and_si256(bits, exp_mask));
    // Subnormal range: index = ax / min_subnormal via two exact
    // power-of-two scales.
    __m256 qs = _mm256_mul_ps(
        _mm256_mul_ps(ax, _mm256_set1_ps(g.inv_min_sub_hi)),
        _mm256_set1_ps(g.inv_min_sub_lo));
    __m256 is_sub =
        _mm256_cmp_ps(ax, _mm256_set1_ps(g.min_normal), _CMP_LT_OQ);

    const Index8 r = round_index(q, qs, is_sub);
    __m256 res_norm = _mm256_mul_ps(
        _mm256_mul_ps(r.norm, _mm256_set1_ps(g.two_pow_neg_mant)), binade);
    __m256 res_sub =
        _mm256_mul_ps(r.sub, _mm256_set1_ps(g.min_subnormal));
    __m256 res = _mm256_blendv_ps(res_norm, res_sub, is_sub);
    // Saturation: values at or above max_value (and +Inf, and the
    // rare round-up past the top grid point) all clamp here.
    res = _mm256_min_ps(res, _mm256_set1_ps(g.max_value));
    __m256 out = _mm256_or_ps(res, sign);

    __m256 nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    out = _mm256_blendv_ps(out, _mm256_set1_ps(-g.max_value), nan_mask);
    __m256 zero_mask =
        _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_EQ_OQ);
    return _mm256_blendv_ps(out, _mm256_setzero_ps(), zero_mask);
}

/** Nearest rounding (ties to even): bit-exact against
 *  quantizeNearest(). */
inline __m256
quantize8Avx2(__m256 x, const QuantGrid &g)
{
    return snap8Avx2(x, g, [](__m256 q, __m256 qs, __m256) {
        constexpr int kMode = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
        return Index8{_mm256_round_ps(q, kMode), _mm256_round_ps(qs, kMode)};
    });
}

void
quantizeNearestAvx2(float *p, int64_t count, const FloatFormat &fmt,
                    const QuantGrid &g, float scale, float inv_scale)
{
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const int64_t n8 = count & ~int64_t{7};
    for (int64_t i = 0; i < n8; i += 8) {
        __m256 x = _mm256_mul_ps(_mm256_loadu_ps(p + i), vscale);
        _mm256_storeu_ps(p + i,
                         _mm256_mul_ps(quantize8Avx2(x, g), vinv));
    }
    // Scalar codec on the tail: trivially bit-exact.
    for (int64_t i = n8; i < count; ++i)
        p[i] = quantizeNearest(p[i] * scale, fmt) * inv_scale;
}

void
quantizeStochasticAvx2(float *p, int64_t count, const QuantGrid &g,
                       float scale, float inv_scale, const double *draws)
{
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const __m256d one = _mm256_set1_pd(1.0);
    const int64_t n8 = count & ~int64_t{7};
    for (int64_t i = 0; i < n8; i += 8) {
        const double *u = draws + i;
        __m256 x = _mm256_mul_ps(_mm256_loadu_ps(p + i), vscale);
        __m256 v = snap8Avx2(x, g, [u, one](__m256 q, __m256 qs,
                                            __m256 is_sub) {
            // floor and frac are exact in float, but a draw carries 53
            // bits: the round-up test u < frac runs in 4-lane double,
            // where a float compare would flip draws just below frac.
            // One test per lane, on the index of the lane's own range.
            __m256 idx = _mm256_blendv_ps(q, qs, is_sub);
            __m256 lo = _mm256_floor_ps(idx);
            __m256 frac = _mm256_sub_ps(idx, lo);
            __m256d up_lo = _mm256_and_pd(
                _mm256_cmp_pd(_mm256_loadu_pd(u),
                              _mm256_cvtps_pd(_mm256_castps256_ps128(frac)),
                              _CMP_LT_OQ),
                one);
            __m256d up_hi = _mm256_and_pd(
                _mm256_cmp_pd(_mm256_loadu_pd(u + 4),
                              _mm256_cvtps_pd(_mm256_extractf128_ps(frac, 1)),
                              _CMP_LT_OQ),
                one);
            __m256 up = _mm256_set_m128(_mm256_cvtpd_ps(up_hi),
                                        _mm256_cvtpd_ps(up_lo));
            __m256 r = _mm256_add_ps(lo, up);
            return Index8{r, r};
        });
        _mm256_storeu_ps(p + i, _mm256_mul_ps(v, vinv));
    }
    // The scalar kernel on the tail: bit-exact by the backend contract.
    scalarKernels().quantizeStochastic(p + n8, count - n8, g, scale,
                                       inv_scale, draws + n8);
}

void
bf16RoundAvx2(float *p, int64_t count)
{
    // Same integer arithmetic as the scalar kernel, eight at a time.
    const __m256i bias = _mm256_set1_epi32(0x7FFF);
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i mask = _mm256_set1_epi32(
        static_cast<int>(0xFFFF0000u));
    const int64_t n8 = count & ~int64_t{7};
    for (int64_t i = 0; i < n8; i += 8) {
        __m256i u = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + i));
        __m256i lsb =
            _mm256_and_si256(_mm256_srli_epi32(u, 16), one);
        u = _mm256_add_epi32(u, _mm256_add_epi32(bias, lsb));
        u = _mm256_and_si256(u, mask);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p + i), u);
    }
    for (int64_t i = n8; i < count; ++i) {
        uint32_t u;
        std::memcpy(&u, &p[i], sizeof(u));
        u += 0x7FFFu + ((u >> 16) & 1u);
        u &= 0xFFFF0000u;
        std::memcpy(&p[i], &u, sizeof(u));
    }
}

float
maxAbsAvx2(const float *p, int64_t count)
{
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    __m256 acc = _mm256_setzero_ps();
    const int64_t n8 = count & ~int64_t{7};
    for (int64_t i = 0; i < n8; i += 8) {
        __m256 ax = _mm256_and_ps(_mm256_loadu_ps(p + i), abs_mask);
        // maxps returns the second operand on unordered, so putting
        // the accumulator second ignores NaN inputs like std::max.
        acc = _mm256_max_ps(ax, acc);
    }
    __m128 lo = _mm_max_ps(_mm256_castps256_ps128(acc),
                           _mm256_extractf128_ps(acc, 1));
    lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 0x1));
    float max_abs = _mm_cvtss_f32(lo);
    for (int64_t i = n8; i < count; ++i)
        max_abs = std::max(max_abs, std::fabs(p[i]));
    return max_abs;
}

void
errorStatsAvx2(const float *ref, const float *q, int64_t count,
               double *sum_sq, double *max_err)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d vmax = _mm256_setzero_pd();
    const __m256d abs_mask = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
    const int64_t n8 = count & ~int64_t{7};
    for (int64_t i = 0; i < n8; i += 8) {
        __m256 vr = _mm256_loadu_ps(ref + i);
        __m256 vq = _mm256_loadu_ps(q + i);
        __m256d d0 = _mm256_sub_pd(
            _mm256_cvtps_pd(_mm256_castps256_ps128(vq)),
            _mm256_cvtps_pd(_mm256_castps256_ps128(vr)));
        __m256d d1 =
            _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(vq, 1)),
                          _mm256_cvtps_pd(_mm256_extractf128_ps(vr, 1)));
        acc0 = _mm256_fmadd_pd(d0, d0, acc0);
        acc1 = _mm256_fmadd_pd(d1, d1, acc1);
        vmax = _mm256_max_pd(_mm256_and_pd(d0, abs_mask), vmax);
        vmax = _mm256_max_pd(_mm256_and_pd(d1, abs_mask), vmax);
    }
    __m256d acc = _mm256_add_pd(acc0, acc1);
    __m128d s = _mm_add_pd(_mm256_castpd256_pd128(acc),
                           _mm256_extractf128_pd(acc, 1));
    double sum = _mm_cvtsd_f64(s) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
    __m128d m = _mm_max_pd(_mm256_castpd256_pd128(vmax),
                           _mm256_extractf128_pd(vmax, 1));
    double max_e = std::max(_mm_cvtsd_f64(m),
                            _mm_cvtsd_f64(_mm_unpackhi_pd(m, m)));
    for (int64_t i = n8; i < count; ++i) {
        double d = static_cast<double>(q[i]) - ref[i];
        sum += d * d;
        max_e = std::max(max_e, std::fabs(d));
    }
    *sum_sq = sum;
    *max_err = max_e;
}

void
attnSoftmaxFwdAvx2(float *prob, int64_t seq, float scale)
{
    // Bit-exact with the scalar kernel: the scale multiply and the
    // normalize multiply are per-element IEEE ops (vectorizable as
    // is), the max is a selection over the same value set (maxps with
    // the accumulator second ignores NaN like std::max, and a ±0
    // pick cannot change exp(x - maxv)), while exp() and the double
    // row-sum keep the scalar accumulation order.
    const __m256 vscale = _mm256_set1_ps(scale);
    for (int64_t i = 0; i < seq; ++i) {
        float *row = prob + i * seq;
        const int64_t len = i + 1;
        const int64_t len8 = len & ~int64_t{7};
        float maxv = -1e30f;
        if (len8 > 0) {
            __m256 vmax = _mm256_set1_ps(-1e30f);
            for (int64_t j = 0; j < len8; j += 8) {
                __m256 v = _mm256_mul_ps(_mm256_loadu_ps(row + j),
                                         vscale);
                _mm256_storeu_ps(row + j, v);
                vmax = _mm256_max_ps(v, vmax);
            }
            __m128 lo = _mm_max_ps(_mm256_castps256_ps128(vmax),
                                   _mm256_extractf128_ps(vmax, 1));
            lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
            lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 0x1));
            maxv = _mm_cvtss_f32(lo);
        }
        for (int64_t j = len8; j < len; ++j) {
            row[j] *= scale;
            maxv = std::max(maxv, row[j]);
        }
        double denom = 0.0;
        for (int64_t j = 0; j < len; ++j) {
            row[j] = std::exp(row[j] - maxv);
            denom += row[j];
        }
        const float inv = static_cast<float>(1.0 / std::max(denom, 1e-30));
        const __m256 vinv = _mm256_set1_ps(inv);
        for (int64_t j = 0; j < len8; j += 8)
            _mm256_storeu_ps(
                row + j,
                _mm256_mul_ps(_mm256_loadu_ps(row + j), vinv));
        for (int64_t j = len8; j < len; ++j)
            row[j] *= inv;
        if (len < seq)
            std::memset(row + len, 0,
                        sizeof(float) * static_cast<size_t>(seq - len));
    }
}

void
attnSoftmaxBwdAvx2(const float *prob, const float *dp, float *ds,
                   int64_t seq, float scale)
{
    // dot stays a scalar double reduction; the elementwise
    // prob * (dp - dot) * scale keeps the scalar association per lane,
    // so results are bit-exact with the scalar kernel. Loads of a row
    // complete before its stores, so ds may alias dp.
    const __m256 vscale = _mm256_set1_ps(scale);
    for (int64_t i = 0; i < seq; ++i) {
        const float *prow = prob + i * seq;
        const float *dprow = dp + i * seq;
        float *dsrow = ds + i * seq;
        const int64_t len = i + 1;
        const int64_t len8 = len & ~int64_t{7};
        double dot = 0.0;
        for (int64_t j = 0; j < len; ++j)
            dot += static_cast<double>(dprow[j]) * prow[j];
        const float dotf = static_cast<float>(dot);
        const __m256 vdot = _mm256_set1_ps(dotf);
        for (int64_t j = 0; j < len8; j += 8) {
            __m256 d = _mm256_sub_ps(_mm256_loadu_ps(dprow + j), vdot);
            __m256 r = _mm256_mul_ps(
                _mm256_mul_ps(_mm256_loadu_ps(prow + j), d), vscale);
            _mm256_storeu_ps(dsrow + j, r);
        }
        for (int64_t j = len8; j < len; ++j)
            dsrow[j] = prow[j] * (dprow[j] - dotf) * scale;
        if (len < seq)
            std::memset(dsrow + len, 0,
                        sizeof(float) * static_cast<size_t>(seq - len));
    }
}

double
sumSquaresAvx2(const float *p, int64_t count)
{
    // Two 4-wide double accumulators mirror errorStatsAvx2: each float
    // is widened to double before squaring, so only the lane-order of
    // the final additions differs from the scalar backend.
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    const int64_t n8 = count & ~int64_t{7};
    for (int64_t i = 0; i < n8; i += 8) {
        __m256 v = _mm256_loadu_ps(p + i);
        __m256d d0 = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
        __m256d d1 = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
        acc0 = _mm256_fmadd_pd(d0, d0, acc0);
        acc1 = _mm256_fmadd_pd(d1, d1, acc1);
    }
    __m256d acc = _mm256_add_pd(acc0, acc1);
    __m128d s = _mm_add_pd(_mm256_castpd256_pd128(acc),
                           _mm256_extractf128_pd(acc, 1));
    double sum = _mm_cvtsd_f64(s) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
    for (int64_t i = n8; i < count; ++i)
        sum += static_cast<double>(p[i]) * p[i];
    return sum;
}

} // namespace

const KernelTable &
avx2Kernels()
{
    static const KernelTable table = {
        "avx2",
        packAAvx2,
        packBAvx2,
        gemmPackedBlockAvx2,
        gemmPackedRowsAvx2,
        quantizeNearestAvx2,
        quantizeStochasticAvx2,
        bf16RoundAvx2,
        maxAbsAvx2,
        errorStatsAvx2,
        sumSquaresAvx2,
        attnSoftmaxFwdAvx2,
        attnSoftmaxBwdAvx2,
    };
    return table;
}

bool
avx2Compiled()
{
    return true;
}

} // namespace simd
} // namespace snip

#else // !SNIP_SIMD_HAVE_AVX2

namespace snip {
namespace simd {

const KernelTable &
avx2Kernels()
{
    // Never selected: dispatch treats AVX2 as unavailable in builds
    // without the backend. Returning the scalar table keeps the
    // symbol defined without an #ifdef in every caller.
    return scalarKernels();
}

bool
avx2Compiled()
{
    return false;
}

} // namespace simd
} // namespace snip

#endif // SNIP_SIMD_HAVE_AVX2
