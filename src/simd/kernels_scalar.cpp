/**
 * @file
 * Portable scalar backend: the plain C++ kernels every build compiles.
 *
 * These are the reference implementations: the packed GEMM kernels
 * spell out the per-element accumulation order every backend keeps,
 * and the quantize sweep calls the scalar codec directly.
 * tests/test_simd.cpp holds the AVX2 backend to these outputs.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "quant/codec.h"
#include "simd/kernels.h"

namespace snip {
namespace simd {

namespace {

// ------------------------------------------------------------ packing

void
packAScalar(const float *src, int64_t ld, bool k_major, float *ap,
            int64_t i0, int64_t i1, int64_t k)
{
    const int64_t mb = i1 - i0;
    const int64_t strips = packStrips(mb, kGemmPackMR);
    for (int64_t s = 0; s < strips; ++s) {
        float *dst = ap + s * kGemmPackMR * k;
        const int64_t rows = std::min(kGemmPackMR, mb - s * kGemmPackMR);
        for (int64_t r = 0; r < kGemmPackMR; ++r) {
            if (r >= rows) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] = 0.0f;
                continue;
            }
            const int64_t i = i0 + s * kGemmPackMR + r;
            if (k_major) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] = src[kk * ld + i];
            } else {
                const float *row = src + i * ld;
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] = row[kk];
            }
        }
    }
}

void
packBScalar(const float *src, int64_t ld, bool k_major, float *bp,
            int64_t j0, int64_t j1, int64_t n, int64_t k)
{
    for (int64_t s0 = j0; s0 < j1; s0 += kGemmPackNR) {
        float *dst = bp + (s0 / kGemmPackNR) * kGemmPackNR * k;
        const int64_t cols = std::min(kGemmPackNR, n - s0);
        for (int64_t r = 0; r < kGemmPackNR; ++r) {
            if (r >= cols) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackNR + r] = 0.0f;
                continue;
            }
            const int64_t j = s0 + r;
            if (k_major) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackNR + r] = src[kk * ld + j];
            } else {
                const float *row = src + j * ld;
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackNR + r] = row[kk];
            }
        }
    }
}

void
gemmPackedBlockScalar(const float *ap, const float *bp, float *c,
                      int64_t ldc, int64_t mb, int64_t n, int64_t k)
{
    const int64_t m_strips = packStrips(mb, kGemmPackMR);
    const int64_t n_strips = packStrips(n, kGemmPackNR);
    for (int64_t js = 0; js < n_strips; ++js) {
        const float *bs = bp + js * kGemmPackNR * k;
        const int64_t j0 = js * kGemmPackNR;
        const int64_t jn = std::min(kGemmPackNR, n - j0);
        for (int64_t ms = 0; ms < m_strips; ++ms) {
            const float *as = ap + ms * kGemmPackMR * k;
            const int64_t i0 = ms * kGemmPackMR;
            const int64_t mr = std::min(kGemmPackMR, mb - i0);
            // Per C element the sum runs over k ascending — the fixed
            // accumulation order of the packed-path contract.
            float acc[kGemmPackMR][kGemmPackNR] = {};
            for (int64_t kk = 0; kk < k; ++kk) {
                const float *av = as + kk * kGemmPackMR;
                const float *bv = bs + kk * kGemmPackNR;
                for (int64_t r = 0; r < kGemmPackMR; ++r) {
                    const float a = av[r];
                    for (int64_t j = 0; j < kGemmPackNR; ++j)
                        acc[r][j] += a * bv[j];
                }
            }
            for (int64_t r = 0; r < mr; ++r) {
                float *crow = c + (i0 + r) * ldc + j0;
                for (int64_t j = 0; j < jn; ++j)
                    crow[j] += acc[r][j];
            }
        }
    }
}

void
gemmPackedRowsScalar(const float *a, int64_t lda, const float *bp, float *c,
                     int64_t ldc, int64_t m, int64_t n, int64_t k)
{
    const int64_t n_strips = packStrips(n, kGemmPackNR);
    for (int64_t js = 0; js < n_strips; ++js) {
        const float *bs = bp + js * kGemmPackNR * k;
        const int64_t j0 = js * kGemmPackNR;
        const int64_t jn = std::min(kGemmPackNR, n - j0);
        for (int64_t r = 0; r < m; ++r) {
            const float *arow = a + r * lda;
            // gemmPackedBlockScalar's per-element sum, one row at a time.
            float acc[kGemmPackNR] = {};
            for (int64_t kk = 0; kk < k; ++kk) {
                const float av = arow[kk];
                const float *bv = bs + kk * kGemmPackNR;
                for (int64_t j = 0; j < kGemmPackNR; ++j)
                    acc[j] += av * bv[j];
            }
            float *crow = c + r * ldc + j0;
            for (int64_t j = 0; j < jn; ++j)
                crow[j] += acc[j];
        }
    }
}

void
quantizeNearestScalar(float *p, int64_t count, const FloatFormat &fmt,
                      const QuantGrid & /*grid*/, float scale,
                      float inv_scale)
{
    for (int64_t i = 0; i < count; ++i)
        p[i] = quantizeNearest(p[i] * scale, fmt) * inv_scale;
}

void
quantizeStochasticScalar(float *p, int64_t count, const QuantGrid &grid,
                         float scale, float inv_scale, const double *draws)
{
    // The codec's rule on the hoisted grid constants. Everything is
    // exact in float: the grid spacing is a power of two, so the index
    // q = |s| / step, its floor and its fraction carry no rounding.
    for (int64_t i = 0; i < count; ++i) {
        const float s = p[i] * scale;
        float v;
        if (s == 0.0f) {
            v = 0.0f;
        } else if (std::isnan(s)) {
            v = -grid.max_value;
        } else if (!stochasticConsumesDraw(s, grid)) {
            v = std::copysign(grid.max_value, s);
        } else {
            const float ax = std::fabs(s);
            float step = grid.min_subnormal;
            if (ax >= grid.min_normal) {
                int e;
                std::frexp(ax, &e);
                step = std::ldexp(grid.two_pow_neg_mant, e - 1);
            }
            const float q = ax / step;
            const float lo = std::floor(q);
            const float up = draws[i] < static_cast<double>(q - lo) ? 1.0f
                                                                    : 0.0f;
            v = std::copysign(std::min((lo + up) * step, grid.max_value),
                              s);
        }
        p[i] = v * inv_scale;
    }
}

void
bf16RoundScalar(float *p, int64_t count)
{
    for (int64_t i = 0; i < count; ++i) {
        uint32_t u;
        std::memcpy(&u, &p[i], sizeof(u));
        u += 0x7FFFu + ((u >> 16) & 1u);
        u &= 0xFFFF0000u;
        std::memcpy(&p[i], &u, sizeof(u));
    }
}

float
maxAbsScalar(const float *p, int64_t count)
{
    float max_abs = 0.0f;
    for (int64_t i = 0; i < count; ++i)
        max_abs = std::max(max_abs, std::fabs(p[i]));
    return max_abs;
}

void
errorStatsScalar(const float *ref, const float *q, int64_t count,
                 double *sum_sq, double *max_err)
{
    double acc = 0.0;
    double max_e = 0.0;
    for (int64_t i = 0; i < count; ++i) {
        double d = static_cast<double>(q[i]) - ref[i];
        acc += d * d;
        max_e = std::max(max_e, std::fabs(d));
    }
    *sum_sq = acc;
    *max_err = max_e;
}

double
sumSquaresScalar(const float *p, int64_t count)
{
    double acc = 0.0;
    for (int64_t i = 0; i < count; ++i)
        acc += static_cast<double>(p[i]) * p[i];
    return acc;
}

void
attnSoftmaxFwdScalar(float *prob, int64_t seq, float scale)
{
    // The reference semantics every backend must reproduce bit for
    // bit: scale + running max over the causal prefix, scalar exp,
    // double row-sum, float normalize, exact zeros above the diagonal.
    for (int64_t i = 0; i < seq; ++i) {
        float *row = prob + i * seq;
        float maxv = -1e30f;
        for (int64_t j = 0; j <= i; ++j) {
            row[j] *= scale;
            maxv = std::max(maxv, row[j]);
        }
        double denom = 0.0;
        for (int64_t j = 0; j <= i; ++j) {
            row[j] = std::exp(row[j] - maxv);
            denom += row[j];
        }
        const float inv = static_cast<float>(1.0 / std::max(denom, 1e-30));
        for (int64_t j = 0; j <= i; ++j)
            row[j] *= inv;
        for (int64_t j = i + 1; j < seq; ++j)
            row[j] = 0.0f;
    }
}

// ------------------------------------------------- decode attention

/** Rows [0, n) of one page, row t at base + t * stride. */
struct PageRows
{
    const float *base;
    int64_t stride;
};

/** fp8 pages: each row of a page dequantized once into the caller's
 *  buffer (stride head_dim). */
struct Fp8Pages
{
    const KvHeadView &kv;
    const uint8_t *codes;
    const float *inv;

    PageRows
    page(int64_t page, int64_t n, float *buf) const
    {
        const int64_t hd = kv.head_dim;
        for (int64_t t = 0; t < n; ++t) {
            const uint8_t *c =
                codes + page * kv.page_stride + t * kv.row_stride;
            const float s =
                inv[page * kv.inv_page_stride + t * kv.inv_row_stride];
            for (int64_t d = 0; d < hd; ++d)
                buf[t * hd + d] = dequantE4m3(c[d], s);
        }
        return {buf, hd};
    }
};

/** fp32 pages: rows are read where they lie. */
struct Fp32Pages
{
    const KvHeadView &kv;
    const float *vals;

    PageRows
    page(int64_t page, int64_t /*n*/, float * /*buf*/) const
    {
        return {vals + page * kv.page_stride, kv.row_stride};
    }
};

/** kvAttend over one page format, a page at a time; the sums are
 *  gemmPackedRowsScalar's (mul + add, +0 start, one add into 0). */
template <class Pages>
void
kvAttendPages(const KvHeadView &kv, const Pages &k_pages,
              const Pages &v_pages, const float *q, int64_t group,
              float scale, float *scratch, float *ctx)
{
    const int64_t len = kv.len, hd = kv.head_dim, pt = kv.page_tokens;
    float *scores = scratch;
    float *buf = scratch + group * len;
    for (int64_t j0 = 0, p = 0; j0 < len; j0 += pt, ++p) {
        const int64_t n = std::min(pt, len - j0);
        const PageRows k = k_pages.page(kv.pages[p], n, buf);
        for (int64_t g = 0; g < group; ++g) {
            const float *qg = q + g * hd;
            for (int64_t t = 0; t < n; ++t) {
                const float *kt = k.base + t * k.stride;
                float acc = 0.0f;
                for (int64_t d = 0; d < hd; ++d)
                    acc += qg[d] * kt[d];
                scores[g * len + j0 + t] = 0.0f + acc;
            }
        }
    }
    for (int64_t g = 0; g < group; ++g)
        decodeSoftmax(scores + g * len, len, scale);
    std::fill(ctx, ctx + group * hd, 0.0f);
    for (int64_t j0 = 0, p = 0; j0 < len; j0 += pt, ++p) {
        const int64_t n = std::min(pt, len - j0);
        const PageRows v = v_pages.page(kv.pages[p], n, buf);
        for (int64_t g = 0; g < group; ++g) {
            const float *pg = scores + g * len + j0;
            float *cg = ctx + g * hd;
            for (int64_t t = 0; t < n; ++t)
                for (int64_t d = 0; d < hd; ++d)
                    cg[d] += pg[t] * v.base[t * v.stride + d];
        }
    }
    for (int64_t i = 0; i < group * hd; ++i)
        ctx[i] = 0.0f + ctx[i];
}

void
kvAttendScalar(const KvHeadView &kv, const float *q, int64_t group,
               float scale, float *scratch, float *ctx)
{
    if (kv.k_codes != nullptr) {
        kvAttendPages(kv, Fp8Pages{kv, kv.k_codes, kv.k_inv},
                      Fp8Pages{kv, kv.v_codes, kv.v_inv}, q, group, scale,
                      scratch, ctx);
    } else {
        kvAttendPages(kv, Fp32Pages{kv, kv.k_vals},
                      Fp32Pages{kv, kv.v_vals}, q, group, scale, scratch,
                      ctx);
    }
}

void
attnSoftmaxBwdScalar(const float *prob, const float *dp, float *ds,
                     int64_t seq, float scale)
{
    for (int64_t i = 0; i < seq; ++i) {
        const float *prow = prob + i * seq;
        const float *dprow = dp + i * seq;
        float *dsrow = ds + i * seq;
        double dot = 0.0;
        for (int64_t j = 0; j <= i; ++j)
            dot += static_cast<double>(dprow[j]) * prow[j];
        for (int64_t j = 0; j < seq; ++j) {
            dsrow[j] =
                j <= i
                    ? prow[j] * (dprow[j] - static_cast<float>(dot)) *
                          scale
                    : 0.0f;
        }
    }
}

void
adamwUpdateScalar(float *w, const float *g, float *m, float *v, int64_t n,
                  const AdamwCoeffs &c)
{
    for (int64_t j = 0; j < n; ++j) {
        const double gj = static_cast<double>(g[j]) * c.clip_scale;
        // Decoupled weight decay.
        double wj = static_cast<double>(w[j]) * c.decay;
        const double mj = c.b1 * m[j] + c.one_minus_b1 * gj;
        const double vj = c.b2 * v[j] + c.one_minus_b2 * gj * gj;
        m[j] = static_cast<float>(mj);
        v[j] = static_cast<float>(vj);
        const double mhat = mj / c.bias1;
        const double vhat = vj / c.bias2;
        wj -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
        w[j] = static_cast<float>(wj);
    }
}

} // namespace

const KernelTable &
scalarKernels()
{
    static const KernelTable table = {
        "scalar",
        packAScalar,
        packBScalar,
        gemmPackedBlockScalar,
        gemmPackedRowsScalar,
        quantizeNearestScalar,
        quantizeStochasticScalar,
        bf16RoundScalar,
        maxAbsScalar,
        errorStatsScalar,
        sumSquaresScalar,
        attnSoftmaxFwdScalar,
        attnSoftmaxBwdScalar,
        kvAttendScalar,
        adamwUpdateScalar,
    };
    return table;
}

void
decodeSoftmax(float *s, int64_t len, float scale)
{
    float maxv = -1e30f;
    for (int64_t j = 0; j < len; ++j) {
        s[j] *= scale;
        maxv = std::max(maxv, s[j]);
    }
    double denom = 0.0;
    for (int64_t j = 0; j < len; ++j) {
        s[j] = std::exp(s[j] - maxv);
        denom += s[j];
    }
    const float inv = static_cast<float>(1.0 / std::max(denom, 1e-30));
    for (int64_t j = 0; j < len; ++j)
        s[j] *= inv;
}

} // namespace simd
} // namespace snip
