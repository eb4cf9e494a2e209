/**
 * @file
 * SIMD backend dispatch and scalar-vs-AVX2 agreement.
 *
 * Contracts under test (simd/kernels.h):
 *   - SNIP_SIMD forces a backend and activeBackendName() reports it;
 *   - quantize (nearest and stochastic) / bf16-round / max-abs agree
 *     bit for bit across backends (asserted exactly, which is stronger
 *     than the 1-ULP requirement), and the stochastic kernels replay
 *     the scalar codec's draws;
 *   - GEMM agrees across backends within a relative-error bound and
 *     is bit-identical across 1/2/8 threads within each backend;
 *   - the AdamW update reproduces the optimizer's historical per-element
 *     loop bit for bit on every backend.
 * AVX2 comparisons skip with a message on hosts without AVX2+FMA.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "quant/codec.h"
#include "quant/error_metrics.h"
#include "quant/quantizer.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "util/rng.h"

namespace snip {
namespace {

#define SKIP_WITHOUT_AVX2()                                               \
    do {                                                                  \
        if (!simd::cpuSupportsAvx2())                                     \
            GTEST_SKIP() << "AVX2+FMA not available on this host/build"; \
    } while (0)

TEST(SimdDispatch, EnvForcesScalar)
{
    BackendGuard guard;
    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    EXPECT_STREQ(simd::activeBackendName(), "scalar");
    EXPECT_EQ(simd::activeBackend(), simd::Backend::Scalar);
}

TEST(SimdDispatch, EnvForcesAvx2)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    EXPECT_STREQ(simd::activeBackendName(), "avx2");
    EXPECT_EQ(simd::activeBackend(), simd::Backend::Avx2);
}

TEST(SimdDispatch, AutoPicksBestAvailable)
{
    BackendGuard guard;
    setenv("SNIP_SIMD", "auto", 1);
    simd::reinitFromEnv();
    EXPECT_STREQ(simd::activeBackendName(),
                 simd::cpuSupportsAvx2() ? "avx2" : "scalar");
}

TEST(SimdDispatch, SetBackendByName)
{
    BackendGuard guard;
    EXPECT_TRUE(simd::setBackendByName("scalar"));
    EXPECT_STREQ(simd::activeBackendName(), "scalar");
    EXPECT_FALSE(simd::setBackendByName("neon"));
    EXPECT_STREQ(simd::activeBackendName(), "scalar");
    EXPECT_EQ(simd::setBackendByName("avx2"),
              simd::cpuSupportsAvx2());
}

/** Every format the quantize kernels must reproduce the codec on. */
const FloatFormat *const kFormats[] = {&fp4E2m1(), &fp6E3m2(), &fp8E4m3(),
                                       &fp8E5m2(), &bf16(),    &fp16()};

/** The kernel tables this host can run: scalar, plus AVX2 when the
 *  CPU has it. */
std::vector<const simd::KernelTable *>
runnableBackends()
{
    std::vector<const simd::KernelTable *> tables = {
        &simd::scalarKernels()};
    if (simd::cpuSupportsAvx2())
        tables.push_back(&simd::avx2Kernels());
    return tables;
}

/** Values exercising every quantizer branch: normals across binades,
 *  subnormals, ties, saturation, zeros, and non-finites. */
std::vector<float>
adversarialValues(const FloatFormat &fmt)
{
    const float max_v = static_cast<float>(fmt.maxValue());
    const float min_n = static_cast<float>(fmt.minNormal());
    const float min_s = static_cast<float>(fmt.minSubnormal());
    std::vector<float> vals = {
        0.0f,
        -0.0f,
        min_s * 0.25f,
        -min_s * 0.25f,
        min_s * 0.5f, // tie on the subnormal grid
        min_s,
        min_n * 0.999f,
        min_n,
        max_v * 0.999f,
        max_v,
        -max_v,
        max_v * 1.5f,
        -max_v * 1.5f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::max(),
    };
    // Dense coverage of the grid, including exact ties: odd multiples
    // of half a ULP land exactly between grid points.
    Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
        float v = static_cast<float>(rng.nextGaussian() *
                                     std::pow(10.0, rng.nextRange(-9, 9)));
        vals.push_back(v);
        double ulp = ulpAt(v, fmt);
        vals.push_back(static_cast<float>(
            std::fabs(static_cast<double>(v)) + 0.5 * ulp));
    }
    return vals;
}

TEST(SimdQuantize, BitExactAcrossBackendsEveryFormat)
{
    SKIP_WITHOUT_AVX2();
    for (const FloatFormat *fmt : kFormats) {
        std::vector<float> vals = adversarialValues(*fmt);
        const QuantGrid grid = quantGrid(*fmt);
        for (float scale : {1.0f, 0.731f, 512.0f}) {
            std::vector<float> a = vals, b = vals;
            const float inv = 1.0f / scale;
            simd::scalarKernels().quantizeNearest(
                a.data(), static_cast<int64_t>(a.size()), *fmt, grid,
                scale, inv);
            simd::avx2Kernels().quantizeNearest(
                b.data(), static_cast<int64_t>(b.size()), *fmt, grid,
                scale, inv);
            ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(float)))
                << fmt->name << " scale=" << scale;
        }
    }
}

/** The uniforms FakeQuantizer would hand the stochastic kernel for
 *  @p vals at @p scale: one draw from @p rng, in element order, for
 *  each element whose scaled value consumes one; 0 elsewhere. */
std::vector<double>
replayDraws(const std::vector<float> &vals, float scale,
            const QuantGrid &grid, Rng &rng)
{
    std::vector<double> draws(vals.size(), 0.0);
    for (size_t i = 0; i < vals.size(); ++i)
        if (stochasticConsumesDraw(vals[i] * scale, grid))
            draws[i] = rng.nextDouble();
    return draws;
}

TEST(SimdQuantize, StochasticBitExactAcrossBackendsEveryFormat)
{
    SKIP_WITHOUT_AVX2();
    for (const FloatFormat *fmt : kFormats) {
        std::vector<float> vals = adversarialValues(*fmt);
        const QuantGrid grid = quantGrid(*fmt);
        for (float scale : {1.0f, 0.731f, 512.0f}) {
            const float inv = 1.0f / scale;
            // Draw patterns: all zero; exactly each element's grid-index
            // fraction (the compare is strict: no round-up); one double
            // ULP below it (round-up, where a float compare would see
            // the draw as equal to the fraction); and random.
            const size_t n = vals.size();
            std::vector<double> zeros(n, 0.0), fracs(n, 0.0), below(n, 0.0);
            for (size_t i = 0; i < n; ++i) {
                const float s = vals[i] * scale;
                if (!stochasticConsumesDraw(s, grid))
                    continue;
                const double q =
                    std::fabs(static_cast<double>(s)) / ulpAt(s, *fmt);
                fracs[i] = q - std::floor(q);
                below[i] = std::nextafter(fracs[i], 0.0);
            }
            Rng rng(23);
            const std::vector<double> random = replayDraws(vals, scale, grid,
                                                           rng);
            const std::vector<double> *patterns[] = {&zeros, &fracs,
                                                     &below, &random};
            for (size_t k = 0; k < 4; ++k) {
                std::vector<float> a = vals, b = vals;
                simd::scalarKernels().quantizeStochastic(
                    a.data(), static_cast<int64_t>(n), grid, scale, inv,
                    patterns[k]->data());
                simd::avx2Kernels().quantizeStochastic(
                    b.data(), static_cast<int64_t>(n), grid, scale, inv,
                    patterns[k]->data());
                ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                                         n * sizeof(float)))
                    << fmt->name << " scale=" << scale << " pattern " << k;
            }
        }
    }
}

TEST(SimdQuantize, StochasticRoundsUpOnlyBelowTheFraction)
{
    // 2.5 sits halfway between the FP4 grid points 2 and 3: a draw of
    // exactly 0.5 keeps 2, the next double below it rounds up to 3.
    // Eleven elements cover the AVX2 vector body and its scalar tail.
    const QuantGrid grid = quantGrid(fp4E2m1());
    const double half = 0.5, under = std::nextafter(0.5, 0.0);
    const std::vector<double> draws = {half,  under, half,  under,
                                       0.0,   half,  under, 0.999,
                                       under, half,  0.0};
    for (const simd::KernelTable *kt : runnableBackends()) {
        for (float sign : {1.0f, -1.0f}) {
            std::vector<float> p(draws.size(), 2.5f * sign);
            kt->quantizeStochastic(p.data(), static_cast<int64_t>(p.size()),
                                   grid, 1.0f, 1.0f, draws.data());
            for (size_t i = 0; i < p.size(); ++i)
                EXPECT_EQ(p[i], (draws[i] < 0.5 ? 3.0f : 2.0f) * sign)
                    << kt->name << " element " << i;
        }
    }
}

TEST(SimdQuantize, StochasticKernelsReplayTheCodec)
{
    // Oracle: the scalar codec rounding element by element with its own
    // Rng, which draws exactly when an element needs rounding. Each
    // backend's kernel, fed uniforms pre-drawn by the eligibility rule
    // from an identically seeded Rng, must agree bit for bit and leave
    // the two streams at the same position.
    for (const FloatFormat *fmt : kFormats) {
        const std::vector<float> vals = adversarialValues(*fmt);
        const QuantGrid grid = quantGrid(*fmt);
        for (float scale : {1.0f, 0.731f, 512.0f}) {
            const float inv = 1.0f / scale;
            Rng draw_rng(11), codec_rng(11);
            const std::vector<double> draws =
                replayDraws(vals, scale, grid, draw_rng);
            std::vector<float> want(vals.size());
            for (size_t i = 0; i < vals.size(); ++i)
                want[i] = quantizeValue(vals[i] * scale, *fmt,
                                        Rounding::Stochastic, &codec_rng) *
                          inv;
            EXPECT_EQ(draw_rng.nextU64(), codec_rng.nextU64())
                << fmt->name << " scale=" << scale;
            for (const simd::KernelTable *kt : runnableBackends()) {
                std::vector<float> got = vals;
                kt->quantizeStochastic(got.data(),
                                       static_cast<int64_t>(got.size()),
                                       grid, scale, inv, draws.data());
                ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                         got.size() * sizeof(float)))
                    << kt->name << " " << fmt->name << " scale=" << scale;
            }
        }
    }
}

TEST(SimdQuantize, Bf16RoundBitExactAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    std::vector<float> vals = adversarialValues(bf16());
    std::vector<float> a = vals, b = vals;
    simd::scalarKernels().bf16Round(a.data(),
                                    static_cast<int64_t>(a.size()));
    simd::avx2Kernels().bf16Round(b.data(),
                                  static_cast<int64_t>(b.size()));
    EXPECT_EQ(0,
              std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

TEST(SimdQuantize, MaxAbsBitExactAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    Rng rng(17);
    for (int64_t n : {0, 1, 7, 8, 9, 1000}) {
        std::vector<float> v(static_cast<size_t>(n));
        for (auto &x : v)
            x = static_cast<float>(rng.nextGaussian() * 100.0);
        if (n > 3)
            v[3] = std::numeric_limits<float>::quiet_NaN();
        float s = simd::scalarKernels().maxAbs(v.data(), n);
        float a = simd::avx2Kernels().maxAbs(v.data(), n);
        EXPECT_EQ(s, a) << "n=" << n;
    }
}

TEST(SimdQuantize, FakeQuantizerEndToEndMatchesAt128Threads)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard backend_guard;
    GlobalPoolGuard pool_guard;
    Rng rng(5);
    Tensor t = Tensor::randn({130, 257}, rng, 3.0f);
    for (Rounding rounding : {Rounding::Nearest, Rounding::Stochastic}) {
        const QuantConfig cfg{fp4E2m1(), {Granularity::Tilewise, 128},
                              rounding};

        setenv("SNIP_SIMD", "scalar", 1);
        simd::reinitFromEnv();
        runtime::setGlobalThreadCount(1);
        FakeQuantizer qs(9);
        const Tensor ref = qs.quantize(t, cfg);

        for (const char *backend : {"scalar", "avx2"}) {
            setenv("SNIP_SIMD", backend, 1);
            simd::reinitFromEnv();
            for (int threads : {1, 2, 8}) {
                runtime::setGlobalThreadCount(threads);
                FakeQuantizer q(9);
                EXPECT_TRUE(q.quantize(t, cfg) == ref)
                    << cfg.describe() << " " << backend << " @ " << threads
                    << " threads";
            }
        }
    }
}

TEST(SimdGemm, BackendsAgreeWithinTolerance)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard backend_guard;
    GlobalPoolGuard pool_guard;
    // Shapes straddle the 64-wide block and the 2x4 register tile to
    // exercise every remainder path.
    const int64_t m = 131, n = 97, k = 71;
    Rng rng(23);
    Tensor a_nt = Tensor::randn({m, k}, rng);
    Tensor b_nt = Tensor::randn({n, k}, rng);
    Tensor a_nn = Tensor::randn({m, k}, rng);
    Tensor b_nn = Tensor::randn({k, n}, rng);
    Tensor a_tn = Tensor::randn({k, m}, rng);
    Tensor b_tn = Tensor::randn({k, n}, rng);

    auto compute = [&]() {
        std::vector<Tensor> r;
        r.push_back(matmulNT(a_nt, b_nt));
        r.push_back(matmulNN(a_nn, b_nn));
        r.push_back(matmulTN(a_tn, b_tn));
        return r;
    };

    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    runtime::setGlobalThreadCount(1);
    const std::vector<Tensor> ref = compute();

    for (const char *backend : {"scalar", "avx2"}) {
        setenv("SNIP_SIMD", backend, 1);
        simd::reinitFromEnv();
        runtime::setGlobalThreadCount(1);
        const std::vector<Tensor> base = compute();
        // Within one backend: bit-identical for any thread count.
        for (int threads : {2, 8}) {
            runtime::setGlobalThreadCount(threads);
            const std::vector<Tensor> got = compute();
            for (size_t v = 0; v < got.size(); ++v) {
                EXPECT_TRUE(got[v] == base[v])
                    << backend << " variant " << v << " @ " << threads
                    << " threads";
            }
        }
        // Across backends: low-order bits may differ (FMA, lane
        // order); bound the relative Frobenius error.
        for (size_t v = 0; v < base.size(); ++v) {
            EXPECT_LT(diffNorm(base[v], ref[v]),
                      1e-6 * (1.0 + frobeniusNorm(ref[v])))
                << backend << " variant " << v;
        }
    }
}

TEST(SimdGemm, AccumulateAgreesAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    const int64_t m = 66, n = 35, k = 19;
    Rng rng(29);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({n, k}, rng);
    Tensor init = Tensor::randn({m, n}, rng);

    Tensor cs = init;
    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    gemmNT(a.data(), b.data(), cs.data(), m, n, k, /*accumulate=*/true);

    Tensor ca = init;
    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    gemmNT(a.data(), b.data(), ca.data(), m, n, k, /*accumulate=*/true);

    EXPECT_LT(diffNorm(cs, ca), 1e-6 * (1.0 + frobeniusNorm(cs)));
}

/** Pack one full operand with a backend table. */
std::vector<float>
packWith(const simd::KernelTable &kt, bool pack_a, const Tensor &src,
         bool k_major, int64_t extent, int64_t k)
{
    const int64_t strip = pack_a ? simd::kGemmPackMR : simd::kGemmPackNR;
    // +8: PackAFn transpose-store headroom (simd/kernels.h).
    std::vector<float> out(static_cast<size_t>(
                               simd::packStrips(extent, strip) * strip *
                                   k +
                               8),
                           -7.5f);
    const int64_t ld = k_major ? extent : k;
    if (pack_a)
        kt.packA(src.data(), ld, k_major, out.data(), 0, extent, k);
    else
        kt.packB(src.data(), ld, k_major, out.data(), 0, extent, extent,
                 k);
    out.resize(static_cast<size_t>(
        simd::packStrips(extent, strip) * strip * k));
    return out;
}

TEST(SimdPack, PackKernelsBitExactAcrossBackends)
{
    // Packing is pure copies, which the backends must reproduce bit for
    // bit — so packed panels are asserted EXACTLY equal, for both
    // orientations of both operands at ragged extents.
    SKIP_WITHOUT_AVX2();
    const int64_t ext = 45, k = 147; // ragged strips
    Rng rng(31);
    for (bool pack_a : {true, false}) {
        for (bool k_major : {true, false}) {
            Tensor src = k_major
                             ? Tensor::randn({k, ext}, rng)
                             : Tensor::randn({ext, k}, rng);
            auto s = packWith(simd::scalarKernels(), pack_a, src, k_major,
                              ext, k);
            auto v = packWith(simd::avx2Kernels(), pack_a, src, k_major,
                              ext, k);
            EXPECT_EQ(s, v) << (pack_a ? "packA" : "packB")
                            << (k_major ? " k_major" : " row_major");
        }
    }
}

TEST(SimdPack, PackedBlockGemmBackendsAgreeWithinTolerance)
{
    SKIP_WITHOUT_AVX2();
    const int64_t mb = 45, n = 39, k = 83;
    Rng rng(37);
    Tensor a = Tensor::randn({mb, k}, rng);
    Tensor b = Tensor::randn({n, k}, rng);
    auto ap = packWith(simd::scalarKernels(), true, a, false, mb, k);
    auto bp = packWith(simd::scalarKernels(), false, b, false, n, k);
    Tensor cs(mb, n), cv(mb, n);
    simd::scalarKernels().gemmPackedBlock(ap.data(), bp.data(),
                                          cs.data(), n, mb, n, k);
    simd::avx2Kernels().gemmPackedBlock(ap.data(), bp.data(), cv.data(),
                                        n, mb, n, k);
    EXPECT_LT(diffNorm(cs, cv), 1e-6 * (1.0 + frobeniusNorm(cs)));
}

TEST(SimdPack, PackedRowsBitExactVsPackedBlock)
{
    // The thin-M kernel streams A rows in place instead of packing
    // them; on each backend it must reproduce the packed block kernel
    // bit for bit, so a decode row equals the same row of a
    // full-sequence GEMM.
    std::vector<const simd::KernelTable *> tables = {
        &simd::scalarKernels()};
    if (simd::cpuSupportsAvx2())
        tables.push_back(&simd::avx2Kernels());
    Rng rng(41);
    for (const simd::KernelTable *kt : tables) {
        for (int64_t m = 1; m < simd::kGemmPackMR; ++m) {
            for (int64_t n : {1, 8, 16, 17, 40}) {
                for (int64_t k : {1, 8, 33, 160}) {
                    SCOPED_TRACE(testing::Message()
                                 << kt->name << " m=" << m << " n=" << n
                                 << " k=" << k);
                    Tensor a = Tensor::randn({m, k}, rng);
                    Tensor b = Tensor::randn({n, k}, rng);
                    const auto ap = packWith(*kt, true, a, false, m, k);
                    const auto bp = packWith(*kt, false, b, false, n, k);
                    for (bool accumulate : {false, true}) {
                        Tensor init(m, n);
                        if (accumulate)
                            init = Tensor::randn({m, n}, rng);
                        Tensor c_block = init, c_rows = init;
                        kt->gemmPackedBlock(ap.data(), bp.data(),
                                            c_block.data(), n, m, n, k);
                        kt->gemmPackedRows(a.data(), k, bp.data(),
                                           c_rows.data(), n, m, n, k);
                        EXPECT_TRUE(c_rows == c_block)
                            << "accumulate=" << accumulate;
                    }
                }
            }
        }
    }
}

/** Reference transcription of the historical open-coded attention
 *  softmax loops (nn/attention.cpp pre-batching): the semantics both
 *  backends' fused kernels must reproduce bit for bit. */
void
refAttnSoftmaxFwd(float *prob, int64_t seq, float scale)
{
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

void
refAttnSoftmaxBwd(const float *prob, const float *dp, float *ds,
                  int64_t seq, float scale)
{
    for (int64_t i = 0; i < seq; ++i) {
        const float *prow = prob + i * seq;
        const float *dprow = dp + i * seq;
        float *dsrow = ds + i * seq;
        double dot = 0.0;
        for (int64_t j = 0; j <= i; ++j)
            dot += static_cast<double>(dprow[j]) * prow[j];
        for (int64_t j = 0; j < seq; ++j)
            dsrow[j] = j <= i ? prow[j] *
                                    (dprow[j] - static_cast<float>(dot)) *
                                    scale
                              : 0.0f;
    }
}

TEST(SimdAttnSoftmax, FwdBitExactAcrossBackendsAndVsReference)
{
    Rng rng(51);
    for (int64_t seq : {1, 2, 7, 8, 9, 16, 33, 64}) {
        const float scale =
            1.0f / std::sqrt(static_cast<float>(seq));
        std::vector<float> scores(static_cast<size_t>(seq * seq));
        for (auto &x : scores)
            x = static_cast<float>(rng.nextGaussian() * 3.0);
        std::vector<float> ref = scores, sc = scores;
        refAttnSoftmaxFwd(ref.data(), seq, scale);
        simd::scalarKernels().attnSoftmaxFwd(sc.data(), seq, scale);
        ASSERT_EQ(0, std::memcmp(ref.data(), sc.data(),
                                 ref.size() * sizeof(float)))
            << "scalar vs reference, seq=" << seq;
        if (simd::cpuSupportsAvx2()) {
            std::vector<float> av = scores;
            simd::avx2Kernels().attnSoftmaxFwd(av.data(), seq, scale);
            ASSERT_EQ(0, std::memcmp(ref.data(), av.data(),
                                     ref.size() * sizeof(float)))
                << "avx2 vs reference, seq=" << seq;
        }
    }
}

TEST(SimdAttnSoftmax, BwdBitExactAcrossBackendsAndVsReference)
{
    Rng rng(52);
    for (int64_t seq : {1, 2, 7, 8, 9, 16, 33, 64}) {
        const float scale = 0.25f;
        std::vector<float> prob(static_cast<size_t>(seq * seq));
        refAttnSoftmaxFwd(prob.data(), seq, 1.0f); // valid row dists
        std::vector<float> dp(static_cast<size_t>(seq * seq));
        for (auto &x : dp)
            x = static_cast<float>(rng.nextGaussian());
        std::vector<float> ref(dp.size()), sc(dp.size());
        refAttnSoftmaxBwd(prob.data(), dp.data(), ref.data(), seq,
                          scale);
        simd::scalarKernels().attnSoftmaxBwd(prob.data(), dp.data(),
                                             sc.data(), seq, scale);
        ASSERT_EQ(0, std::memcmp(ref.data(), sc.data(),
                                 ref.size() * sizeof(float)))
            << "scalar vs reference, seq=" << seq;
        // In-place (ds aliasing dp) — the batched attention runtime
        // overwrites dP with dS through this contract.
        std::vector<float> sc_inplace = dp;
        simd::scalarKernels().attnSoftmaxBwd(prob.data(),
                                             sc_inplace.data(),
                                             sc_inplace.data(), seq,
                                             scale);
        ASSERT_EQ(0, std::memcmp(ref.data(), sc_inplace.data(),
                                 ref.size() * sizeof(float)))
            << "scalar in-place, seq=" << seq;
        if (simd::cpuSupportsAvx2()) {
            std::vector<float> av(dp.size());
            simd::avx2Kernels().attnSoftmaxBwd(prob.data(), dp.data(),
                                               av.data(), seq, scale);
            ASSERT_EQ(0, std::memcmp(ref.data(), av.data(),
                                     ref.size() * sizeof(float)))
                << "avx2 vs reference, seq=" << seq;
            // In-place (ds aliasing dp) must match the out-of-place
            // result — the attention runtime relies on row locality.
            std::vector<float> inplace = dp;
            simd::avx2Kernels().attnSoftmaxBwd(prob.data(),
                                               inplace.data(),
                                               inplace.data(), seq,
                                               scale);
            ASSERT_EQ(0, std::memcmp(ref.data(), inplace.data(),
                                     ref.size() * sizeof(float)))
                << "avx2 in-place, seq=" << seq;
        }
    }
}

TEST(SimdErrorStats, BackendsAgree)
{
    SKIP_WITHOUT_AVX2();
    Rng rng(31);
    for (int64_t n : {0, 1, 5, 8, 13, 4096}) {
        std::vector<float> ref(static_cast<size_t>(n)),
            q(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
            ref[static_cast<size_t>(i)] =
                static_cast<float>(rng.nextGaussian());
            q[static_cast<size_t>(i)] =
                ref[static_cast<size_t>(i)] +
                static_cast<float>(rng.nextGaussian() * 1e-3);
        }
        double ss = 0, sm = 0, as = 0, am = 0;
        simd::scalarKernels().errorStats(ref.data(), q.data(), n, &ss,
                                         &sm);
        simd::avx2Kernels().errorStats(ref.data(), q.data(), n, &as,
                                       &am);
        EXPECT_EQ(sm, am) << "max must be exact, n=" << n;
        EXPECT_NEAR(ss, as, 1e-12 * (1.0 + ss)) << "n=" << n;
    }
}

TEST(SimdReductions, SumSquaresBackendsAgree)
{
    SKIP_WITHOUT_AVX2();
    Rng rng(41);
    for (int64_t n : {0, 1, 5, 8, 13, 4096}) {
        std::vector<float> v(static_cast<size_t>(n));
        for (auto &x : v)
            x = static_cast<float>(rng.nextGaussian() * 10.0);
        const double s =
            simd::scalarKernels().sumSquares(v.data(), n);
        const double a = simd::avx2Kernels().sumSquares(v.data(), n);
        EXPECT_NEAR(s, a, 1e-12 * (1.0 + s)) << "n=" << n;
    }
}

TEST(SimdReductions, TensorOpsFollowTheActiveBackend)
{
    // The stats-collector/eval reductions (tensor/ops.cpp) dispatch
    // through the KernelTable: maxAbs must agree bit for bit across
    // backends, the sum-of-squares norms within low-order bits.
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    Rng rng(43);
    Tensor t = Tensor::randn({130, 257}, rng, 5.0f);
    Tensor u = Tensor::randn({130, 257}, rng, 5.0f);

    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    const double norm_s = frobeniusNorm(t);
    const double sumsq_s = sumSquares(t);
    const double diff_s = diffNorm(t, u);
    const float max_s = maxAbs(t);

    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    EXPECT_EQ(maxAbs(t), max_s);
    EXPECT_NEAR(frobeniusNorm(t), norm_s, 1e-9 * (1.0 + norm_s));
    EXPECT_NEAR(sumSquares(t), sumsq_s, 1e-9 * (1.0 + sumsq_s));
    EXPECT_NEAR(diffNorm(t, u), diff_s, 1e-9 * (1.0 + diff_s));
}

TEST(SimdErrorStats, MeasureQuantErrorStableAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    Rng rng(37);
    Tensor t = Tensor::randn({64, 96}, rng);
    const QuantConfig cfg{fp8E4m3(),
                          {Granularity::Blockwise, 128},
                          Rounding::Nearest};

    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    QuantError es = measureQuantError(t, cfg);

    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    QuantError ea = measureQuantError(t, cfg);

    EXPECT_EQ(es.max_error, ea.max_error);
    EXPECT_NEAR(es.abs_error, ea.abs_error, 1e-9 * (1.0 + es.abs_error));
    EXPECT_NEAR(es.rel_error, ea.rel_error, 1e-9);
}

// ------------------------------------------------------------- AdamW

/** The AdamW hyperparameters of one step, as optim/adamw.h holds them
 *  plus the step's clip factor and step count. */
struct AdamwHyper
{
    double lr = 2e-3;
    double b1 = 0.9;
    double b2 = 0.95;
    double eps = 1e-8;
    double wd = 0.01;
    double clip_scale = 1.0;
    int64_t t = 1;
};

/** AdamW::step's per-element loop as it ran before the kernel existed:
 *  the reference both backends must reproduce bit for bit. */
void
refAdamwUpdate(float *w, const float *g, float *m, float *v, int64_t n,
               const AdamwHyper &h)
{
    const double bias1 = 1.0 - std::pow(h.b1, static_cast<double>(h.t));
    const double bias2 = 1.0 - std::pow(h.b2, static_cast<double>(h.t));
    for (int64_t j = 0; j < n; ++j) {
        const double gj = static_cast<double>(g[j]) * h.clip_scale;
        double wj = static_cast<double>(w[j]) * (1.0 - h.lr * h.wd);
        const double mj = h.b1 * m[j] + (1.0 - h.b1) * gj;
        const double vj = h.b2 * v[j] + (1.0 - h.b2) * gj * gj;
        m[j] = static_cast<float>(mj);
        v[j] = static_cast<float>(vj);
        const double mhat = mj / bias1;
        const double vhat = vj / bias2;
        wj -= h.lr * mhat / (std::sqrt(vhat) + h.eps);
        w[j] = static_cast<float>(wj);
    }
}

/** The kernel coefficients, formed as AdamW::step forms them. */
simd::AdamwCoeffs
adamwCoeffs(const AdamwHyper &h)
{
    simd::AdamwCoeffs c;
    c.clip_scale = h.clip_scale;
    c.decay = 1.0 - h.lr * h.wd;
    c.b1 = h.b1;
    c.one_minus_b1 = 1.0 - h.b1;
    c.b2 = h.b2;
    c.one_minus_b2 = 1.0 - h.b2;
    c.bias1 = 1.0 - std::pow(h.b1, static_cast<double>(h.t));
    c.bias2 = 1.0 - std::pow(h.b2, static_cast<double>(h.t));
    c.lr = h.lr;
    c.eps = h.eps;
    return c;
}

/** One optimizer state: w, g, m, v of equal length. */
struct AdamwState
{
    std::vector<float> w, g, m, v;
};

/** Inputs of kind @p kind (see the test) over @p n elements for a
 *  step with hyperparameters @p h. */
AdamwState
adamwInputs(int kind, int64_t n, const AdamwHyper &h, Rng &rng)
{
    const float denorm = std::numeric_limits<float>::denorm_min();
    auto gauss = [&rng](double s) {
        return static_cast<float>(rng.nextGaussian() * s);
    };
    auto tiny = [&rng, denorm]() {
        // A float subnormal: k * denorm_min for k in [1, 2^22].
        const double k = std::floor(rng.nextDouble() * 4194304.0) + 1.0;
        return static_cast<float>(k) * denorm *
               (rng.nextDouble() < 0.5 ? -1.0f : 1.0f);
    };
    AdamwState st;
    for (int64_t j = 0; j < n; ++j) {
        // Kind 6 mixes the other kinds element by element, so vector
        // lanes see unlike cases side by side.
        const int k = kind == 6 ? static_cast<int>(rng.nextRange(0, 5))
                                : kind;
        float w = gauss(0.02), g = gauss(1.0), m = gauss(1e-2),
              v = std::fabs(gauss(1e-4));
        switch (k) {
            case 1: // zeros
                w = g = m = v = 0.0f;
                break;
            case 2: // negative zeros
                w = g = m = v = -0.0f;
                break;
            case 3: // subnormal g, m, v
                g = tiny();
                m = tiny();
                v = std::fabs(tiny());
                break;
            case 4: // v = 0 and g = 0: the denominator is sqrt(0) + eps
                g = 0.0f;
                v = 0.0f;
                break;
            case 5: // huge gradients and moments (g^2 still fits a
                    // float, so no hyperparameter set overflows v)
                g = gauss(1e18);
                m = gauss(1e17);
                v = std::fabs(gauss(1e35));
                break;
            case 7: // b1*m cancels (1-b1)*g': the new m is a rounding
                    // residue, so a change in the double arithmetic
                    // (an FMA, another association) reaches the
                    // stored float for a few percent of elements
                m = static_cast<float>(-(1.0 - h.b1) *
                                       (static_cast<double>(g) *
                                        h.clip_scale) /
                                       h.b1);
                break;
            case 8: { // w*decay cancels the Adam step, likewise for w
                const double gj = static_cast<double>(g) * h.clip_scale;
                const double mj = h.b1 * m + (1.0 - h.b1) * gj;
                const double vj = h.b2 * v + (1.0 - h.b2) * gj * gj;
                const double t = static_cast<double>(h.t);
                const double step =
                    h.lr * (mj / (1.0 - std::pow(h.b1, t))) /
                    (std::sqrt(vj / (1.0 - std::pow(h.b2, t))) + h.eps);
                w = static_cast<float>(step / (1.0 - h.lr * h.wd));
                break;
            }
            default: // ordinary values across binades
                g = static_cast<float>(rng.nextGaussian() *
                                       std::pow(10.0,
                                                rng.nextRange(-6, 2)));
                break;
        }
        st.w.push_back(w);
        st.g.push_back(g);
        st.m.push_back(m);
        st.v.push_back(v);
    }
    return st;
}

/** memcmp equality of two float runs (empty runs are equal). */
bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(SimdAdamw, BitExactAcrossBackendsAndVsReference)
{
    AdamwHyper typical;
    AdamwHyper later = typical;
    later.t = 7;
    later.clip_scale = 0.37;
    AdamwHyper no_lr = later;
    no_lr.lr = 0.0;
    AdamwHyper no_wd = later;
    no_wd.wd = 0.0;
    AdamwHyper hard_clip = typical;
    hard_clip.t = 3;
    hard_clip.clip_scale = 1e-18;
    const AdamwHyper hypers[] = {typical, later, no_lr, no_wd, hard_clip};
    const char *const kinds[] = {"ordinary", "zeros",    "-0",
                                 "subnormal", "v=0",     "huge",
                                 "mixed",    "m cancels", "w cancels"};
    std::vector<int64_t> lengths;
    for (int64_t n = 0; n <= 17; ++n)
        lengths.push_back(n);
    lengths.push_back(4099);

    Rng rng(61);
    for (size_t hi = 0; hi < std::size(hypers); ++hi) {
        const AdamwHyper &h = hypers[hi];
        const simd::AdamwCoeffs c = adamwCoeffs(h);
        for (int kind = 0; kind < static_cast<int>(std::size(kinds));
             ++kind) {
            for (int64_t n : lengths) {
                const AdamwState in = adamwInputs(kind, n, h, rng);
                AdamwState ref = in;
                refAdamwUpdate(ref.w.data(), ref.g.data(), ref.m.data(),
                               ref.v.data(), n, h);
                for (const simd::KernelTable *kt : runnableBackends()) {
                    AdamwState out = in;
                    kt->adamwUpdate(out.w.data(), out.g.data(),
                                    out.m.data(), out.v.data(), n, c);
                    const std::string where =
                        std::string(kt->name) + " " + kinds[kind] +
                        " hyper " + std::to_string(hi) + " n=" +
                        std::to_string(n);
                    EXPECT_TRUE(sameBits(ref.w, out.w)) << "w, " << where;
                    EXPECT_TRUE(sameBits(ref.m, out.m)) << "m, " << where;
                    EXPECT_TRUE(sameBits(ref.v, out.v)) << "v, " << where;
                    EXPECT_TRUE(sameBits(in.g, out.g))
                        << "g written, " << where;
                }
            }
        }
    }
}

} // namespace
} // namespace snip
