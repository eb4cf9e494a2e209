/**
 * @file
 * GEMM kernels against a naive reference, including non-square and
 * non-block-multiple shapes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "util/rng.h"

namespace snip {
namespace {

Tensor
refNT(const Tensor &a, const Tensor &b)
{
    Tensor c(a.size(0), b.size(0));
    for (int64_t i = 0; i < a.size(0); ++i)
        for (int64_t j = 0; j < b.size(0); ++j) {
            double acc = 0;
            for (int64_t k = 0; k < a.size(1); ++k)
                acc += static_cast<double>(a.at(i, k)) * b.at(j, k);
            c.at(i, j) = static_cast<float>(acc);
        }
    return c;
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapes, NTMatchesReference)
{
    auto [m, n, k] = GetParam();
    Rng rng(42);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({n, k}, rng);
    Tensor c = matmulNT(a, b);
    Tensor r = refNT(a, b);
    EXPECT_LT(diffNorm(c, r), 1e-3 * (1.0 + frobeniusNorm(r)));
}

TEST_P(GemmShapes, NNMatchesNTOfTranspose)
{
    auto [m, n, k] = GetParam();
    Rng rng(43);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor c1 = matmulNN(a, b);
    Tensor c2 = matmulNT(a, transpose(b));
    EXPECT_LT(diffNorm(c1, c2), 1e-3 * (1.0 + frobeniusNorm(c1)));
}

TEST_P(GemmShapes, TNMatchesTransposedNN)
{
    auto [m, n, k] = GetParam();
    Rng rng(44);
    Tensor a = Tensor::randn({k, m}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor c1 = matmulTN(a, b);
    Tensor c2 = matmulNN(transpose(a), b);
    EXPECT_LT(diffNorm(c1, c2), 1e-3 * (1.0 + frobeniusNorm(c1)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(4, 4, 4),
                      std::make_tuple(7, 5, 3),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 63, 130),
                      std::make_tuple(1, 128, 17),
                      std::make_tuple(33, 1, 200),
                      // Ragged strips and thin M: 6-row A strips,
                      // 16-column B strips, 64-row M-blocks, and M-blocks
                      // too thin to pack A.
                      std::make_tuple(130, 96, 70),
                      std::make_tuple(6, 16, 32),
                      std::make_tuple(13, 17, 40),
                      std::make_tuple(257, 191, 133),
                      std::make_tuple(2, 96, 32),
                      std::make_tuple(5, 17, 40)));

TEST(Gemm, AccumulateAddsToExisting)
{
    Rng rng(45);
    Tensor a = Tensor::randn({3, 4}, rng);
    Tensor b = Tensor::randn({5, 4}, rng);
    Tensor c(3, 5);
    c.fill(1.0f);
    gemmNT(a.data(), b.data(), c.data(), 3, 5, 4, /*accumulate=*/true);
    Tensor r = refNT(a, b);
    for (int64_t i = 0; i < c.numel(); ++i)
        EXPECT_NEAR(c.at(i), r.at(i) + 1.0f, 1e-4);
}

TEST(Gemm, ParallelBitIdenticalToSerialForEveryVariant)
{
    // The runtime's determinism guarantee: for each GEMM variant the
    // result at 2 and 8 threads equals the 1-thread result bit for bit.
    // Shapes straddle the 64-wide block size to exercise partial blocks.
    GlobalPoolGuard guard;
    Rng rng(123);
    const int64_t m = 130, n = 96, k = 70;
    Tensor a_nt = Tensor::randn({m, k}, rng);
    Tensor b_nt = Tensor::randn({n, k}, rng);
    Tensor a_nn = Tensor::randn({m, k}, rng);
    Tensor b_nn = Tensor::randn({k, n}, rng);
    Tensor a_tn = Tensor::randn({k, m}, rng);
    Tensor b_tn = Tensor::randn({k, n}, rng);

    runtime::setGlobalThreadCount(1);
    const Tensor nt1 = matmulNT(a_nt, b_nt);
    const Tensor nn1 = matmulNN(a_nn, b_nn);
    const Tensor tn1 = matmulTN(a_tn, b_tn);

    for (int threads : {2, 8}) {
        runtime::setGlobalThreadCount(threads);
        EXPECT_TRUE(matmulNT(a_nt, b_nt) == nt1) << threads << " threads";
        EXPECT_TRUE(matmulNN(a_nn, b_nn) == nn1) << threads << " threads";
        EXPECT_TRUE(matmulTN(a_tn, b_tn) == tn1) << threads << " threads";
    }
}

TEST(Gemm, ParallelAccumulateBitIdenticalToSerial)
{
    GlobalPoolGuard guard;
    Rng rng(321);
    const int64_t m = 150, n = 67, k = 33;
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({n, k}, rng);
    Tensor init = Tensor::randn({m, n}, rng);

    runtime::setGlobalThreadCount(1);
    Tensor c1 = init;
    gemmNT(a.data(), b.data(), c1.data(), m, n, k, /*accumulate=*/true);

    for (int threads : {2, 8}) {
        runtime::setGlobalThreadCount(threads);
        Tensor c = init;
        gemmNT(a.data(), b.data(), c.data(), m, n, k, /*accumulate=*/true);
        EXPECT_TRUE(c == c1) << threads << " threads";
    }
}

TEST(Gemm, ZeroSizedInnerDim)
{
    Tensor a(2, 0);
    Tensor b(3, 0);
    Tensor c = matmulNT(a, b);
    EXPECT_EQ(c.size(0), 2);
    EXPECT_EQ(c.size(1), 3);
    EXPECT_EQ(frobeniusNorm(c), 0.0);
}

// ------------------------------------------------------- packed path

/** Ragged shapes straddling every block/strip edge (64-row M-blocks,
 *  6-row A strips, 16-column B strips). */
class GemmPackShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmPackShapes, PackedBitIdenticalAcrossThreadCounts)
{
    GlobalPoolGuard pool_guard;
    auto [m, n, k] = GetParam();
    Rng rng(8);
    Tensor a_nt = Tensor::randn({m, k}, rng);
    Tensor b_nt = Tensor::randn({n, k}, rng);
    Tensor a_nn = Tensor::randn({m, k}, rng);
    Tensor b_nn = Tensor::randn({k, n}, rng);
    Tensor a_tn = Tensor::randn({k, m}, rng);
    Tensor b_tn = Tensor::randn({k, n}, rng);

    runtime::setGlobalThreadCount(1);
    const Tensor nt1 = matmulNT(a_nt, b_nt);
    const Tensor nn1 = matmulNN(a_nn, b_nn);
    const Tensor tn1 = matmulTN(a_tn, b_tn);
    for (int threads : {2, 8}) {
        runtime::setGlobalThreadCount(threads);
        EXPECT_TRUE(matmulNT(a_nt, b_nt) == nt1) << threads << " threads";
        EXPECT_TRUE(matmulNN(a_nn, b_nn) == nn1) << threads << " threads";
        EXPECT_TRUE(matmulTN(a_tn, b_tn) == tn1) << threads << " threads";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmPackShapes,
    ::testing::Values(std::make_tuple(65, 63, 130),
                      std::make_tuple(130, 96, 70),
                      std::make_tuple(6, 16, 32),
                      std::make_tuple(13, 17, 40),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(257, 191, 133)));

TEST(GemmPack, PackedAccumulateAddsToExisting)
{
    Rng rng(45);
    Tensor a = Tensor::randn({19, 23}, rng);
    Tensor b = Tensor::randn({31, 23}, rng);
    Tensor c(19, 31);
    c.fill(1.0f);
    gemmNT(a.data(), b.data(), c.data(), 19, 31, 23, /*accumulate=*/true);
    Tensor r = refNT(a, b);
    for (int64_t i = 0; i < c.numel(); ++i)
        EXPECT_NEAR(c.at(i), r.at(i) + 1.0f, 1e-4);
}

// ----------------------------------------------------- batched path

/** Per-item reference for the batched entry points: the same GEMMs
 *  through the ordinary per-item entries, with the TN group reduction
 *  done as compute-into-scratch-then-add — the fixed order the batched
 *  driver guarantees. */
void
refBatched(int variant, const float *a, int64_t a_stride, const float *b,
           int64_t b_stride, float *c, int64_t c_stride, int64_t count,
           int64_t m, int64_t n, int64_t k, int64_t group,
           bool accumulate)
{
    std::vector<float> tmp(static_cast<size_t>(m * n));
    for (int64_t i = 0; i < count; ++i) {
        const float *ai = a + i * a_stride;
        const float *bi = b + (variant == 2 ? i : i / group) * b_stride;
        if (variant == 0)
            gemmNT(ai, bi, c + i * c_stride, m, n, k, accumulate);
        else if (variant == 1)
            gemmNN(ai, bi, c + i * c_stride, m, n, k, accumulate);
        else {
            float *cg = c + (i / group) * c_stride;
            if (i % group == 0 && !accumulate)
                std::fill_n(cg, m * n, 0.0f);
            gemmTN(ai, bi, tmp.data(), m, n, k, /*accumulate=*/false);
            for (int64_t e = 0; e < m * n; ++e)
                cg[e] += tmp[e];
        }
    }
}

/** (count, m, n, k, group) cases: strip-ragged shapes, shared-B
 *  groups, and a GQA-like group reduction. */
class GemmBatchedShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>>
{
};

TEST_P(GemmBatchedShapes, MatchesPerItemLoopBitExact)
{
    // The batched driver runs the same per-item kernels as a loop of
    // ordinary calls, so results are bit-identical.
    auto [count, m, n, k, group] = GetParam();
    Rng rng(77);
    const int64_t groups = count / group;
    Tensor a_nt = Tensor::randn({count * m, k}, rng);
    Tensor b_nt = Tensor::randn({groups * n, k}, rng);
    Tensor a_nn = Tensor::randn({count * m, k}, rng);
    Tensor b_nn = Tensor::randn({groups * k, n}, rng);
    Tensor a_tn = Tensor::randn({count * k, m}, rng);
    Tensor b_tn = Tensor::randn({count * k, n}, rng);

    Tensor c_ref(count * m, n), c_bat(count * m, n);
    refBatched(0, a_nt.data(), m * k, b_nt.data(), n * k, c_ref.data(),
               m * n, count, m, n, k, group, false);
    gemmBatchedNT(a_nt.data(), m * k, b_nt.data(), n * k, c_bat.data(),
                  m * n, count, m, n, k, group);
    EXPECT_TRUE(c_ref == c_bat) << "NT";

    refBatched(1, a_nn.data(), m * k, b_nn.data(), k * n, c_ref.data(),
               m * n, count, m, n, k, group, false);
    gemmBatchedNN(a_nn.data(), m * k, b_nn.data(), k * n, c_bat.data(),
                  m * n, count, m, n, k, group);
    EXPECT_TRUE(c_ref == c_bat) << "NN";

    Tensor g_ref(groups * m, n), g_bat(groups * m, n);
    refBatched(2, a_tn.data(), k * m, b_tn.data(), k * n, g_ref.data(),
               m * n, count, m, n, k, group, false);
    gemmBatchedTN(a_tn.data(), k * m, b_tn.data(), k * n, g_bat.data(),
                  m * n, count, m, n, k, group);
    EXPECT_TRUE(g_ref == g_bat) << "TN";
}

TEST_P(GemmBatchedShapes, BitIdenticalAcrossThreadCounts)
{
    GlobalPoolGuard pool_guard;
    auto [count, m, n, k, group] = GetParam();
    Rng rng(78);
    const int64_t groups = count / group;
    Tensor a = Tensor::randn({count * m, k}, rng);
    Tensor b = Tensor::randn({groups * n, k}, rng);
    Tensor a_tn = Tensor::randn({count * k, m}, rng);
    Tensor b_tn = Tensor::randn({count * k, n}, rng);

    runtime::setGlobalThreadCount(1);
    Tensor nt1(count * m, n), tn1(groups * m, n);
    gemmBatchedNT(a.data(), m * k, b.data(), n * k, nt1.data(), m * n,
                  count, m, n, k, group);
    gemmBatchedTN(a_tn.data(), k * m, b_tn.data(), k * n, tn1.data(),
                  m * n, count, m, n, k, group);
    for (int threads : {2, 8}) {
        runtime::setGlobalThreadCount(threads);
        Tensor nt(count * m, n), tn(groups * m, n);
        gemmBatchedNT(a.data(), m * k, b.data(), n * k, nt.data(),
                      m * n, count, m, n, k, group);
        gemmBatchedTN(a_tn.data(), k * m, b_tn.data(), k * n, tn.data(),
                      m * n, count, m, n, k, group);
        EXPECT_TRUE(nt == nt1) << threads << " threads";
        EXPECT_TRUE(tn == tn1) << threads << " threads";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmBatchedShapes,
    ::testing::Values(std::make_tuple(1, 5, 7, 3, 1),
                      std::make_tuple(6, 16, 16, 8, 1),
                      std::make_tuple(8, 33, 17, 12, 2),
                      std::make_tuple(12, 64, 64, 16, 4),
                      std::make_tuple(16, 23, 40, 65, 8)));

TEST(GemmBatched, AccumulateAddsToExisting)
{
    const int64_t count = 3, m = 7, n = 9, k = 11;
    Rng rng(80);
    Tensor a = Tensor::randn({count * m, k}, rng);
    Tensor b = Tensor::randn({count * n, k}, rng);
    Tensor c(count * m, n);
    c.fill(1.0f);
    gemmBatchedNT(a.data(), m * k, b.data(), n * k, c.data(), m * n,
                  count, m, n, k, /*group=*/1, /*accumulate=*/true);
    for (int64_t i = 0; i < count; ++i) {
        Tensor ai(m, k), bi(n, k);
        std::copy_n(a.data() + i * m * k, m * k, ai.data());
        std::copy_n(b.data() + i * n * k, n * k, bi.data());
        Tensor r = refNT(ai, bi);
        for (int64_t e = 0; e < m * n; ++e)
            EXPECT_NEAR(c.at(i * m * n + e), r.at(e) + 1.0f, 1e-4);
    }
}

TEST(GemmPack, FusedQuantMatchesMaterializedBitExact)
{
    // The GEMM driver's quantize-then-pack must equal quantizing a copy
    // with FakeQuantizer and multiplying it, bit for bit (same region
    // routine, same scales, same grid snap), for every nearest-rounding
    // precision and in all three variants. M sweeps the thin-block
    // path: 1, 2 and 5 rows stream from the quantized scratch through
    // the rows kernel, 6 rows fill one A strip, and 69 / 70 end in a
    // 5- / 6-row block at row 64.
    Rng rng(9);
    FakeQuantizer q(11);
    const int64_t n = 50, k = 130;
    for (int64_t m : {1, 2, 5, 6, 69, 70}) {
        for (Precision p :
             {Precision::FP8, Precision::FP6, Precision::FP4}) {
            QuantConfig act = rolePolicy(p, TensorRole::Activation);
            QuantConfig wt = rolePolicy(p, TensorRole::Weight);
            act.rounding = Rounding::Nearest; // FP4 grads aside, all are
            SCOPED_TRACE(act.describe() + " m=" + std::to_string(m));

            Tensor x = Tensor::randn({m, k}, rng);
            Tensor w = Tensor::randn({n, k}, rng);
            Tensor xm = q.quantize(x, act);
            Tensor wm = q.quantize(w, wt);
            Tensor fused = quantMatmulNT(x, &act, w, &wt, nullptr);
            Tensor mat = quantMatmulNT(xm, nullptr, wm, nullptr, nullptr);
            EXPECT_TRUE(fused == mat);

            Tensor dy = Tensor::randn({m, n}, rng);
            Tensor w2 = Tensor::randn({n, k}, rng);
            QuantConfig og = rolePolicy(p, TensorRole::OutputGrad);
            og.rounding = Rounding::Nearest;
            Tensor dym = q.quantize(dy, og);
            Tensor w2m = q.quantize(w2, wt);
            Tensor f_nn = quantMatmulNN(dy, &og, w2, &wt, nullptr);
            Tensor m_nn = quantMatmulNN(dym, nullptr, w2m, nullptr, nullptr);
            EXPECT_TRUE(f_nn == m_nn);

            Tensor dw_f(n, k), dw_m(n, k);
            quantGemmTN(dy, &og, x, &act, dw_f, /*accumulate=*/false);
            quantGemmTN(dym, nullptr, xm, nullptr, dw_m,
                        /*accumulate=*/false);
            EXPECT_TRUE(dw_f == dw_m);
        }
    }

    // Stochastic rounding (FP4 gradients, the Dgrad and Wgrad A
    // operands): the GEMM driver quantizes with the config's call key,
    // so with the key FakeQuantizer draws for its copy the products
    // match bit for bit, at any thread count.
    GlobalPoolGuard pool_guard;
    const QuantConfig wt = rolePolicy(Precision::FP4, TensorRole::Weight);
    const QuantConfig act =
        rolePolicy(Precision::FP4, TensorRole::Activation);
    QuantConfig sr = rolePolicy(Precision::FP4, TensorRole::OutputGrad);
    sr.rounding = Rounding::Stochastic;
    // The key q's next stochastic call draws.
    auto nextKey = [&q] {
        Rng peek = q.rng();
        return peek.nextU64();
    };
    for (int threads : {1, 4}) {
        runtime::setGlobalThreadCount(threads);
        for (int64_t m : {1, 2, 5, 6, 69, 70}) {
            SCOPED_TRACE(sr.describe() + " threads=" +
                         std::to_string(threads) +
                         " m=" + std::to_string(m));
            Tensor dy = Tensor::randn({m, n}, rng);
            Tensor w = Tensor::randn({n, k}, rng);
            Tensor x = Tensor::randn({m, k}, rng);
            const Tensor wm = q.quantize(w, wt);
            const Tensor xm = q.quantize(x, act);

            sr.call_key = nextKey();
            const Tensor dym = q.quantize(dy, sr);
            Tensor f_nn = quantMatmulNN(dy, &sr, w, &wt, nullptr);
            Tensor m_nn = quantMatmulNN(dym, nullptr, wm, nullptr, nullptr);
            EXPECT_TRUE(f_nn == m_nn);

            sr.call_key = nextKey();
            const Tensor dyw = q.quantize(dy, sr);
            Tensor dw_f(n, k), dw_m(n, k);
            quantGemmTN(dy, &sr, x, &act, dw_f, /*accumulate=*/false);
            quantGemmTN(dyw, nullptr, xm, nullptr, dw_m,
                        /*accumulate=*/false);
            EXPECT_TRUE(dw_f == dw_m);
        }
    }
}

TEST(GemmPack, WeightCacheHitsAndInvalidates)
{
    Rng rng(10);
    const int64_t m = 33, n = 40, k = 65;
    Tensor x = Tensor::randn({m, k}, rng);
    Tensor w = Tensor::randn({n, k}, rng);
    QuantConfig xq = rolePolicy(Precision::FP8, TensorRole::Activation);
    QuantConfig wq = rolePolicy(Precision::FP8, TensorRole::Weight);

    PackedWeightCache cache;
    Tensor first = quantMatmulNT(x, &xq, w, &wq, &cache);
    Tensor hit = quantMatmulNT(x, &xq, w, &wq, &cache);
    EXPECT_TRUE(first == hit); // cache hit reproduces the pack

    // Different policy on the same cache must not reuse the panel.
    QuantConfig wq4 = rolePolicy(Precision::FP4, TensorRole::Weight);
    Tensor fp4 = quantMatmulNT(x, &xq, w, &wq4, &cache);
    Tensor fp4_ref = quantMatmulNT(x, &xq, w, &wq4, nullptr);
    EXPECT_TRUE(fp4 == fp4_ref);

    // Mutating the weight without invalidation is the documented bug;
    // with invalidation the repack picks the new values up.
    for (int64_t i = 0; i < w.numel(); ++i)
        w.at(i) += 0.25f;
    invalidateWeightPacks();
    Tensor after = quantMatmulNT(x, &xq, w, &wq, &cache);
    Tensor after_ref = quantMatmulNT(x, &xq, w, &wq, nullptr);
    EXPECT_TRUE(after == after_ref);

    // The NN orientation quantizes and packs its own panel in its own
    // slot; results must match the uncached path bit for bit.
    Tensor dy = Tensor::randn({m, n}, rng);
    Tensor nn_c = quantMatmulNN(dy, &xq, w, &wq, &cache);
    Tensor nn_u = quantMatmulNN(dy, &xq, w, &wq, nullptr);
    EXPECT_TRUE(nn_c == nn_u);
}

} // namespace
} // namespace snip
