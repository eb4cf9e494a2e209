/**
 * @file
 * FakeQuantizer end to end: scaled quantize-dequantize under every
 * granularity, the role policies of Sec. 2.3 / 6.1, and the error
 * metrics the baselines consume.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "quant/error_metrics.h"
#include "quant/quantizer.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace snip {
namespace {

TEST(Quantizer, ValuesLandOnScaledGrid)
{
    Rng rng(1);
    Tensor t = Tensor::randn({8, 16}, rng);
    FakeQuantizer q(2);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tensorwise, 0},
                    Rounding::Nearest};
    Tensor out = q.quantize(t, cfg);
    // With tensorwise scaling, out * scale must be on the FP4 grid.
    const double scale = 6.0 / maxAbs(t);
    for (int64_t i = 0; i < out.numel(); ++i) {
        float scaled = static_cast<float>(out.at(i) * scale);
        EXPECT_NEAR(scaled, quantizeNearest(scaled, fp4E2m1()), 1e-5);
    }
}

TEST(Quantizer, MaxAbsElementIsPreservedExactly)
{
    // The scaling maps max|x| onto FPX_MAX, which is representable.
    Rng rng(3);
    Tensor t = Tensor::randn({4, 32}, rng);
    FakeQuantizer q(4);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tensorwise, 0},
                    Rounding::Nearest};
    Tensor out = q.quantize(t, cfg);
    float m_in = maxAbs(t);
    float m_out = maxAbs(out);
    EXPECT_NEAR(m_in, m_out, 1e-5f * m_in);
}

TEST(Quantizer, FinerGranularityGivesLowerError)
{
    // The reason for tile/block scaling (Sec. 2.3): add per-row scale
    // disparity and compare tensorwise vs tilewise error.
    Rng rng(5);
    Tensor t = Tensor::randn({16, 256}, rng);
    for (int64_t r = 0; r < 16; ++r)
        for (int64_t c = 0; c < 256; ++c)
            t.at(r, c) *= static_cast<float>(std::pow(4.0, r % 4));
    QuantConfig coarse{fp4E2m1(), {Granularity::Tensorwise, 0},
                       Rounding::Nearest};
    QuantConfig fine{fp4E2m1(), {Granularity::Tilewise, 128},
                     Rounding::Nearest};
    double e_coarse = measureQuantError(t, coarse).abs_error;
    double e_fine = measureQuantError(t, fine).abs_error;
    EXPECT_LT(e_fine, e_coarse);
}

TEST(Quantizer, Fp8ErrorBelowFp4Error)
{
    Rng rng(7);
    Tensor t = Tensor::randn({32, 64}, rng);
    QuantConfig f8{fp8E4m3(), {Granularity::Tilewise, 128},
                   Rounding::Nearest};
    QuantConfig f4{fp4E2m1(), {Granularity::Tilewise, 128},
                   Rounding::Nearest};
    EXPECT_LT(measureQuantError(t, f8).abs_error,
              measureQuantError(t, f4).abs_error);
}

TEST(Quantizer, Bf16FastPathNearlyLossless)
{
    Rng rng(9);
    Tensor t = Tensor::randn({16, 16}, rng);
    QuantConfig cfg{bf16(), {Granularity::Tensorwise, 0},
                    Rounding::Nearest};
    QuantError err = measureQuantError(t, cfg);
    EXPECT_LT(err.rel_error, 3e-3);
    EXPECT_GT(err.rel_error, 0.0); // it does quantize
}

TEST(Quantizer, ZeroTensorIsFixedPoint)
{
    Tensor t(4, 4);
    FakeQuantizer q(11);
    for (auto g : {Granularity::Tensorwise, Granularity::Tilewise,
                   Granularity::Blockwise}) {
        Tensor out = q.quantize(t, QuantConfig{fp4E2m1(), {g, 2},
                                               Rounding::Nearest});
        EXPECT_EQ(frobeniusNorm(out), 0.0);
    }
}

TEST(Quantizer, StochasticRoundingPreservesMeanOfLargeTensor)
{
    Rng rng(13);
    FakeQuantizer q(14);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tensorwise, 0},
                    Rounding::Stochastic};
    // Between grid points rounding is unbiased: the mean of uniform
    // noise survives.
    Tensor u = Tensor::uniform({200, 200}, rng, 0.0f, 1.0f);
    Tensor out = q.quantize(u, cfg);
    EXPECT_NEAR(mean(out), mean(u), 0.01);

    // Values whose scaled images sit exactly on the grid never move:
    // max 0.75 gives scale 6 / 0.75 = 8, mapping {0.75, 0.375, 0.1875,
    // 0.0625} onto the FP4 points {6, 3, 1.5, 0.5}.
    const float on_grid[] = {0.75f, 0.375f, 0.1875f, 0.0625f};
    Tensor g(100, 100);
    for (int64_t i = 0; i < g.numel(); ++i)
        g.at(i) = on_grid[i % 4] * (i % 8 < 4 ? 1.0f : -1.0f);
    EXPECT_TRUE(q.quantize(g, cfg) == g);
}

TEST(Quantizer, RolePolicyFollowsDeepSeekRecipe)
{
    QuantConfig act = rolePolicy(Precision::FP8, TensorRole::Activation);
    EXPECT_EQ(act.format.name, "fp8_e4m3");
    EXPECT_EQ(act.scaling.granularity, Granularity::Tilewise);
    EXPECT_EQ(act.scaling.block, 128);

    QuantConfig w = rolePolicy(Precision::FP8, TensorRole::Weight);
    EXPECT_EQ(w.scaling.granularity, Granularity::Blockwise);
    EXPECT_EQ(w.scaling.block, 128);

    QuantConfig g = rolePolicy(Precision::FP8, TensorRole::OutputGrad);
    EXPECT_EQ(g.format.name, "fp8_e5m2"); // wider range for gradients
    EXPECT_EQ(g.rounding, Rounding::Nearest);
}

TEST(Quantizer, Fp4GradientsUseStochasticRounding)
{
    QuantConfig g = rolePolicy(Precision::FP4, TensorRole::OutputGrad);
    EXPECT_EQ(g.format.name, "fp4_e2m1");
    EXPECT_EQ(g.rounding, Rounding::Stochastic);
    // ... but forward tensors use nearest.
    EXPECT_EQ(rolePolicy(Precision::FP4, TensorRole::Activation).rounding,
              Rounding::Nearest);
}

TEST(Quantizer, DeterministicGivenSeed)
{
    Rng rng(15);
    Tensor t = Tensor::randn({32, 32}, rng);
    FakeQuantizer q1(77), q2(77);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tilewise, 8},
                    Rounding::Stochastic};
    EXPECT_TRUE(q1.quantize(t, cfg) == q2.quantize(t, cfg));
}

TEST(Quantizer, ParallelBitIdenticalToSerial)
{
    // Region sweeps run on the shared pool; every config — including
    // stochastic rounding, whose per-region streams are derived from
    // the call key rather than claimed in scheduling order — must give
    // the 1-thread result bit for bit at 2 and 8 threads.
    GlobalPoolGuard guard;
    Rng rng(99);
    Tensor t = Tensor::randn({67, 190}, rng); // non-multiple of blocks
    const QuantConfig configs[] = {
        {fp4E2m1(), {Granularity::Tilewise, 128}, Rounding::Nearest},
        {fp8E4m3(), {Granularity::Blockwise, 128}, Rounding::Nearest},
        {fp4E2m1(), {Granularity::Rowwise, 0}, Rounding::Nearest},
        {fp4E2m1(), {Granularity::Tensorwise, 0}, Rounding::Stochastic},
        {fp4E2m1(), {Granularity::Tilewise, 32}, Rounding::Stochastic},
        {bf16(), {Granularity::Tensorwise, 0}, Rounding::Nearest},
    };
    for (const QuantConfig &cfg : configs) {
        runtime::setGlobalThreadCount(1);
        FakeQuantizer serial_q(555);
        const Tensor serial = serial_q.quantize(t, cfg);
        for (int threads : {2, 8}) {
            runtime::setGlobalThreadCount(threads);
            FakeQuantizer q(555);
            EXPECT_TRUE(q.quantize(t, cfg) == serial)
                << cfg.describe() << " at " << threads << " threads";
        }
    }
}

/** Inputs that reach every stochastic-rounding branch. The main
 *  tensor spans 2^-5..2^5 per element, so regions mix normals with the
 *  format's subnormal range after scaling, and carries exact zeros of
 *  both signs, float denormals, NaN (which the region max ignores) and
 *  a dominant element whose scaled image lands on the saturation
 *  bound, with near-max neighbours on either side of it. ±Inf lives in
 *  a second tensor: its regions scale by 0, which would flatten every
 *  other value sharing a tensorwise or blockwise region with it. */
std::vector<Tensor>
srGoldenInputs()
{
    Rng rng(2024);
    const int64_t rows = 37, cols = 300;
    Tensor t = Tensor::randn({rows, cols}, rng);
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
            const int e = static_cast<int>((r * 7 + c) % 11) - 5;
            t.at(r, c) *= std::ldexp(1.0f, e);
        }
        t.at(r, r % cols) = 0.0f;
        t.at(r, (r + 40) % cols) = -0.0f;
        t.at(r, (r + 80) % cols) = std::numeric_limits<float>::denorm_min();
        t.at(r, (r + 120) % cols) = -1e-40f;
        t.at(r, (r + 160) % cols) = std::numeric_limits<float>::quiet_NaN();
        t.at(r, (r + 200) % cols) = (r % 2 ? -100.0f : 100.0f);
        t.at(r, (r + 201) % cols) = 99.99f;
        t.at(r, (r + 202) % cols) = -99.0f;
    }
    Tensor inf = Tensor::randn({4, 48}, rng);
    inf.at(1, 5) = std::numeric_limits<float>::infinity();
    inf.at(1, 40) = -std::numeric_limits<float>::infinity();
    return {t, inf};
}

TEST(Quantizer, StochasticRoundingGoldenBits)
{
    // Absolute pin of the stochastic-rounding bits: the CRC32 of two
    // consecutive quantizer calls (the call key advances between them)
    // on srGoldenInputs(), per format and granularity. The constants
    // were recorded from the scalar per-element codec; any
    // reimplementation must reproduce them on every backend and
    // thread count.
    struct Pin
    {
        const FloatFormat *fmt;
        ScalingSpec scaling;
        uint32_t crc;
    };
    const Pin pins[] = {
        {&fp4E2m1(), {Granularity::Tilewise, 128}, 0x83ee8b17u},
        {&fp4E2m1(), {Granularity::Tilewise, 32}, 0x652132e8u},
        {&fp4E2m1(), {Granularity::Blockwise, 128}, 0xf33a2e67u},
        {&fp4E2m1(), {Granularity::Rowwise, 0}, 0xd1027fc5u},
        {&fp4E2m1(), {Granularity::Tensorwise, 0}, 0xda56ad9eu},
        {&fp6E3m2(), {Granularity::Tilewise, 128}, 0x58c14c10u},
        {&fp6E3m2(), {Granularity::Tilewise, 32}, 0xaac4d385u},
        {&fp6E3m2(), {Granularity::Blockwise, 128}, 0x4f034d84u},
        {&fp6E3m2(), {Granularity::Rowwise, 0}, 0x18b3b4f2u},
        {&fp6E3m2(), {Granularity::Tensorwise, 0}, 0x4df2b41au},
        {&fp8E4m3(), {Granularity::Tilewise, 128}, 0xc5f07910u},
        {&fp8E4m3(), {Granularity::Tilewise, 32}, 0xb6e3fa7bu},
        {&fp8E4m3(), {Granularity::Blockwise, 128}, 0x430989e0u},
        {&fp8E4m3(), {Granularity::Rowwise, 0}, 0xe7143fbbu},
        {&fp8E4m3(), {Granularity::Tensorwise, 0}, 0x95cbdc78u},
        {&fp8E5m2(), {Granularity::Tilewise, 128}, 0x682fd18du},
        {&fp8E5m2(), {Granularity::Tilewise, 32}, 0x05f12a75u},
        {&fp8E5m2(), {Granularity::Blockwise, 128}, 0x5c9f3b5fu},
        {&fp8E5m2(), {Granularity::Rowwise, 0}, 0xa33df967u},
        {&fp8E5m2(), {Granularity::Tensorwise, 0}, 0x91a93c51u},
    };
    const std::vector<Tensor> inputs = srGoldenInputs();
    for (const Pin &pin : pins) {
        const QuantConfig cfg{*pin.fmt, pin.scaling, Rounding::Stochastic};
        FakeQuantizer q(31337);
        uint32_t crc = 0;
        for (int call = 0; call < 2; ++call) {
            for (const Tensor &in : inputs) {
                const Tensor out = q.quantize(in, cfg);
                crc = crc32(out.data(),
                            static_cast<size_t>(out.numel()) * sizeof(float),
                            crc);
            }
        }
        EXPECT_EQ(crc, pin.crc) << cfg.describe() << ": got 0x" << std::hex
                                << crc;
    }
}

TEST(ErrorMetrics, FieldsConsistent)
{
    Rng rng(17);
    Tensor t = Tensor::randn({16, 16}, rng);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tensorwise, 0},
                    Rounding::Nearest};
    QuantError err = measureQuantError(t, cfg);
    EXPECT_GT(err.abs_error, 0.0);
    EXPECT_NEAR(err.rel_error, err.abs_error / frobeniusNorm(t), 1e-12);
    EXPECT_GT(err.max_error, 0.0);
    EXPECT_LE(err.max_error, err.abs_error);
    EXPECT_NEAR(err.input_norm, frobeniusNorm(t), 1e-9);
}

TEST(ErrorMetrics, StochasticConfigMeasuredDeterministically)
{
    Rng rng(19);
    Tensor t = Tensor::randn({16, 16}, rng);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tensorwise, 0},
                    Rounding::Stochastic};
    double a = measureQuantError(t, cfg).abs_error;
    double b = measureQuantError(t, cfg).abs_error;
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace snip
