/**
 * @file
 * Property-based sweeps across module boundaries:
 *   - quantizer algebraic invariants over formats x granularities,
 *   - attention/model well-formedness over architecture shapes,
 *   - divergence-analyzer invariants,
 *   - failure handling (corrupt checkpoints, rounding-knob restore).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/controller.h"
#include "quant/error_metrics.h"
#include "tensor/ops.h"
#include "train/checkpoint.h"
#include "train/presets.h"
#include "util/table.h"

namespace snip {
namespace {

// ---------------------------------------------------------------- quant

struct QuantCase
{
    const FloatFormat *fmt;
    Granularity gran;
    int block;
};

class QuantProperties : public ::testing::TestWithParam<QuantCase>
{
};

TEST_P(QuantProperties, Idempotent)
{
    auto [fmt, gran, block] = GetParam();
    Rng rng(1);
    Tensor t = Tensor::randn({13, 37}, rng, 2.0f);
    FakeQuantizer q(2);
    QuantConfig cfg{*fmt, {gran, block}, Rounding::Nearest};
    Tensor once = q.quantize(t, cfg);
    Tensor twice = q.quantize(once, cfg);
    // Quantizing an already-quantized tensor is a no-op (same regions
    // -> same scales -> every value already on the grid).
    EXPECT_LT(diffNorm(once, twice), 1e-5 * (1.0 + frobeniusNorm(once)));
}

TEST_P(QuantProperties, PowerOfTwoScaleEquivariant)
{
    // q(alpha x) = alpha q(x) for power-of-two alpha: scaling factors
    // absorb the factor exactly.
    auto [fmt, gran, block] = GetParam();
    Rng rng(3);
    Tensor t = Tensor::randn({8, 24}, rng);
    Tensor t4 = t;
    scaleInPlace(t4, 4.0f);
    FakeQuantizer q(4);
    QuantConfig cfg{*fmt, {gran, block}, Rounding::Nearest};
    Tensor a = q.quantize(t, cfg);
    Tensor b = q.quantize(t4, cfg);
    scaleInPlace(a, 4.0f);
    EXPECT_LT(diffNorm(a, b), 1e-5 * (1.0 + frobeniusNorm(b)));
}

TEST_P(QuantProperties, SignSymmetric)
{
    auto [fmt, gran, block] = GetParam();
    Rng rng(5);
    Tensor t = Tensor::randn({6, 18}, rng);
    Tensor neg = t;
    scaleInPlace(neg, -1.0f);
    FakeQuantizer q(6);
    QuantConfig cfg{*fmt, {gran, block}, Rounding::Nearest};
    Tensor a = q.quantize(t, cfg);
    Tensor b = q.quantize(neg, cfg);
    scaleInPlace(b, -1.0f);
    EXPECT_LT(diffNorm(a, b), 1e-6);
}

TEST_P(QuantProperties, ErrorBoundedByRelativeUlp)
{
    // With max-abs scaling, the relative error of a region is bounded
    // by ~2^-m per element (half ULP at the top of the range).
    auto [fmt, gran, block] = GetParam();
    Rng rng(7);
    Tensor t = Tensor::randn({16, 32}, rng);
    QuantConfig cfg{*fmt, {gran, block}, Rounding::Nearest};
    QuantError err = measureQuantError(t, cfg);
    // Loose format-derived bound (covers subnormal flushes too).
    const double bound = std::ldexp(1.0, -fmt->mantissa_bits);
    EXPECT_LT(err.rel_error, bound);
    EXPECT_GT(err.rel_error, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    FormatsByGranularity, QuantProperties,
    ::testing::Values(
        QuantCase{&fp4E2m1(), Granularity::Tensorwise, 0},
        QuantCase{&fp4E2m1(), Granularity::Rowwise, 0},
        QuantCase{&fp4E2m1(), Granularity::Tilewise, 16},
        QuantCase{&fp4E2m1(), Granularity::Blockwise, 8},
        QuantCase{&fp8E4m3(), Granularity::Tensorwise, 0},
        QuantCase{&fp8E4m3(), Granularity::Tilewise, 16},
        QuantCase{&fp8E5m2(), Granularity::Blockwise, 8},
        QuantCase{&fp6E3m2(), Granularity::Tilewise, 16}));

// ---------------------------------------------------------------- model

struct ShapeCase
{
    int64_t blocks, d_model, heads, kv_heads, ffn, seq, batch;
};

class ModelShapes : public ::testing::TestWithParam<ShapeCase>
{
};

TEST_P(ModelShapes, TrainStepIsFiniteAndLearns)
{
    auto p = GetParam();
    ModelConfig m;
    m.name = "shape_case";
    m.vocab_size = 64;
    m.n_blocks = p.blocks;
    m.d_model = p.d_model;
    m.n_heads = p.heads;
    m.n_kv_heads = p.kv_heads;
    m.ffn_hidden = p.ffn;
    m.max_seq = p.seq;
    TrainerConfig cfg = trainerPreset(m);
    cfg.corpus.seq_len = p.seq;
    cfg.batch_size = p.batch;
    Trainer trainer(cfg);
    auto losses = trainer.train(8);
    for (double l : losses)
        ASSERT_TRUE(std::isfinite(l));
    EXPECT_LT(losses.back(), losses.front() + 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, ModelShapes,
    ::testing::Values(ShapeCase{1, 8, 1, 1, 16, 8, 1},
                      ShapeCase{2, 16, 4, 2, 24, 16, 2},
                      ShapeCase{3, 24, 4, 1, 32, 12, 2},
                      ShapeCase{2, 16, 2, 2, 48, 24, 3}));

// ------------------------------------------------------------ divergence

TEST(DivergenceProperties, QualityScalesWithWeightDivScale)
{
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    trainer.train(4);
    Batch batch = trainer.nextBatch();
    FlopsModel flops(trainer.model().registry());
    TrainingStats stats = collectTrainingStats(
        trainer.model(), &trainer.optimizer(), batch);
    ProbeResult bwd = runNoiseProbe(trainer.model(), batch, stats,
                                    ProbeKind::Backward);
    ProbeResult fwd = runNoiseProbe(trainer.model(), batch, stats,
                                    ProbeKind::Forward);
    DivergenceAnalyzer an(stats, &bwd, &fwd, flops);
    auto opts = makeOptionSet(OptionSetKind::Simple);

    DivergenceOptions d1;
    d1.weight_div_scale = 1.0;
    DivergenceOptions d2;
    d2.weight_div_scale = 2.0;
    DivergenceTable t1 = an.analyze(opts, d1);
    DivergenceTable t2 = an.analyze(opts, d2);
    for (int i = 0; i < t1.numLayers(); ++i) {
        const auto &c1 = t1.cell[static_cast<size_t>(i)][1];
        const auto &c2 = t2.cell[static_cast<size_t>(i)][1];
        EXPECT_NEAR(c2.quality - c1.quality, c1.weight_div, 1e-12);
        // loss_div and efficiency unchanged by the scale.
        EXPECT_EQ(c1.loss_div, c2.loss_div);
        EXPECT_EQ(c1.efficiency, c2.efficiency);
    }
}

TEST(DivergenceProperties, WithoutProbesWeightDivIsLocalOnly)
{
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    trainer.train(4);
    Batch batch = trainer.nextBatch();
    FlopsModel flops(trainer.model().registry());
    TrainingStats stats = collectTrainingStats(
        trainer.model(), &trainer.optimizer(), batch);
    ProbeResult bwd = runNoiseProbe(trainer.model(), batch, stats,
                                    ProbeKind::Backward);
    ProbeResult fwd = runNoiseProbe(trainer.model(), batch, stats,
                                    ProbeKind::Forward);
    DivergenceAnalyzer with(stats, &bwd, &fwd, flops);
    DivergenceAnalyzer without(stats, nullptr, nullptr, flops);
    const LayerScheme fp4 = LayerScheme::uniform(Precision::FP4);
    for (int i = 0; i < trainer.model().registry().numLinear(); ++i) {
        // Propagated channels only add cost.
        EXPECT_GE(with.weightDivergence(i, fp4) + 1e-15,
                  without.weightDivergence(i, fp4));
    }
}

// --------------------------------------------------------------- failure

TEST(Failure, TruncatedCheckpointReturnsFalse)
{
    const std::string path = "test_truncated.bin";
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    trainer.train(2);
    ASSERT_TRUE(saveCheckpoint(trainer, path));
    // Truncate the file to half.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
    out.close();
    Trainer fresh(cfg);
    EXPECT_FALSE(loadCheckpoint(fresh, path));
    std::remove(path.c_str());
}

TEST(Failure, NonCheckpointFileFailsCleanly)
{
    const std::string path = "test_not_ckpt.bin";
    ASSERT_TRUE(writeFile(path, "definitely not a checkpoint"));
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    CheckpointStatus status = CheckpointStatus::Ok;
    EXPECT_FALSE(loadCheckpoint(trainer, path, nullptr, &status));
    EXPECT_EQ(status, CheckpointStatus::BadMagic);
    std::remove(path.c_str());
}

TEST(Failure, InvalidModelConfigDies)
{
    ModelConfig m = tinyTestModel();
    m.d_model = 30; // not divisible by n_heads=2? 30/2=15 ok; use heads 4
    m.n_heads = 4;
    EXPECT_EXIT(m.validate(), ::testing::ExitedWithCode(1),
                "not divisible");
}

TEST(AblationKnob, Fp4GradRoundingOverrideAndRestore)
{
    EXPECT_EQ(fp4GradRounding(), Rounding::Stochastic);
    setFp4GradRounding(Rounding::Nearest);
    EXPECT_EQ(rolePolicy(Precision::FP4, TensorRole::OutputGrad)
                  .rounding,
              Rounding::Nearest);
    setFp4GradRounding(Rounding::Stochastic);
    EXPECT_EQ(rolePolicy(Precision::FP4, TensorRole::OutputGrad)
                  .rounding,
              Rounding::Stochastic);
}

TEST(Fp6Extension, UniformFp6SchemeTrainsAndSitsBetweenFp8AndFp4)
{
    // The paper's extensibility claim (Sec. 3.2): a new precision
    // level slots into the scheme machinery. FP6's quantization error
    // and throughput sit between FP8 and FP4.
    EXPECT_EQ(precisionBits(Precision::FP6), 6);
    EXPECT_STREQ(precisionName(Precision::FP6), "FP6");
    EXPECT_EQ(rolePolicy(Precision::FP6, TensorRole::Weight).format.name,
              "fp6_e3m2");
    EXPECT_GT(precisionThroughput(Precision::FP6),
              precisionThroughput(Precision::FP8));
    EXPECT_LT(precisionThroughput(Precision::FP6),
              precisionThroughput(Precision::FP4));

    Rng rng(21);
    Tensor t = Tensor::randn({16, 32}, rng);
    auto err = [&](Precision p) {
        return measureQuantError(
                   t, rolePolicy(p, TensorRole::Weight))
            .rel_error;
    };
    EXPECT_LT(err(Precision::FP8), err(Precision::FP6));
    EXPECT_LT(err(Precision::FP6), err(Precision::FP4));

    // A uniform-FP6 scheme trains without blowing up.
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    trainer.applyScheme(PrecisionScheme::uniform(
        static_cast<size_t>(trainer.model().registry().numLinear()),
        Precision::FP6));
    for (double l : trainer.train(6))
        EXPECT_TRUE(std::isfinite(l));
}

TEST(Fp6Extension, DominantPrecisionOrdersFp6BetweenFp8AndFp4)
{
    using P = Precision;
    EXPECT_EQ((LayerScheme{{P::FP8, P::FP6, P::FP8}}.dominant()),
              P::FP6);
    EXPECT_EQ((LayerScheme{{P::FP4, P::FP6, P::FP8}}.dominant()),
              P::FP4);
}

TEST(Failure, NonFiniteInputsDoNotCrashQuantizer)
{
    Tensor t(2, 4);
    t.at(0, 0) = std::numeric_limits<float>::infinity();
    t.at(0, 1) = -std::numeric_limits<float>::infinity();
    t.at(1, 2) = 1.5f;
    FakeQuantizer q(1);
    // Infinite max-abs makes the region scale zero-ish; quantizer must
    // still produce finite output for the finite entries.
    QuantConfig cfg{fp4E2m1(), {Granularity::Rowwise, 0},
                    Rounding::Nearest};
    Tensor out = q.quantize(t, cfg);
    EXPECT_TRUE(std::isfinite(out.at(1, 2)));
}

} // namespace
} // namespace snip
