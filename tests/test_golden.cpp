/**
 * @file
 * Golden training-step bits: absolute CRC32 pins of short trainer runs
 * at the fig8 model shape.
 *
 * The thread-count and backend tests elsewhere compare two
 * configurations of one build, so a change that moves every
 * configuration's bits the same way passes them. These pins were
 * recorded once and must be reproduced: a refactor that claims to keep
 * the training bits proves it here. GEMM and sum-of-squares low-order
 * bits are backend-specific (simd/kernels.h), so the pins are keyed by
 * backend: scalar rows are checked on every host, AVX2 rows where the
 * CPU has AVX2+FMA. Every pin must hold at 1 and at 4 threads.
 *
 * Golden.SchemeUpdateBits pins one SNIP scheme update the same way:
 * the divergence table, both noise probes and the selected scheme.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/controller.h"
#include "simd/dispatch.h"
#include "testing_util.h"
#include "train/presets.h"
#include "util/crc32.h"

namespace snip {
namespace {

/** Steps per pinned run. */
constexpr int kGoldenSteps = 4;

/**
 * A fixed mixed scheme over every linear layer, cycling by index:
 * all-FP4 (stochastic-rounded gradients on Dgrad and Wgrad), FP8
 * forward with FP4 gradients, and BF16.
 */
PrecisionScheme
mixedScheme(size_t n_layers)
{
    PrecisionScheme s(n_layers);
    for (size_t i = 0; i < n_layers; ++i) {
        switch (i % 3) {
            case 0:
                s.layers[i] = LayerScheme::uniform(Precision::FP4);
                break;
            case 1:
                s.layers[i] = LayerScheme{
                    {Precision::FP8, Precision::FP4, Precision::FP4}};
                break;
            default:
                s.layers[i] = LayerScheme::uniform(Precision::BF16);
                break;
        }
    }
    return s;
}

uint32_t
crcOf(const Tensor &t, uint32_t crc)
{
    return crc32(t.data(), static_cast<size_t>(t.numel()) * sizeof(float),
                 crc);
}

/**
 * CRC32 of kGoldenSteps trainStep()s of tinyllamaSim under
 * @p mixed ? mixedScheme() : uniform BF16: every step's loss bits, then
 * each parameter's final value, then its Adam m and v, in parameter
 * order.
 */
uint32_t
trainStepCrc(bool mixed)
{
    Trainer trainer(trainerPreset(tinyllamaSim(), 42));
    const size_t n_layers =
        static_cast<size_t>(trainer.model().registry().numLinear());
    trainer.applyScheme(
        mixed ? mixedScheme(n_layers)
              : PrecisionScheme::uniform(n_layers, Precision::BF16));
    uint32_t crc = 0;
    for (int s = 0; s < kGoldenSteps; ++s) {
        const double loss = trainer.trainStep();
        crc = crc32(&loss, sizeof(loss), crc);
    }
    const AdamW &opt = trainer.optimizer();
    for (size_t i = 0; i < opt.numParams(); ++i)
        crc = crcOf(*opt.param(i).value, crc);
    for (size_t i = 0; i < opt.numParams(); ++i) {
        crc = crcOf(opt.state(i).m, crc);
        crc = crcOf(opt.state(i).v, crc);
    }
    return crc;
}

TEST(Golden, TrainStepBits)
{
    BackendGuard backend_guard;
    GlobalPoolGuard pool_guard;
    struct Pin
    {
        const char *backend;
        bool mixed;
        uint32_t crc;
    };
    const Pin pins[] = {
        {"scalar", false, 0xe489488fu},
        {"scalar", true, 0xf9001ffeu},
        {"avx2", false, 0x9815a782u},
        {"avx2", true, 0x5b9f05a8u},
    };
    for (const Pin &pin : pins) {
        if (std::strcmp(pin.backend, "avx2") == 0 &&
            !simd::cpuSupportsAvx2())
            continue;
        ASSERT_TRUE(simd::setBackendByName(pin.backend));
        for (int threads : {1, 4}) {
            runtime::setGlobalThreadCount(threads);
            const uint32_t crc = trainStepCrc(pin.mixed);
            EXPECT_EQ(crc, pin.crc)
                << pin.backend << (pin.mixed ? " mixed" : " bf16") << " at "
                << threads << " threads: got 0x" << std::hex << crc;
        }
    }
}

/** BF16 steps before the pinned scheme update. */
constexpr int kUpdateWarmSteps = 3;

/**
 * CRC32 of one scheme update on tinyTestModel after kUpdateWarmSteps
 * BF16 steps, at target 0.75, run through the public Steps 1-5 entry
 * points in the order the inline controller runs them: every
 * divergence-table cell's quality, loss_div, weight_div and efficiency
 * bits, then each probe's grad_delta and noise_norm (backward probe
 * first), then the selected scheme's precisions. @p inline_matches
 * reports whether SnipController::updateScheme, run from the same
 * state, selects the same scheme.
 */
uint32_t
schemeUpdateCrc(bool *inline_matches)
{
    Trainer trainer(trainerPreset(tinyTestModel(), 42));
    trainer.train(kUpdateWarmSteps);
    const Batch batch = trainer.nextBatch();
    const TrainerSnapshot snap = trainer.snapshot();
    LlamaModel &model = trainer.model();
    SnipController::Config cc;
    cc.target_fp4_fraction = 0.75;

    const TrainingStats stats =
        collectTrainingStats(model, &trainer.optimizer(), batch);
    const ProbeResult bwd = runNoiseProbe(model, batch, stats,
                                          ProbeKind::Backward, cc.probe);
    const ProbeResult fwd = runNoiseProbe(model, batch, stats,
                                          ProbeKind::Forward, cc.probe);
    const FlopsModel flops(model.registry());
    DivergenceOptions dopt;
    dopt.metric = cc.metric;
    dopt.weight_div_scale = cc.weight_div_scale;
    const DivergenceTable table =
        DivergenceAnalyzer(stats, &bwd, &fwd, flops)
            .analyze(makeOptionSet(cc.option_set), dopt);
    const SchemeSelection sel = selectScheme(
        table, cc.target_fp4_fraction, flops, cc.solve, cc.pipeline);

    uint32_t crc = 0;
    for (const auto &row : table.cell) {
        for (const OptionCost &c : row) {
            for (double v : {c.quality, c.loss_div, c.weight_div,
                             c.efficiency})
                crc = crc32(&v, sizeof(v), crc);
        }
    }
    for (const ProbeResult *probe : {&bwd, &fwd}) {
        crc = crc32(probe->grad_delta.data(),
                    probe->grad_delta.size() * sizeof(double), crc);
        crc = crc32(&probe->noise_norm, sizeof(double), crc);
    }
    for (const LayerScheme &l : sel.scheme.layers) {
        for (Precision p : l.gemm) {
            const int32_t v = static_cast<int32_t>(p);
            crc = crc32(&v, sizeof(v), crc);
        }
    }

    trainer.restore(snap);
    SnipController controller(cc);
    const SchemeSelection inline_sel =
        controller.updateScheme(model, &trainer.optimizer(), batch);
    *inline_matches = inline_sel.scheme == sel.scheme;
    return crc;
}

TEST(Golden, SchemeUpdateBits)
{
    BackendGuard backend_guard;
    GlobalPoolGuard pool_guard;
    struct Pin
    {
        const char *backend;
        uint32_t crc;
    };
    const Pin pins[] = {
        {"scalar", 0xd0c43721u},
        {"avx2", 0xd690e19fu},
    };
    for (const Pin &pin : pins) {
        if (std::strcmp(pin.backend, "avx2") == 0 &&
            !simd::cpuSupportsAvx2())
            continue;
        ASSERT_TRUE(simd::setBackendByName(pin.backend));
        for (int threads : {1, 4}) {
            runtime::setGlobalThreadCount(threads);
            bool inline_matches = false;
            const uint32_t crc = schemeUpdateCrc(&inline_matches);
            EXPECT_EQ(crc, pin.crc)
                << pin.backend << " at " << threads
                << " threads: got 0x" << std::hex << crc;
            EXPECT_TRUE(inline_matches)
                << pin.backend << " at " << threads << " threads";
        }
    }
}

} // namespace
} // namespace snip
