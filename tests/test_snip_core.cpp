/**
 * @file
 * The SNIP pipeline itself: statistics collection (Step 1), noise
 * probes (Steps 2-3, Theorem 4.2), divergence analysis (Step 4), ILP
 * construction/solution (Step 5) and the periodic controller (Step 6).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/controller.h"
#include "parallel/pipeline.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "train/presets.h"

namespace snip {
namespace {

struct Fixture
{
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer{cfg};
    Batch batch;

    Fixture()
    {
        trainer.train(5); // populate optimizer moments
        batch = trainer.nextBatch();
    }
};

TEST(StatsCollector, NormsMatchDirectComputation)
{
    Fixture f;
    TrainingStats stats = collectTrainingStats(
        f.trainer.model(), &f.trainer.optimizer(), f.batch);

    const LayerRegistry &reg = f.trainer.model().registry();
    ASSERT_EQ(stats.layers.size(),
              static_cast<size_t>(reg.numLinear()));
    EXPECT_GT(stats.loss, 0.0);
    EXPECT_GT(stats.hidden_norm, 0.0);
    EXPECT_GT(stats.hidden_grad_norm, 0.0);

    for (const auto &s : stats.layers) {
        EXPECT_GT(s.x_norm, 0.0) << s.name;
        EXPECT_GT(s.w_norm, 0.0);
        EXPECT_GT(s.dy_norm, 0.0);
        EXPECT_GT(s.dw_norm, 0.0);
        EXPECT_GT(s.opt_sensitivity, 0.0);
        // Weight norm matches the actual master weight.
        EXPECT_NEAR(s.w_norm,
                    frobeniusNorm(f.trainer.model()
                                      .linear(s.idx)
                                      .weight()),
                    1e-9 * s.w_norm);
        // Shapes match the registry.
        EXPECT_EQ(s.n, reg.outFeatures(s.idx));
        EXPECT_EQ(s.k, reg.inFeatures(s.idx));
        EXPECT_EQ(s.m, f.batch.batch * f.batch.seq);
        // Error ordering FP8 < FP6 < FP4 for every role (candidates
        // are stored in ascending-error order).
        for (int role = 0; role < 3; ++role) {
            for (int c = 1; c < kNumCandidates; ++c) {
                EXPECT_GT(s.qerr[c][role], s.qerr[c - 1][role])
                    << s.name << " role " << role << " cand " << c;
            }
        }
        EXPECT_GT(s.dw_dump.numel(), 0);
    }
}

TEST(StatsCollector, RestoresActiveScheme)
{
    Fixture f;
    const size_t n = static_cast<size_t>(
        f.trainer.model().registry().numLinear());
    PrecisionScheme fp4 = PrecisionScheme::uniform(n, Precision::FP4);
    f.trainer.applyScheme(fp4);
    collectTrainingStats(f.trainer.model(), &f.trainer.optimizer(),
                         f.batch);
    EXPECT_TRUE(f.trainer.model().currentScheme() == fp4);
}

TEST(StatsCollector, GradDumpMatchesManualBackward)
{
    Fixture f;
    TrainingStats stats = collectTrainingStats(
        f.trainer.model(), &f.trainer.optimizer(), f.batch);
    // Rerun the same pass manually in BF16 and compare layer 0's dW.
    LlamaModel &model = f.trainer.model();
    model.zeroGrad();
    LossResult res = model.forwardLoss(f.batch.tokens, f.batch.targets,
                                       f.batch.batch, f.batch.seq);
    model.backward(res.dlogits);
    EXPECT_LT(diffNorm(stats.layers[0].dw_dump, model.linear(0).grad()),
              1e-6);
}

/**
 * A probe that reruns the whole pass: the BF16 forward and backward
 * from the tokens, with the noise added between the model's public
 * halves (forwardBlocks -> noise -> forwardHead, or backwardHead ->
 * noise -> backwardBlocks). runNoiseProbe, which restarts from the
 * state collectTrainingStats kept, must match it bit for bit.
 */
ProbeResult
rerunEverythingProbe(LlamaModel &model, const Batch &batch,
                     const TrainingStats &baseline, ProbeKind kind,
                     const ProbeOptions &options = {})
{
    const int n = model.registry().numLinear();
    ProbeResult result;
    result.kind = kind;
    result.inject_point_norm = kind == ProbeKind::Forward
                                   ? baseline.hidden_norm
                                   : baseline.hidden_grad_norm;
    const double eps = options.relative_eps * result.inject_point_norm;

    const PrecisionScheme active = model.currentScheme();
    model.setScheme(PrecisionScheme::uniform(static_cast<size_t>(n),
                                             Precision::BF16));
    model.zeroGrad();
    Tensor hidden = model.forwardBlocks(batch.tokens, batch.batch, batch.seq);
    if (kind == ProbeKind::Forward)
        result.noise_norm = addProbeNoise(hidden, eps, model.noiseRng());
    const LossResult loss =
        softmaxCrossEntropy(model.forwardHead(hidden), batch.targets);
    Tensor dhidden = model.backwardHead(loss.dlogits);
    if (kind == ProbeKind::Backward)
        result.noise_norm = addProbeNoise(dhidden, eps, model.noiseRng());
    model.backwardBlocks(dhidden);
    model.setScheme(active);

    result.grad_delta.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        result.grad_delta[static_cast<size_t>(i)] =
            diffNorm(model.linear(i).grad(),
                     baseline.layers[static_cast<size_t>(i)].dw_dump);
    }
    return result;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(NoiseProbe, MatchesRerunEverythingProbeBitForBit)
{
    GlobalPoolGuard pool_guard;
    const ProbeKind orders[][2] = {
        {ProbeKind::Backward, ProbeKind::Forward},
        {ProbeKind::Forward, ProbeKind::Backward},
        {ProbeKind::Backward, ProbeKind::Backward},
    };
    for (int threads : {1, 4}) {
        runtime::setGlobalThreadCount(threads);
        for (const auto &order : orders) {
            Fixture f;
            LlamaModel &model = f.trainer.model();
            const TrainingStats stats = collectTrainingStats(
                model, &f.trainer.optimizer(), f.batch);
            const auto noise_state = model.noiseRng().state();
            ProbeResult got[2], want[2];
            for (int i = 0; i < 2; ++i)
                got[i] = runNoiseProbe(model, f.batch, stats, order[i]);
            // The oracle reruns the forward itself, so it goes second,
            // from the same point of the noise stream.
            model.noiseRng().setState(noise_state);
            for (int i = 0; i < 2; ++i)
                want[i] =
                    rerunEverythingProbe(model, f.batch, stats, order[i]);
            for (int i = 0; i < 2; ++i) {
                const std::string where =
                    std::to_string(threads) + " threads, order " +
                    (order[0] == ProbeKind::Forward ? "F" : "B") +
                    (order[1] == ProbeKind::Forward ? "F" : "B") +
                    ", probe " + std::to_string(i);
                EXPECT_TRUE(sameBits(got[i].noise_norm, want[i].noise_norm))
                    << where;
                EXPECT_TRUE(sameBits(got[i].inject_point_norm,
                                     want[i].inject_point_norm))
                    << where;
                ASSERT_EQ(got[i].grad_delta.size(),
                          want[i].grad_delta.size());
                for (size_t l = 0; l < got[i].grad_delta.size(); ++l)
                    EXPECT_TRUE(sameBits(got[i].grad_delta[l],
                                         want[i].grad_delta[l]))
                        << where << ", layer " << l;
            }
        }
    }
}

TEST(NoiseProbeDeathTest, TrainingForwardAfterStatsTripsTheAssert)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Fixture f;
    LlamaModel &model = f.trainer.model();
    const TrainingStats stats =
        collectTrainingStats(model, &f.trainer.optimizer(), f.batch);
    model.forwardLoss(f.batch.tokens, f.batch.targets, f.batch.batch,
                      f.batch.seq);
    EXPECT_DEATH(
        runNoiseProbe(model, f.batch, stats, ProbeKind::Backward),
        "a training forward ran after collectTrainingStats");
}

TEST(NoiseProbe, Theorem42RecoversAKnownLinearMapNorm)
{
    // The probe estimates ||d g / d input|| via random perturbations.
    // For the *backward* stream the map dY_top -> dW_l is linear, so
    // doubling eps must double the response: check linearity.
    Fixture f;
    TrainingStats stats = collectTrainingStats(
        f.trainer.model(), &f.trainer.optimizer(), f.batch);

    ProbeOptions small;
    small.relative_eps = 1e-3;
    ProbeOptions large;
    large.relative_eps = 2e-3;
    // Use the same noise stream for comparable draws.
    ProbeResult a = runNoiseProbe(f.trainer.model(), f.batch, stats,
                                  ProbeKind::Backward, small);
    ProbeResult b = runNoiseProbe(f.trainer.model(), f.batch, stats,
                                  ProbeKind::Backward, large);
    ASSERT_GT(a.noise_norm, 0.0);
    for (size_t l = 0; l < a.grad_delta.size(); ++l) {
        if (a.grad_delta[l] < 1e-12)
            continue;
        const double ratio = b.grad_delta[l] / a.grad_delta[l];
        // Linear in eps (different random directions -> loose bound).
        EXPECT_GT(ratio, 0.8) << "layer " << l;
        EXPECT_LT(ratio, 5.0) << "layer " << l;
    }
}

TEST(NoiseProbe, ForwardProbePerturbsAllLayers)
{
    Fixture f;
    TrainingStats stats = collectTrainingStats(
        f.trainer.model(), &f.trainer.optimizer(), f.batch);
    ProbeResult fwd = runNoiseProbe(f.trainer.model(), f.batch, stats,
                                    ProbeKind::Forward);
    EXPECT_NEAR(fwd.noise_norm, 1e-3 * stats.hidden_norm,
                0.5e-3 * stats.hidden_norm);
    for (size_t l = 0; l < fwd.grad_delta.size(); ++l)
        EXPECT_GT(fwd.grad_delta[l], 0.0) << "layer " << l;
    // Amplification = response per unit relative perturbation.
    auto amp = fwd.relativeAmplification();
    for (size_t l = 0; l < amp.size(); ++l)
        EXPECT_NEAR(amp[l],
                    fwd.grad_delta[l] /
                        (fwd.noise_norm / fwd.inject_point_norm),
                    1e-9);
}

TEST(Divergence, Fp4CostsMoreThanFp8Everywhere)
{
    Fixture f;
    FlopsModel flops(f.trainer.model().registry());
    TrainingStats stats = collectTrainingStats(
        f.trainer.model(), &f.trainer.optimizer(), f.batch);
    ProbeResult bwd = runNoiseProbe(f.trainer.model(), f.batch, stats,
                                    ProbeKind::Backward);
    ProbeResult fwd = runNoiseProbe(f.trainer.model(), f.batch, stats,
                                    ProbeKind::Forward);
    DivergenceAnalyzer analyzer(stats, &bwd, &fwd, flops);

    const LayerScheme fp8 = LayerScheme::uniform(Precision::FP8);
    const LayerScheme fp4 = LayerScheme::uniform(Precision::FP4);
    for (int i = 0; i < f.trainer.model().registry().numLinear(); ++i) {
        EXPECT_GT(analyzer.lossDivergence(i, fp4),
                  analyzer.lossDivergence(i, fp8))
            << "layer " << i;
        EXPECT_GT(analyzer.weightDivergence(i, fp4),
                  analyzer.weightDivergence(i, fp8));
        // BF16 is the zero reference.
        EXPECT_EQ(analyzer.lossDivergence(
                      i, LayerScheme::uniform(Precision::BF16)),
                  0.0);
    }
}

TEST(Divergence, TableShapesAndEfficiency)
{
    Fixture f;
    FlopsModel flops(f.trainer.model().registry());
    TrainingStats stats = collectTrainingStats(
        f.trainer.model(), &f.trainer.optimizer(), f.batch);
    ProbeResult bwd = runNoiseProbe(f.trainer.model(), f.batch, stats,
                                    ProbeKind::Backward);
    ProbeResult fwd = runNoiseProbe(f.trainer.model(), f.batch, stats,
                                    ProbeKind::Forward);
    DivergenceAnalyzer analyzer(stats, &bwd, &fwd, flops);
    DivergenceTable table =
        analyzer.analyze(makeOptionSet(OptionSetKind::Standard));

    EXPECT_EQ(table.numLayers(),
              f.trainer.model().registry().numLinear());
    EXPECT_EQ(table.numOptions(), 4);
    // Efficiencies per layer sum to the layer's FLOP share when the
    // option is all-FP4.
    double sum_e = 0;
    for (int i = 0; i < table.numLayers(); ++i)
        sum_e += table.cell[static_cast<size_t>(i)].back().efficiency;
    EXPECT_NEAR(sum_e, 1.0, 1e-9);
    // Quality is monotone in the option's FP4 fraction per layer.
    for (int i = 0; i < table.numLayers(); ++i) {
        const auto &row = table.cell[static_cast<size_t>(i)];
        EXPECT_LT(row[0].quality, row[3].quality);
    }
}

TEST(Divergence, MetricVariantsDiffer)
{
    Fixture f;
    FlopsModel flops(f.trainer.model().registry());
    TrainingStats stats = collectTrainingStats(
        f.trainer.model(), &f.trainer.optimizer(), f.batch);
    DivergenceAnalyzer analyzer(stats, nullptr, nullptr, flops);
    auto opts = makeOptionSet(OptionSetKind::Simple);

    DivergenceOptions snip_m;
    snip_m.metric = QualityMetric::LossOnly;
    DivergenceOptions abs_m;
    abs_m.metric = QualityMetric::AbsError;
    DivergenceOptions rel_m;
    rel_m.metric = QualityMetric::RelError;

    DivergenceTable a = analyzer.analyze(opts, snip_m);
    DivergenceTable b = analyzer.analyze(opts, abs_m);
    DivergenceTable c = analyzer.analyze(opts, rel_m);
    // All valid but numerically different objectives.
    bool any_diff_ab = false, any_diff_bc = false;
    for (int i = 0; i < a.numLayers(); ++i) {
        any_diff_ab |=
            std::fabs(a.cell[static_cast<size_t>(i)][1].quality -
                      b.cell[static_cast<size_t>(i)][1].quality) >
            1e-15;
        any_diff_bc |=
            std::fabs(b.cell[static_cast<size_t>(i)][1].quality -
                      c.cell[static_cast<size_t>(i)][1].quality) >
            1e-15;
    }
    EXPECT_TRUE(any_diff_ab);
    EXPECT_TRUE(any_diff_bc);
}

TEST(SnipOptimizer, TargetZeroGivesAllFp8TargetOneAllFp4)
{
    // The paper's boundary guarantee (Sec. 5.2).
    Fixture f;
    FlopsModel flops(f.trainer.model().registry());
    TrainingStats stats = collectTrainingStats(
        f.trainer.model(), &f.trainer.optimizer(), f.batch);
    ProbeResult bwd = runNoiseProbe(f.trainer.model(), f.batch, stats,
                                    ProbeKind::Backward);
    ProbeResult fwd = runNoiseProbe(f.trainer.model(), f.batch, stats,
                                    ProbeKind::Forward);
    DivergenceAnalyzer analyzer(stats, &bwd, &fwd, flops);
    DivergenceTable table =
        analyzer.analyze(makeOptionSet(OptionSetKind::Standard));

    SchemeSelection zero = selectScheme(table, 0.0, flops);
    for (const auto &l : zero.scheme.layers)
        EXPECT_TRUE(l == LayerScheme::uniform(Precision::FP8));

    SchemeSelection one = selectScheme(table, 1.0, flops);
    for (const auto &l : one.scheme.layers)
        EXPECT_TRUE(l == LayerScheme::uniform(Precision::FP4));
}

TEST(SnipOptimizer, MeetsIntermediateTargets)
{
    Fixture f;
    FlopsModel flops(f.trainer.model().registry());
    TrainingStats stats = collectTrainingStats(
        f.trainer.model(), &f.trainer.optimizer(), f.batch);
    ProbeResult bwd = runNoiseProbe(f.trainer.model(), f.batch, stats,
                                    ProbeKind::Backward);
    ProbeResult fwd = runNoiseProbe(f.trainer.model(), f.batch, stats,
                                    ProbeKind::Forward);
    DivergenceAnalyzer analyzer(stats, &bwd, &fwd, flops);
    DivergenceTable table =
        analyzer.analyze(makeOptionSet(OptionSetKind::Standard));

    double prev_obj = -1.0;
    for (double target : {0.25, 0.5, 0.75, 0.9}) {
        SchemeSelection sel = selectScheme(table, target, flops);
        EXPECT_GE(sel.fp4_fraction + 1e-6, target) << target;
        // Objective grows with the target (tighter constraint).
        EXPECT_GE(sel.ilp.objective + 1e-15, prev_obj);
        prev_obj = sel.ilp.objective;
    }
}

TEST(SnipOptimizer, PipelineGroupsBalanceStages)
{
    Fixture f;
    FlopsModel flops(f.trainer.model().registry());
    TrainingStats stats = collectTrainingStats(
        f.trainer.model(), &f.trainer.optimizer(), f.batch);
    DivergenceAnalyzer analyzer(stats, nullptr, nullptr, flops);
    DivergenceTable table =
        analyzer.analyze(makeOptionSet(OptionSetKind::Standard));

    // tinyTestModel has 4 blocks; with no explicit split the ILP takes
    // evenStageSplit's (2+2, 2+1+1, 1+1+1+1), never an empty stage.
    const int n_blocks =
        static_cast<int>(f.trainer.model().config().n_blocks);
    for (int stages : {2, 3, 4}) {
        SCOPED_TRACE(std::to_string(stages) + " stages");
        PipelineConstraint pc;
        pc.n_stages = stages;
        IlpProblem p = buildIlp(table, 0.5, flops, pc);
        const std::vector<int> split = evenStageSplit(n_blocks, stages);
        ASSERT_EQ(p.groups.size(), split.size());
        int first = 0;
        double target_sum = 0.0;
        for (size_t s = 0; s < split.size(); ++s) {
            const IlpGroup &g = p.groups[s];
            EXPECT_EQ(g.first, first * kRolesPerBlock);
            EXPECT_EQ(g.count, split[s] * kRolesPerBlock);
            // Each stage's target is its FLOP share of the global one.
            double stage_flops = 0.0;
            for (int i = g.first; i < g.first + g.count; ++i)
                stage_flops += flops.layerFlops()[static_cast<size_t>(i)];
            EXPECT_NEAR(g.target, 0.5 * stage_flops / flops.totalFlops(),
                        1e-12);
            target_sum += g.target;
            first += split[s];
        }
        // Per-stage targets sum to the global target.
        EXPECT_NEAR(target_sum, 0.5, 1e-9);

        SchemeSelection sel = selectScheme(table, 0.5, flops, {}, pc);
        // Each stage's local FP4 fraction is >= target within its flops.
        for (const auto &g : p.groups) {
            double ge = 0;
            for (int i = g.first; i < g.first + g.count; ++i) {
                ge += flops.efficiencyContribution(
                    i, sel.scheme.layers[static_cast<size_t>(i)]);
            }
            EXPECT_GE(ge + 1e-9, g.target);
        }
    }
}

TEST(Controller, UpdatesOnCadenceAndAppliesScheme)
{
    Fixture f;
    SnipController::Config cc;
    cc.target_fp4_fraction = 0.5;
    cc.update_interval = 3;
    SnipController controller(cc);

    EXPECT_FALSE(controller.hasSelection());
    // First call triggers: no scheme has been selected yet.
    EXPECT_TRUE(controller.maybeUpdate(f.trainer.model(),
                                       &f.trainer.optimizer(), f.batch,
                                       5));
    EXPECT_TRUE(controller.hasSelection());
    // Non-multiple step: no update.
    EXPECT_FALSE(controller.maybeUpdate(f.trainer.model(),
                                        &f.trainer.optimizer(), f.batch,
                                        7));
    // Multiple of the interval: update.
    EXPECT_TRUE(controller.maybeUpdate(f.trainer.model(),
                                       &f.trainer.optimizer(), f.batch,
                                       9));

    const SchemeSelection &sel = controller.lastSelection();
    EXPECT_GE(sel.fp4_fraction + 1e-6, 0.5);
    EXPECT_TRUE(f.trainer.model().currentScheme() == sel.scheme);
    EXPECT_EQ(controller.lastOverhead().extra_forwards, 1);
    EXPECT_EQ(controller.lastOverhead().extra_backwards, 3);
}

TEST(Controller, TrainingWithControllerStaysFinite)
{
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    SnipController::Config cc;
    cc.target_fp4_fraction = 0.5;
    cc.update_interval = 10;
    SnipController controller(cc);
    auto losses = trainer.train(25, &controller);
    for (double l : losses)
        EXPECT_TRUE(std::isfinite(l));
    EXPECT_TRUE(controller.hasSelection());
}

TEST(FlopsModel, ThroughputRatiosAndTimes)
{
    EXPECT_EQ(precisionThroughput(Precision::BF16), 1.0);
    EXPECT_EQ(precisionThroughput(Precision::FP8), 2.0);
    EXPECT_EQ(precisionThroughput(Precision::FP4), 4.0);

    LayerRegistry reg(tinyTestModel());
    FlopsModel fm(reg);
    const size_t n = static_cast<size_t>(reg.numLinear());
    // All-FP4 runs 4x faster than all-BF16.
    double t_bf16 = fm.totalTime(
        PrecisionScheme::uniform(n, Precision::BF16));
    double t_fp4 =
        fm.totalTime(PrecisionScheme::uniform(n, Precision::FP4));
    EXPECT_NEAR(t_bf16 / t_fp4, 4.0, 1e-9);
    EXPECT_NEAR(t_bf16, fm.totalFlops(), 1e-6);
}

} // namespace
} // namespace snip
