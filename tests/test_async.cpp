/**
 * @file
 * The async scheme-update subsystem: TaskThread, the persistent solve
 * cache, the background SchemeUpdateService, and the controller's
 * deterministic handoff — including async-vs-inline equivalence and
 * the mid-interval checkpoint round trip.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <vector>

#include "async/scheme_service.h"
#include "ilp/solve_cache.h"
#include "runtime/task_thread.h"
#include "train/checkpoint.h"
#include "train/presets.h"
#include "testing_util.h"

namespace snip {
namespace {

TEST(TaskThread, RunsTasksFifoAndDrains)
{
    runtime::TaskThread worker;
    EXPECT_EQ(worker.submitted(), 0);
    std::vector<int> order;
    std::mutex mu;
    for (int i = 0; i < 16; ++i) {
        worker.submit([&, i] {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(i);
        });
    }
    worker.drain();
    EXPECT_EQ(worker.submitted(), 16);
    EXPECT_EQ(worker.completed(), 16);
    EXPECT_FALSE(worker.busy());
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(TaskThread, DestructorDrainsSubmittedWork)
{
    std::atomic<int> ran{0};
    {
        runtime::TaskThread worker;
        for (int i = 0; i < 8; ++i)
            worker.submit([&] { ++ran; });
    }
    EXPECT_EQ(ran.load(), 8);
}

/** A 2-item / 2-option instance with a unique optimum. */
IlpProblem
tinyProblem(double target = 0.5)
{
    IlpProblem p;
    p.quality = {{0.0, 1.0}, {0.0, 0.3}};
    p.efficiency = {{0.0, 0.5}, {0.0, 0.5}};
    p.target = target;
    return p;
}

TEST(SolveCache, MissThenHitReturnsIdenticalSolution)
{
    SolveCache cache;
    IlpSolveOptions opts;
    opts.cache = &cache;
    const IlpProblem p = tinyProblem();

    IlpSolution fresh = solveIlp(p, opts);
    EXPECT_TRUE(fresh.feasible);
    EXPECT_FALSE(fresh.from_cache);
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.size(), 1u);

    IlpSolution again = solveIlp(p, opts);
    EXPECT_TRUE(again.from_cache);
    EXPECT_EQ(again.choice, fresh.choice);
    EXPECT_DOUBLE_EQ(again.objective, fresh.objective);
    EXPECT_EQ(cache.hits(), 1);

    // A different target is a different content hash.
    IlpSolution other = solveIlp(tinyProblem(0.9), opts);
    EXPECT_FALSE(other.from_cache);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SolveCache, PersistsAcrossInstances)
{
    const std::string path = "test_solve_cache_roundtrip.bin";
    std::remove(path.c_str());
    const IlpProblem p = tinyProblem();

    {
        SolveCache cache(path);
        IlpSolveOptions opts;
        opts.cache = &cache;
        IlpSolution fresh = solveIlp(p, opts);
        EXPECT_FALSE(fresh.from_cache);
    }
    {
        SolveCache cache(path); // loads from disk
        EXPECT_EQ(cache.size(), 1u);
        IlpSolveOptions opts;
        opts.cache = &cache;
        IlpSolution warm = solveIlp(p, opts);
        EXPECT_TRUE(warm.from_cache);
        EXPECT_TRUE(warm.feasible);
        double obj = 0.0;
        EXPECT_TRUE(verifySolution(p, warm.choice, &obj, nullptr));
        EXPECT_DOUBLE_EQ(obj, warm.objective);
    }
    std::remove(path.c_str());
}

TEST(SolveCache, CorruptFileDegradesToEmpty)
{
    const std::string path = "test_solve_cache_corrupt.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a solve cache";
    }
    SolveCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());
}

TEST(SchemeService, InlineAndAsyncPublishIdenticalResults)
{
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    trainer.train(5);
    Batch batch = trainer.nextBatch();

    // One snapshot, solved through both service modes.
    SnipController::Config cc;
    cc.update_interval = 100;
    SnipController probe_controller(cc);
    SchemeSelection inline_sel = probe_controller.updateScheme(
        trainer.model(), &trainer.optimizer(), batch);

    // The async path must reproduce the same scheme for the same
    // snapshot: run a fresh identical trainer through an async
    // controller with apply_delay = 0.
    TrainerConfig cfg2 = trainerPreset(tinyTestModel());
    Trainer trainer2(cfg2);
    trainer2.train(5);
    Batch batch2 = trainer2.nextBatch();
    SnipController::Config ca = cc;
    ca.async = true;
    ca.apply_delay = 0;
    SnipController async_controller(ca);
    EXPECT_TRUE(async_controller.maybeUpdate(
        trainer2.model(), &trainer2.optimizer(), batch2, 5));
    EXPECT_TRUE(async_controller.lastSelection().scheme ==
                inline_sel.scheme);
    EXPECT_FALSE(async_controller.hasPendingUpdate());
}

/** Train @p steps with a controller built from @p cc; returns per-step
 *  losses and the model scheme active after every step. */
std::pair<std::vector<double>, std::vector<PrecisionScheme>>
runControlled(const SnipController::Config &cc, int64_t steps)
{
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    SnipController controller(cc);
    std::vector<double> losses;
    std::vector<PrecisionScheme> schemes;
    for (int64_t i = 0; i < steps; ++i) {
        losses.push_back(trainer.trainStep(&controller));
        schemes.push_back(trainer.model().currentScheme());
    }
    return {losses, schemes};
}

TEST(AsyncController, Delay0IsBitIdenticalToInline)
{
    SnipController::Config inline_cc;
    inline_cc.target_fp4_fraction = 0.5;
    inline_cc.update_interval = 6;
    auto [inline_losses, inline_schemes] = runControlled(inline_cc, 20);

    SnipController::Config async_cc = inline_cc;
    async_cc.async = true;
    async_cc.apply_delay = 0;
    auto [async_losses, async_schemes] = runControlled(async_cc, 20);

    EXPECT_EQ(inline_losses, async_losses);
    ASSERT_EQ(inline_schemes.size(), async_schemes.size());
    for (size_t i = 0; i < inline_schemes.size(); ++i)
        EXPECT_TRUE(inline_schemes[i] == async_schemes[i]) << i;
}

TEST(AsyncController, DeterministicAcrossThreadCounts)
{
    GlobalPoolGuard pool_guard;
    SnipController::Config cc;
    cc.target_fp4_fraction = 0.5;
    cc.update_interval = 6;
    cc.async = true;
    cc.apply_delay = 3;

    runtime::setGlobalThreadCount(1);
    auto [ref_losses, ref_schemes] = runControlled(cc, 20);
    EXPECT_FALSE(ref_losses.empty());

    for (int threads : {2, 8}) {
        runtime::setGlobalThreadCount(threads);
        auto [losses, schemes] = runControlled(cc, 20);
        EXPECT_EQ(ref_losses, losses) << threads << " threads";
        ASSERT_EQ(ref_schemes.size(), schemes.size());
        for (size_t i = 0; i < schemes.size(); ++i) {
            EXPECT_TRUE(ref_schemes[i] == schemes[i])
                << "step " << i << " @ " << threads << " threads";
        }
    }
}

TEST(AsyncController, AppliesExactlyAtTheDeadline)
{
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    const PrecisionScheme initial = trainer.model().currentScheme();

    SnipController::Config cc;
    cc.target_fp4_fraction = 0.5;
    cc.update_interval = 100;
    cc.async = true;
    cc.apply_delay = 4;
    SnipController controller(cc);

    // Step 0 snapshots (update_at_start) with apply boundary at 4.
    trainer.trainStep(&controller);
    EXPECT_TRUE(controller.hasPendingUpdate());
    EXPECT_EQ(controller.pendingApplyStep(), 4);
    EXPECT_FALSE(controller.hasSelection());

    for (int64_t step = 1; step < 4; ++step) {
        trainer.trainStep(&controller);
        EXPECT_TRUE(trainer.model().currentScheme() == initial)
            << "scheme adopted early at step " << step;
    }
    trainer.trainStep(&controller); // step 4: the deadline
    EXPECT_FALSE(controller.hasPendingUpdate());
    EXPECT_TRUE(controller.hasSelection());
    EXPECT_TRUE(trainer.model().currentScheme() ==
                controller.lastSelection().scheme);
    EXPECT_FALSE(trainer.model().currentScheme() == initial);

    const UpdateOverhead &oh = controller.lastOverhead();
    EXPECT_EQ(oh.extra_forwards, 1);
    EXPECT_EQ(oh.extra_backwards, 3);
    EXPECT_GT(oh.work_seconds, 0.0);
    EXPECT_GE(oh.hidden_seconds, 0.0);
    EXPECT_GE(oh.exposed_seconds, 0.0);
    EXPECT_EQ(oh.epoch, 1u);
    EXPECT_EQ(controller.totals().updates, 1);
}

TEST(AsyncController, WarmSolveCacheHitsEveryRepeatedProblem)
{
    const std::string path = "test_async_warm_cache.bin";
    std::remove(path.c_str());

    auto run = [&](SolveCache &cache) {
        SnipController::Config cc;
        cc.target_fp4_fraction = 0.5;
        cc.update_interval = 6;
        cc.async = true;
        cc.apply_delay = 2;
        cc.solve.cache = &cache;
        TrainerConfig cfg = trainerPreset(tinyTestModel());
        Trainer trainer(cfg);
        SnipController controller(cc);
        std::vector<double> losses;
        for (int64_t i = 0; i < 15; ++i)
            losses.push_back(trainer.trainStep(&controller));
        return std::make_pair(losses, controller.totals());
    };

    SolveCache cold(path);
    auto [cold_losses, cold_totals] = run(cold);
    EXPECT_EQ(cold_totals.updates, 3); // steps 0, 6, 12
    EXPECT_EQ(cold_totals.cache_hits, 0);
    EXPECT_EQ(cold.size(), 3u);

    // Deterministic training re-poses bit-identical problems: the warm
    // run must hit for every repeated hash and train identically.
    SolveCache warm(path);
    EXPECT_EQ(warm.size(), 3u);
    auto [warm_losses, warm_totals] = run(warm);
    EXPECT_EQ(warm_totals.updates, 3);
    EXPECT_EQ(warm_totals.cache_hits, 3);
    EXPECT_EQ(warm.hits(), 3);
    EXPECT_EQ(cold_losses, warm_losses);
    std::remove(path.c_str());
}

TEST(AsyncController, CheckpointRoundTripResumesMidInterval)
{
    const std::string path = "test_async_ckpt_midinterval.bin";
    std::remove(path.c_str());

    SnipController::Config cc;
    cc.target_fp4_fraction = 0.5;
    cc.update_interval = 8;
    cc.async = true;
    cc.apply_delay = 4;
    TrainerConfig cfg = trainerPreset(tinyTestModel());

    // Reference run: checkpoint at step 10 — a snapshot was taken at
    // step 8 and its update is still in flight (applies at 12) — then
    // keep training to 20.
    Trainer ref(cfg);
    SnipController ref_controller(cc);
    for (int64_t i = 0; i < 10; ++i)
        ref.trainStep(&ref_controller);
    EXPECT_TRUE(ref_controller.hasPendingUpdate());
    EXPECT_EQ(ref_controller.pendingApplyStep(), 12);
    ASSERT_TRUE(saveCheckpoint(ref, path, &ref_controller));
    const uint64_t epoch_at_save = ref_controller.epoch();

    std::vector<double> ref_losses;
    std::vector<PrecisionScheme> ref_schemes;
    for (int64_t i = 0; i < 10; ++i) {
        ref_losses.push_back(ref.trainStep(&ref_controller));
        ref_schemes.push_back(ref.model().currentScheme());
    }

    // Resumed run: fresh trainer + controller from the checkpoint.
    Trainer resumed(cfg);
    SnipController resumed_controller(cc);
    ASSERT_TRUE(loadCheckpoint(resumed, path, &resumed_controller));
    EXPECT_EQ(resumed.step(), 10);
    EXPECT_TRUE(resumed_controller.hasPendingUpdate());
    EXPECT_EQ(resumed_controller.pendingApplyStep(), 12);
    EXPECT_EQ(resumed_controller.epoch(), epoch_at_save);

    std::vector<double> resumed_losses;
    std::vector<PrecisionScheme> resumed_schemes;
    for (int64_t i = 0; i < 10; ++i) {
        resumed_losses.push_back(
            resumed.trainStep(&resumed_controller));
        resumed_schemes.push_back(resumed.model().currentScheme());
    }

    EXPECT_EQ(ref_losses, resumed_losses);
    for (size_t i = 0; i < ref_schemes.size(); ++i)
        EXPECT_TRUE(ref_schemes[i] == resumed_schemes[i]) << i;
    std::remove(path.c_str());
}

TEST(Checkpoint, ControllerlessFilesStayCompatible)
{
    const std::string path = "test_async_ckpt_plain.bin";
    std::remove(path.c_str());
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    trainer.train(4);

    // Old-style save (no controller): loads with or without one.
    ASSERT_TRUE(saveCheckpoint(trainer, path));
    Trainer plain(cfg);
    EXPECT_TRUE(loadCheckpoint(plain, path));
    EXPECT_EQ(plain.step(), 4);

    SnipController::Config cc;
    SnipController controller(cc);
    Trainer with_ctl(cfg);
    EXPECT_TRUE(loadCheckpoint(with_ctl, path, &controller));
    EXPECT_FALSE(controller.hasPendingUpdate());

    // Controller-bearing save loads fine without a controller.
    ASSERT_TRUE(saveCheckpoint(trainer, path, &controller));
    Trainer ignore_ctl(cfg);
    EXPECT_TRUE(loadCheckpoint(ignore_ctl, path));
    EXPECT_EQ(ignore_ctl.step(), 4);
    std::remove(path.c_str());
}

} // namespace
} // namespace snip
