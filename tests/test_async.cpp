/**
 * @file
 * The async scheme-update subsystem: TaskThread, the background
 * SchemeUpdateService, and the controller's deterministic handoff —
 * including async-vs-inline equivalence, the mid-interval checkpoint
 * round trip, and a controller reused across checkpoint loads.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <mutex>
#include <vector>

#include "async/scheme_service.h"
#include "runtime/task_thread.h"
#include "train/checkpoint.h"
#include "train/presets.h"
#include "testing_util.h"

namespace snip {
namespace {

TEST(TaskThread, DestructorRunsEveryTaskFifo)
{
    std::vector<int> order;
    std::mutex mu;
    {
        runtime::TaskThread worker;
        for (int i = 0; i < 16; ++i) {
            worker.submit([&, i] {
                std::lock_guard<std::mutex> lock(mu);
                order.push_back(i);
            });
        }
    }
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
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

/** Train @p steps of @p trainer under @p controller; returns per-step
 *  losses and the model scheme active after every step. */
std::pair<std::vector<double>, std::vector<PrecisionScheme>>
trainWith(Trainer &trainer, SnipController &controller, int64_t steps)
{
    std::vector<double> losses;
    std::vector<PrecisionScheme> schemes;
    for (int64_t i = 0; i < steps; ++i) {
        losses.push_back(trainer.trainStep(&controller));
        schemes.push_back(trainer.model().currentScheme());
    }
    return {losses, schemes};
}

/** trainWith() on a fresh tinyTestModel trainer and a controller built
 *  from @p cc. */
std::pair<std::vector<double>, std::vector<PrecisionScheme>>
runControlled(const SnipController::Config &cc, int64_t steps)
{
    Trainer trainer(trainerPreset(tinyTestModel()));
    SnipController controller(cc);
    return trainWith(trainer, controller, steps);
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

    // Step 0 snapshots (no scheme selected yet) with apply boundary at 4.
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

TEST(AsyncController, ReusedControllerLoadsLikeAFreshOne)
{
    // After loadCheckpoint, a controller that already published epochs
    // must train exactly like a fresh controller loaded from the same
    // file: its epochs restart from the file's, and none may be
    // answered by a result published before the load.
    const std::string own = "test_async_reload_own.bin";
    const std::string other = "test_async_reload_other.bin";
    SnipController::Config cc;
    cc.target_fp4_fraction = 0.5;
    cc.update_interval = 2;
    cc.async = true;
    cc.apply_delay = 0;
    const TrainerConfig cfg = trainerPreset(tinyTestModel());

    // Another run's file at epoch 2: other weights, other data.
    TrainerConfig other_cfg = trainerPreset(tinyTestModel(), 43);
    other_cfg.data_seed = 99;
    {
        Trainer t(other_cfg);
        SnipController c(cc);
        trainWith(t, c, 4);
        ASSERT_EQ(c.epoch(), 2u);
        ASSERT_TRUE(saveCheckpoint(t, other, &c));
    }

    // The reused pair: saved at step 0, then epochs 1-3 published.
    Trainer trainer(cfg);
    SnipController controller(cc);
    ASSERT_TRUE(saveCheckpoint(trainer, own, &controller));
    trainWith(trainer, controller, 6);
    ASSERT_EQ(controller.epoch(), 3u);

    // Its own step-0 file restarts the epochs below the slot's; the
    // other run's epoch-2 file is then loaded after epoch 3 was
    // published again.
    for (const std::string &path : {own, other}) {
        ASSERT_TRUE(loadCheckpoint(trainer, path, &controller)) << path;
        const auto [losses, schemes] = trainWith(trainer, controller, 6);

        Trainer fresh(cfg);
        SnipController fresh_controller(cc);
        ASSERT_TRUE(loadCheckpoint(fresh, path, &fresh_controller))
            << path;
        const auto [want_losses, want_schemes] =
            trainWith(fresh, fresh_controller, 6);

        EXPECT_EQ(losses, want_losses) << path;
        ASSERT_EQ(schemes.size(), want_schemes.size());
        for (size_t i = 0; i < schemes.size(); ++i)
            EXPECT_TRUE(schemes[i] == want_schemes[i])
                << path << " step " << i;
        EXPECT_EQ(controller.epoch(), fresh_controller.epoch()) << path;
    }
    std::remove(own.c_str());
    std::remove(other.c_str());
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
