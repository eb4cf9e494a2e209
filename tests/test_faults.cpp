/**
 * @file
 * Fault-injection framework + crash/overload hardening contracts:
 * schedules parse and fire exactly as specified (and probabilistic
 * schedules are bit-reproducible), a disarmed fault point is free (no
 * allocations, training bit-identical across thread counts), every
 * checkpoint corruption fails the load cleanly without half-restoring,
 * torn writes recover through the rotation chain bit-exactly, a
 * failed scheme solve resolves as a skip, and the serve engine
 * survives overload, deadlines and injected allocation faults with
 * zero page leaks.
 *
 * The zero-overhead assertions count heap allocations through
 * alloc_counter.h.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/controller.h"
#include "nn/model.h"
#include "runtime/fault_injection.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "telemetry/telemetry.h"
#include "alloc_counter.h"
#include "testing_util.h"
#include "train/checkpoint.h"
#include "train/presets.h"
#include "train/trainer.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace snip {
namespace {

/** Restores whatever SNIP_FAULT asks for when a fault-arming test
 *  ends (disarmed when the variable is unset). */
struct FaultGuard
{
    FaultGuard() = default;
    FaultGuard(const FaultGuard &) = delete;
    FaultGuard &operator=(const FaultGuard &) = delete;
    ~FaultGuard()
    {
        fault::configureFromSpec(std::getenv("SNIP_FAULT"));
    }
};

bool
readFileBytes(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return false;
    out->assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
    return true;
}

bool
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return out.good();
}

void
removeCheckpointChain(const std::string &path)
{
    std::remove(path.c_str());
    for (int i = 1; i <= 8; ++i)
        std::remove((path + "." + std::to_string(i)).c_str());
    std::remove((path + ".tmp").c_str());
    std::remove(
        (path + ".tmp." + std::to_string(getpid())).c_str());
}

ModelConfig
microModel()
{
    ModelConfig m = tinyTestModel();
    m.n_blocks = 2;
    m.d_model = 16;
    m.ffn_hidden = 24;
    m.vocab_size = 32;
    m.n_heads = 4;
    m.n_kv_heads = 2;
    m.max_seq = 32;
    m.init_std = 0.3f;
    return m;
}

std::vector<int32_t>
somePrompt(int64_t n, int64_t vocab, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int32_t> t;
    for (int64_t i = 0; i < n; ++i)
        t.push_back(static_cast<int32_t>(
            rng.nextBelow(static_cast<uint64_t>(vocab))));
    return t;
}

// ------------------------------------------------------------ framework

TEST(Fault, SpecParsing)
{
    FaultGuard fault_guard;
    EXPECT_TRUE(fault::configureFromSpec("off"));
    EXPECT_FALSE(fault::enabled());
    EXPECT_TRUE(fault::configureFromSpec(nullptr));
    EXPECT_FALSE(fault::enabled());
    EXPECT_TRUE(fault::configureFromSpec("ckpt.write:3"));
    EXPECT_TRUE(fault::enabled());
    EXPECT_TRUE(fault::configureFromSpec(
        "ckpt.rename:2,kv.alloc:every-7,serve.admit:p=0.1@42"));
    EXPECT_TRUE(fault::enabled());

    // Malformed specs leave the installed schedule unchanged.
    EXPECT_FALSE(fault::configureFromSpec("no-trigger"));
    EXPECT_FALSE(fault::configureFromSpec("site:"));
    EXPECT_FALSE(fault::configureFromSpec(":3"));
    EXPECT_FALSE(fault::configureFromSpec("site:every-0"));
    EXPECT_FALSE(fault::configureFromSpec("site:p=1.5"));
    EXPECT_FALSE(fault::configureFromSpec("site:p=x"));
    EXPECT_FALSE(fault::configureFromSpec("site:p=nan"));
    EXPECT_FALSE(fault::configureFromSpec("site:p=-nan"));
    EXPECT_FALSE(fault::configureFromSpec("site:p=inf"));
    // Counts and seeds past 2^64 - 1 are refused, not wrapped.
    EXPECT_TRUE(fault::configureFromSpec("site:18446744073709551615"));
    EXPECT_TRUE(fault::configureFromSpec("site:every-18446744073709551615"));
    EXPECT_TRUE(
        fault::configureFromSpec("site:p=0.5@18446744073709551615"));
    EXPECT_FALSE(fault::configureFromSpec("site:18446744073709551616"));
    EXPECT_FALSE(fault::configureFromSpec("site:18446744073709551618"));
    EXPECT_FALSE(fault::configureFromSpec("site:every-18446744073709551617"));
    EXPECT_FALSE(fault::configureFromSpec("site:99999999999999999999"));
    EXPECT_FALSE(
        fault::configureFromSpec("site:p=0.5@18446744073709551616"));
    EXPECT_TRUE(fault::enabled());

    fault::reset();
    EXPECT_FALSE(fault::enabled());
    EXPECT_EQ(fault::totalInjected(), 0);
}

TEST(Fault, NthAndEveryKSchedulesAreExact)
{
    FaultGuard fault_guard;
    ASSERT_TRUE(fault::configureFromSpec("a:3,b:every-2"));

    std::vector<bool> a_fired, b_fired;
    for (int i = 0; i < 6; ++i) {
        a_fired.push_back(SNIP_FAULT_POINT("a"));
        b_fired.push_back(SNIP_FAULT_POINT("b"));
    }
    EXPECT_EQ(a_fired, (std::vector<bool>{
                           false, false, true, false, false, false}));
    EXPECT_EQ(b_fired, (std::vector<bool>{
                           false, true, false, true, false, true}));
    EXPECT_EQ(fault::siteHits("a"), 6);
    EXPECT_EQ(fault::siteInjected("a"), 1);
    EXPECT_EQ(fault::siteInjected("b"), 3);
    EXPECT_EQ(fault::totalInjected(), 4);

    // Unscheduled sites never fire.
    EXPECT_FALSE(SNIP_FAULT_POINT("unscheduled"));
    EXPECT_EQ(fault::siteInjected("unscheduled"), 0);
}

TEST(Fault, ProbabilisticScheduleIsBitReproducible)
{
    FaultGuard fault_guard;
    const char *spec = "p.site:p=0.4@1234";
    std::vector<bool> first, second;
    ASSERT_TRUE(fault::configureFromSpec(spec));
    for (int i = 0; i < 200; ++i)
        first.push_back(SNIP_FAULT_POINT("p.site"));
    ASSERT_TRUE(fault::configureFromSpec(spec));
    for (int i = 0; i < 200; ++i)
        second.push_back(SNIP_FAULT_POINT("p.site"));
    EXPECT_EQ(first, second)
        << "probabilistic schedule is not a pure function of the spec";

    // Sanity: p=0.4 over 200 hits fires sometimes, not always.
    const int64_t injected = fault::siteInjected("p.site");
    EXPECT_GT(injected, 0);
    EXPECT_LT(injected, 200);
}

TEST(Fault, DisarmedFaultPointIsFree)
{
    FaultGuard fault_guard;
    fault::reset();
    const int64_t allocs = allocDelta([] {
        for (int i = 0; i < 20000; ++i)
            if (SNIP_FAULT_POINT("hot.site"))
                std::abort(); // unreachable: nothing is armed
    });
    EXPECT_EQ(allocs, 0);
    EXPECT_EQ(fault::totalInjected(), 0);
}

TEST(Fault, OffModeTrainingBitIdenticalAcrossThreadCounts)
{
    FaultGuard fault_guard;
    GlobalPoolGuard pool_guard;
    fault::reset();

    TrainerConfig cfg = trainerPreset(tinyTestModel());
    std::vector<double> ref;
    for (int threads : {1, 2, 8}) {
        runtime::setGlobalThreadCount(threads);
        Trainer trainer(cfg);
        const std::vector<double> losses = trainer.train(6);
        if (ref.empty())
            ref = losses;
        else
            EXPECT_EQ(losses, ref)
                << "faults-off training diverged at " << threads
                << " threads";
    }
    ASSERT_FALSE(ref.empty());
}

// ----------------------------------------------------------- checkpoint

TEST(FaultCheckpoint, StatusReportsWhy)
{
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    CheckpointStatus status = CheckpointStatus::Ok;
    EXPECT_FALSE(
        loadCheckpoint(trainer, "no_such_ckpt.bin", nullptr, &status));
    EXPECT_EQ(status, CheckpointStatus::FileMissing);
    EXPECT_STREQ(checkpointStatusName(status), "file_missing");
}

TEST(FaultCheckpoint, CorruptionMatrixNeverHalfRestores)
{
    const std::string path = "test_faults_corrupt.ckpt";
    removeCheckpointChain(path);
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    trainer.train(3);
    CheckpointWriteOptions opts;
    opts.durable = false;
    ASSERT_TRUE(saveCheckpoint(trainer, path, nullptr, nullptr, opts));
    std::string good;
    ASSERT_TRUE(readFileBytes(path, &good));
    const size_t size = good.size();
    ASSERT_GT(size, 64u);

    // Truncation at every region boundary: empty, mid-magic, header,
    // tensor payload, just before / inside the CRC footer.
    const size_t cuts[] = {0,        7,        16,       size / 4,
                           size / 2, size - 25, size - 24, size - 9,
                           size - 1};
    for (size_t cut : cuts) {
        ASSERT_TRUE(writeFileBytes(path, good.substr(0, cut)));
        Trainer fresh(cfg);
        CheckpointStatus status = CheckpointStatus::Ok;
        EXPECT_FALSE(loadCheckpoint(fresh, path, nullptr, &status))
            << "load survived truncation to " << cut << " bytes";
        EXPECT_NE(status, CheckpointStatus::Ok);
    }

    // Single-bit flips across the image: header, payload, footer.
    const size_t flips[] = {2,        9,        size / 3,
                            size / 2, size - 30, size - 4};
    for (size_t flip : flips) {
        std::string bad = good;
        bad[flip] = static_cast<char>(bad[flip] ^ 0x20);
        ASSERT_TRUE(writeFileBytes(path, bad));
        Trainer fresh(cfg);
        CheckpointStatus status = CheckpointStatus::Ok;
        EXPECT_FALSE(loadCheckpoint(fresh, path, nullptr, &status))
            << "load survived a bit flip at offset " << flip;
        EXPECT_NE(status, CheckpointStatus::Ok);
    }

    // Never half-restore: a trainer whose load failed trains exactly
    // like one that never saw the file.
    ASSERT_TRUE(
        writeFileBytes(path, good.substr(0, size / 2)));
    Trainer touched(cfg);
    EXPECT_FALSE(loadCheckpoint(touched, path));
    Trainer untouched(cfg);
    EXPECT_EQ(touched.train(3), untouched.train(3));

    std::string flipped = good;
    flipped[size / 2] = static_cast<char>(flipped[size / 2] ^ 0x01);
    ASSERT_TRUE(writeFileBytes(path, flipped));
    Trainer touched2(cfg);
    EXPECT_FALSE(loadCheckpoint(touched2, path));
    Trainer untouched2(cfg);
    EXPECT_EQ(touched2.train(3), untouched2.train(3));

    removeCheckpointChain(path);
}

TEST(FaultCheckpoint, OutdatedVersionsAreRefused)
{
    // A v2 image was a v3 payload without the CRC footer (v1 also
    // lacked the RNG states). Re-stamping a fresh image as either must
    // be refused as outdated and leave the trainer as it was.
    const std::string path = "test_faults_outdated.ckpt";
    removeCheckpointChain(path);
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    trainer.train(3);
    CheckpointWriteOptions opts;
    opts.durable = false;
    ASSERT_TRUE(saveCheckpoint(trainer, path, nullptr, nullptr, opts));
    std::string image;
    ASSERT_TRUE(readFileBytes(path, &image));
    constexpr size_t kFooterBytes = 24;
    ASSERT_GT(image.size(), kFooterBytes + sizeof(uint64_t));

    for (const uint64_t magic :
         {0x534E4950434B5032ull, 0x534E4950434B5031ull}) {
        std::string old = image.substr(0, image.size() - kFooterBytes);
        std::memcpy(&old[0], &magic, sizeof(magic));
        ASSERT_TRUE(writeFileBytes(path, old));
        Trainer touched(cfg);
        CheckpointStatus status = CheckpointStatus::Ok;
        EXPECT_FALSE(loadCheckpoint(touched, path, nullptr, &status));
        EXPECT_EQ(status, CheckpointStatus::OutdatedVersion);
        Trainer untouched(cfg);
        EXPECT_EQ(touched.train(3), untouched.train(3));
    }
    removeCheckpointChain(path);
}

TEST(FaultCheckpoint, CraftedSchemeLengthIsRefusedWithoutSizingByIt)
{
    // A CRC-valid image whose scheme claims 2^20 layers must be refused
    // before anything is sized by the claim, and leave the trainer as
    // it was. One micro block keeps the whole image, which the load
    // reads in one piece, under the 64 KiB allocation bound.
    const std::string path = "test_faults_crafted.ckpt";
    removeCheckpointChain(path);
    ModelConfig mc = microModel();
    mc.n_blocks = 1;
    TrainerConfig cfg = trainerPreset(mc);
    Trainer trainer(cfg);
    trainer.train(1);
    CheckpointWriteOptions opts;
    opts.durable = false;
    ASSERT_TRUE(saveCheckpoint(trainer, path, nullptr, nullptr, opts));
    std::string image;
    ASSERT_TRUE(readFileBytes(path, &image));
    constexpr size_t kBound = size_t{64} << 10;
    constexpr size_t kFooterBytes = 24;
    // Magic, parameter count, step, optimizer step, lr, then the
    // scheme's layer count.
    constexpr size_t kLayerCountAt = 5 * sizeof(uint64_t);
    ASSERT_LT(image.size(), kBound);
    uint64_t n_layers = 0;
    std::memcpy(&n_layers, &image[kLayerCountAt], sizeof(n_layers));
    ASSERT_EQ(n_layers, static_cast<uint64_t>(
                            trainer.model().registry().numLinear()));
    const uint64_t claim = uint64_t{1} << 20;
    std::memcpy(&image[kLayerCountAt], &claim, sizeof(claim));
    const size_t payload = image.size() - kFooterBytes;
    const uint64_t crc = crc32(image.data(), payload);
    std::memcpy(&image[payload + 2 * sizeof(uint64_t)], &crc, sizeof(crc));
    ASSERT_TRUE(writeFileBytes(path, image));

    Trainer touched(cfg);
    CheckpointStatus status = CheckpointStatus::Ok;
    bool loaded = true;
    ::testing::internal::CaptureStderr();
    const size_t largest = largestAllocDuring(
        [&] { loaded = loadCheckpoint(touched, path, nullptr, &status); });
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(loaded);
    EXPECT_EQ(status, CheckpointStatus::Malformed);
    EXPECT_NE(log.find("[warn]"), std::string::npos) << log;
    EXPECT_LE(largest, kBound);
    Trainer untouched(cfg);
    EXPECT_EQ(touched.train(2), untouched.train(2));
    removeCheckpointChain(path);
}

TEST(FaultCheckpoint, TornWriteRecoversThroughRotationBitExactly)
{
    FaultGuard fault_guard;
    const std::string path = "test_faults_torn.ckpt";
    removeCheckpointChain(path);
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    CheckpointWriteOptions opts;
    opts.keep = 2;
    opts.durable = false;

    Trainer trainer(cfg);
    trainer.train(3);
    ASSERT_TRUE(saveCheckpoint(trainer, path, nullptr, nullptr, opts));
    trainer.train(2);
    ASSERT_TRUE(saveCheckpoint(trainer, path, nullptr, nullptr, opts));

    // The newest intact checkpoint (step 5) is the recovery target.
    Trainer ref(cfg);
    ASSERT_TRUE(loadCheckpoint(ref, path));
    const std::vector<double> expect = ref.train(4);

    // The third save is torn mid-publish: the final path holds a
    // truncated image, the previous checkpoint was already rotated.
    trainer.train(2);
    ASSERT_TRUE(fault::configureFromSpec("ckpt.torn:1"));
    CheckpointStatus status = CheckpointStatus::Ok;
    EXPECT_FALSE(
        saveCheckpoint(trainer, path, nullptr, &status, opts));
    EXPECT_EQ(status, CheckpointStatus::TornWrite);
    EXPECT_EQ(fault::siteInjected("ckpt.torn"), 1);
    fault::reset();

    // Direct load fails; the fallback walks to <path>.1 and the
    // resumed trajectory is bit-exact.
    Trainer direct(cfg);
    EXPECT_FALSE(loadCheckpoint(direct, path));
    Trainer recovered(cfg);
    std::string loaded;
    status = CheckpointStatus::Ok;
    ASSERT_TRUE(loadCheckpointWithFallback(recovered, path, nullptr,
                                           &status, 8, &loaded));
    EXPECT_EQ(status, CheckpointStatus::Ok);
    EXPECT_EQ(loaded, path + ".1");
    EXPECT_EQ(recovered.step(), 5);
    EXPECT_EQ(recovered.train(4), expect);

    removeCheckpointChain(path);
}

TEST(FaultCheckpoint, WriteFaultsLeavePreviousCheckpointLoadable)
{
    FaultGuard fault_guard;
    const std::string path = "test_faults_write.ckpt";
    removeCheckpointChain(path);
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    trainer.train(2);
    ASSERT_TRUE(saveCheckpoint(trainer, path));

    struct Case
    {
        const char *spec;
        CheckpointStatus expect;
        bool durable;
    };
    const Case cases[] = {
        {"ckpt.write:1", CheckpointStatus::WriteFailed, false},
        {"ckpt.fsync:1", CheckpointStatus::SyncFailed, true},
        {"ckpt.rename:1", CheckpointStatus::RenameFailed, false},
        {"ckpt.publish:1", CheckpointStatus::RenameFailed, false},
    };
    for (const Case &c : cases) {
        trainer.train(1);
        ASSERT_TRUE(fault::configureFromSpec(c.spec));
        CheckpointWriteOptions opts;
        opts.durable = c.durable;
        CheckpointStatus status = CheckpointStatus::Ok;
        EXPECT_FALSE(
            saveCheckpoint(trainer, path, nullptr, &status, opts))
            << c.spec;
        EXPECT_EQ(status, c.expect) << c.spec;
        fault::reset();

        // The previously published checkpoint survived untouched.
        Trainer fresh(cfg);
        ASSERT_TRUE(loadCheckpoint(fresh, path)) << c.spec;
        EXPECT_EQ(fresh.step(), 2) << c.spec;
    }
    removeCheckpointChain(path);
}

TEST(FaultCheckpoint, FailedPublishRollsBackRotation)
{
    FaultGuard fault_guard;
    const std::string path = "test_faults_publish.ckpt";
    removeCheckpointChain(path);
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    CheckpointWriteOptions opts;
    opts.keep = 2;
    opts.durable = false;

    Trainer trainer(cfg);
    trainer.train(2);
    ASSERT_TRUE(saveCheckpoint(trainer, path, nullptr, nullptr, opts));

    // The publish rename fails AFTER the live checkpoint was rotated
    // aside: the rollback must restore it, so a plain loadCheckpoint
    // of <path> (no fallback walker) still sees the step-2 state.
    trainer.train(3);
    ASSERT_TRUE(fault::configureFromSpec("ckpt.publish:1"));
    CheckpointStatus status = CheckpointStatus::Ok;
    EXPECT_FALSE(saveCheckpoint(trainer, path, nullptr, &status, opts));
    EXPECT_EQ(status, CheckpointStatus::RenameFailed);
    fault::reset();

    Trainer fresh(cfg);
    status = CheckpointStatus::Ok;
    ASSERT_TRUE(loadCheckpoint(fresh, path, nullptr, &status));
    EXPECT_EQ(status, CheckpointStatus::Ok);
    EXPECT_EQ(fresh.step(), 2);

    removeCheckpointChain(path);
}

// --------------------------------------------------------- scheme solve

TEST(FaultScheme, FailedSolveResolvesAsSkipInline)
{
    FaultGuard fault_guard;
    ASSERT_TRUE(fault::configureFromSpec("scheme.solve:1"));
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    SnipController::Config cc;
    cc.update_interval = 4;
    SnipController controller(cc);
    // Update 1 (step 0) hits the fault and skips; because no scheme
    // was ever selected, the start trigger re-arms and the next
    // update solves normally. Training never stops.
    for (int64_t i = 0; i < 6; ++i)
        trainer.trainStep(&controller);
    EXPECT_EQ(controller.totals().skipped, 1);
    EXPECT_GE(controller.totals().updates, 1);
    EXPECT_TRUE(controller.hasSelection());
    fault::reset();
}

TEST(FaultScheme, FailedAsyncSolveIsContainedToASkip)
{
    FaultGuard fault_guard;
    ASSERT_TRUE(fault::configureFromSpec("scheme.solve:1"));
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    SnipController::Config cc;
    cc.update_interval = 3;
    cc.async = true;
    cc.apply_delay = 1;
    SnipController controller(cc);
    // The worker's solve throws; the guarded runner contains it, the
    // apply boundary resolves as a skip, later updates succeed.
    for (int64_t i = 0; i < 8; ++i)
        trainer.trainStep(&controller);
    EXPECT_EQ(controller.totals().skipped, 1);
    EXPECT_GE(controller.totals().updates, 1);
    fault::reset();
}

// -------------------------------------------------------------- serving

TEST(FaultServe, StructuralRejectsCarryStatus)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    ModelConfig mc = microModel();
    LlamaModel model(mc, 91);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));

    serve::EngineConfig ec;
    ec.max_concurrency = 2;
    ec.kv_page_tokens = 4;
    ec.max_pages = mc.n_blocks * 3; // 12 tokens per sequence, max
    serve::Engine engine(model, ec);

    serve::RequestQueue queue;
    serve::ServeRequest good;
    good.id = 0;
    good.prompt = somePrompt(4, mc.vocab_size, 92);
    good.max_new_tokens = 4;
    queue.push(good);
    serve::ServeRequest empty;
    empty.id = 1;
    queue.push(empty);
    serve::ServeRequest too_long;
    too_long.id = 2;
    too_long.prompt = somePrompt(4, mc.vocab_size, 93);
    too_long.max_new_tokens = mc.max_seq;
    queue.push(too_long);
    serve::ServeRequest never_fits;
    never_fits.id = 3;
    never_fits.prompt = somePrompt(8, mc.vocab_size, 94);
    never_fits.max_new_tokens = 12; // 20 tokens > 12-token pool
    queue.push(never_fits);

    auto results = engine.run(queue);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].status, serve::RequestStatus::Ok);
    EXPECT_EQ(results[0].tokens.size(), 4u);
    EXPECT_EQ(results[1].status,
              serve::RequestStatus::RejectedEmptyPrompt);
    EXPECT_EQ(results[2].status, serve::RequestStatus::RejectedTooLong);
    EXPECT_EQ(results[3].status,
              serve::RequestStatus::RejectedPoolTooSmall);
    EXPECT_EQ(engine.stats().rejected, 3);
    EXPECT_EQ(engine.kvCache().pagesInUse(), 0);
}

TEST(FaultServe, KvAllocFaultPreemptsNewestDeterministically)
{
    FaultGuard fault_guard;
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    ModelConfig mc = microModel();
    LlamaModel model(mc, 95);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));

    serve::EngineConfig ec;
    ec.max_concurrency = 2;
    ec.kv_page_tokens = 4;

    auto makeQueue = [&] {
        serve::RequestQueue queue;
        for (int64_t id = 0; id < 2; ++id) {
            serve::ServeRequest r;
            r.id = id;
            r.prompt = somePrompt(5, mc.vocab_size,
                                  96 + static_cast<uint64_t>(id));
            r.max_new_tokens = 8;
            queue.push(r);
        }
        return queue;
    };

    auto runOnce = [&] {
        serve::Engine engine(model, ec);
        auto queue = makeQueue();
        auto results = engine.run(queue);
        EXPECT_EQ(engine.kvCache().pagesInUse(), 0);
        EXPECT_EQ(engine.stats().preempted, 1);
        return results;
    };

    ASSERT_TRUE(fault::configureFromSpec("kv.alloc:1"));
    auto first = runOnce();
    ASSERT_EQ(first.size(), 2u);
    // The NEWEST admission (request 1, admitted second) is the victim;
    // the oldest runs to completion.
    EXPECT_EQ(first[0].status, serve::RequestStatus::Ok);
    EXPECT_EQ(first[0].tokens.size(), 8u);
    EXPECT_EQ(first[1].status, serve::RequestStatus::Preempted);

    // The same schedule replays to the same bits.
    ASSERT_TRUE(fault::configureFromSpec("kv.alloc:1"));
    auto second = runOnce();
    ASSERT_EQ(second.size(), 2u);
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].status, second[i].status);
        EXPECT_EQ(first[i].tokens, second[i].tokens);
    }
    fault::reset();
}

TEST(FaultServe, DeadlinesDrainCleanly)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    ModelConfig mc = microModel();
    LlamaModel model(mc, 97);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));

    serve::SyntheticStreamConfig sc;
    sc.n_requests = 6;
    sc.seed = 98;
    sc.vocab = mc.vocab_size;
    sc.min_prompt = 4;
    sc.max_prompt = 8;
    sc.min_new = 4;
    sc.max_new = 8;
    sc.deadline_s = 1e-9; // expires before any service completes

    serve::EngineConfig ec;
    ec.max_concurrency = 2;
    ec.kv_page_tokens = 4;
    serve::Engine engine(model, ec);
    auto queue = serve::RequestQueue::synthetic(sc);
    auto results = engine.run(queue);

    ASSERT_EQ(results.size(), 6u);
    for (const serve::RequestResult &r : results)
        EXPECT_TRUE(r.status == serve::RequestStatus::Ok ||
                    r.status == serve::RequestStatus::Expired)
            << serve::requestStatusName(r.status);
    EXPECT_GT(engine.stats().expired, 0);
    EXPECT_EQ(engine.kvCache().pagesInUse(), 0);
}

TEST(FaultServe, SoakUnderFaultScheduleDrainsWithZeroPageLeak)
{
    FaultGuard fault_guard;
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);
    ModelConfig mc = microModel();
    LlamaModel model(mc, 99);
    model.setScheme(PrecisionScheme::uniform(
        model.registry().numLinear(), Precision::FP8));

    serve::SyntheticStreamConfig sc;
    sc.n_requests = 20;
    sc.seed = 100;
    sc.vocab = mc.vocab_size;
    sc.min_prompt = 4;
    sc.max_prompt = 12;
    sc.min_new = 4;
    sc.max_new = 10;
    sc.arrival_rate = 500.0;
    sc.deadline_s = 0.25;

    serve::EngineConfig ec;
    ec.max_concurrency = 3;
    ec.kv_page_tokens = 4;
    ASSERT_TRUE(fault::configureFromSpec(
        "kv.alloc:every-3,serve.admit:every-4"));
    serve::Engine engine(model, ec);
    auto queue = serve::RequestQueue::synthetic(sc);
    auto results = engine.run(queue);
    fault::reset();

    // Every request got exactly one result, the engine drained, and
    // the page accounting is back to zero.
    ASSERT_EQ(results.size(), 20u);
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].id, static_cast<int64_t>(i));
    EXPECT_EQ(engine.kvCache().pagesInUse(), 0);
    EXPECT_GT(engine.stats().admission_retries, 0);
}

// ------------------------------------------------------------ telemetry

TEST(FaultTelemetry, ExportFaultFailsFlushCleanly)
{
    FaultGuard fault_guard;
    ObsGuard obs_guard;
    const std::string path = "test_faults_telemetry.json";
    std::remove(path.c_str());
    telemetry::Config tc;
    tc.enabled = true;
    tc.json_path = path;
    telemetry::configure(tc);
    telemetry::stepBoundary(0);

    ASSERT_TRUE(fault::configureFromSpec("telemetry.export:1"));
    EXPECT_FALSE(telemetry::flush());
    fault::reset();
    EXPECT_TRUE(telemetry::flush());
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    in.close();
    std::remove(path.c_str());
}

} // namespace
} // namespace snip
