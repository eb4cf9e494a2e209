/**
 * @file
 * WorkspaceArena behavior and the packed GEMM path's zero-allocation
 * contract.
 *
 * The counting allocation operators of alloc_counter.h let tests
 * assert that a warmed-up packed GEMM — pack,
 * fused quantization, workspace staging, thread-pool submission —
 * touches the heap exactly zero times, on the serial and the threaded
 * path alike.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "nn/attention.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace_arena.h"
#include "tensor/gemm.h"
#include "alloc_counter.h"
#include "testing_util.h"
#include "util/rng.h"

namespace snip {
namespace {

TEST(WorkspaceArena, AlignedBumpAndReuse)
{
    runtime::WorkspaceArena arena;
    float *a = arena.getFloats(100);
    float *b = arena.getFloats(1000);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
    EXPECT_NE(a, b);
    arena.reset();
    // Same slab, same offsets after a reset.
    EXPECT_EQ(arena.getFloats(100), a);
    EXPECT_EQ(arena.getFloats(1000), b);
}

TEST(WorkspaceArena, ScopeRewindsWatermark)
{
    runtime::WorkspaceArena arena;
    float *outer = arena.getFloats(64);
    const size_t used = arena.used();
    {
        runtime::ArenaScope scope(arena);
        float *inner = arena.getFloats(256);
        EXPECT_NE(inner, nullptr);
        EXPECT_GT(arena.used(), used);
    }
    EXPECT_EQ(arena.used(), used);
    // The next request lands right where the scope's first one did
    // (64 floats = 256 bytes, already 64-byte aligned).
    outer[0] = 1.0f;
    EXPECT_EQ(arena.getFloats(16), outer + 64);
}

TEST(WorkspaceArena, SpillsCoalesceIntoOneSlab)
{
    runtime::WorkspaceArena arena;
    (void)arena.getFloats(1 << 18); // within the 1 MiB min slab
    (void)arena.getFloats(1 << 20); // forces a spill
    const size_t reserved = arena.reservedBytes();
    EXPECT_GE(reserved, ((1u << 18) + (1u << 20)) * sizeof(float));
    arena.reset();
    const int64_t allocs_after_coalesce = arena.allocCount();
    // The whole episode now fits the coalesced slab: no more growth.
    (void)arena.getFloats(1 << 18);
    (void)arena.getFloats(1 << 20);
    arena.reset();
    EXPECT_EQ(arena.allocCount(), allocs_after_coalesce);
}

TEST(WorkspaceArena, SteadyStatePackedGemmAllocatesNothing)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);

    const int64_t m = 150, n = 130, k = 170;
    Rng rng(3);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b_nt = Tensor::randn({n, k}, rng);
    Tensor b_nn = Tensor::randn({k, n}, rng);
    Tensor a_tn = Tensor::randn({k, m}, rng);
    std::vector<float> c(static_cast<size_t>(m * n));

    auto run = [&] {
        gemmNT(a.data(), b_nt.data(), c.data(), m, n, k);
        gemmNN(a.data(), b_nn.data(), c.data(), m, n, k);
        gemmTN(a_tn.data(), b_nn.data(), c.data(), m, n, k);
    };
    run();
    run(); // warm: arenas sized
    EXPECT_EQ(allocDelta(run), 0)
        << "steady-state packed GEMMs must not touch the heap";
}

TEST(WorkspaceArena, SteadyStateFusedQuantGemmAllocatesNothing)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);

    const int64_t m = 96, n = 80, k = 140;
    Rng rng(4);
    Tensor x = Tensor::randn({m, k}, rng);
    Tensor w = Tensor::randn({n, k}, rng);
    std::vector<float> y(static_cast<size_t>(m * n));
    const QuantConfig xq =
        rolePolicy(Precision::FP8, TensorRole::Activation);
    const QuantConfig wq = rolePolicy(Precision::FP8, TensorRole::Weight);
    PackedWeightCache cache;

    auto fwd = [&] {
        gemmPackedNT(x.data(), m, k, &xq, w.data(), n, &wq, &cache,
                     y.data());
    };
    fwd();
    fwd();
    // Cache-hit steady state: zero heap traffic.
    EXPECT_EQ(allocDelta(fwd), 0)
        << "fused quantize-on-pack forward must not touch the heap";
    // Steady-state repack (optimizer stepped, buffers retained): the
    // pack runs again but every buffer is reused.
    auto stepped = [&] {
        invalidateWeightPacks();
        fwd();
    };
    stepped();
    EXPECT_EQ(allocDelta(stepped), 0)
        << "steady-state weight repack must not touch the heap";
}

TEST(WorkspaceArena, SteadyStateAttentionStepAllocatesNothing)
{
    // The attention runtime's zero-alloc contract: a warmed-up
    // forward + backward of the attention core — gathers, strided-
    // batch GEMMs, fused softmax, scatters — touches the heap exactly
    // zero times. All scratch lives in workspace arenas.
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(1);

    const AttnShape s{/*batch=*/2, /*seq=*/32, /*n_heads=*/4,
                      /*n_kv_heads=*/2, /*head_dim=*/16};
    Rng rng(6);
    Tensor q = Tensor::randn({s.batch * s.seq, s.n_heads * s.head_dim},
                             rng);
    Tensor k = Tensor::randn(
        {s.batch * s.seq, s.n_kv_heads * s.head_dim}, rng);
    Tensor v = Tensor::randn(
        {s.batch * s.seq, s.n_kv_heads * s.head_dim}, rng);
    Tensor dctx = Tensor::randn(
        {s.batch * s.seq, s.n_heads * s.head_dim}, rng);
    Tensor probs(s.batch * s.n_heads * s.seq, s.seq);
    Tensor ctx(s.batch * s.seq, s.n_heads * s.head_dim);
    Tensor dq(s.batch * s.seq, s.n_heads * s.head_dim);
    Tensor dk(s.batch * s.seq, s.n_kv_heads * s.head_dim);
    Tensor dv(s.batch * s.seq, s.n_kv_heads * s.head_dim);

    auto step = [&] {
        attentionForwardCore(s, q.data(), k.data(), v.data(),
                             probs.data(), ctx.data());
        dq.zero();
        dk.zero();
        dv.zero();
        attentionBackwardCore(s, q.data(), k.data(), v.data(),
                              probs.data(), dctx.data(), dq.data(),
                              dk.data(), dv.data());
    };
    step();
    step(); // warm: arenas sized
    EXPECT_EQ(allocDelta(step), 0)
        << "steady-state attention step must not touch the heap";
}

/**
 * Run fn(i) once on every thread of the global pool, the caller
 * included, with i a distinct index in [0, numThreads()). The job has
 * one chunk per thread and each chunk waits until all have started, so
 * no thread can take two. Bounded: a worker that never shows up fails
 * the test instead of hanging it.
 */
void
onEveryPoolThread(const std::function<void(int64_t)> &fn)
{
    const int64_t n = runtime::globalThreadPool().numThreads();
    std::atomic<int64_t> arrived{0};
    runtime::parallelFor(0, n, 1, [&](int64_t i, int64_t) {
        arrived.fetch_add(1, std::memory_order_acq_rel);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (arrived.load(std::memory_order_acquire) < n &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        EXPECT_EQ(arrived.load(std::memory_order_acquire), n);
        fn(i);
    });
}

TEST(WorkspaceArena, ThreadedSteadyStateStaysRecycled)
{
    GlobalPoolGuard pool_guard;
    runtime::setGlobalThreadCount(4);
    const int threads = runtime::globalThreadPool().numThreads();

    // 200x120x160 fans four M-blocks over the pool. 128x32x32, the fig8
    // linear shape, has two, so which threads take part changes from
    // call to call.
    struct Shape
    {
        int64_t m, n, k;
    };
    for (const Shape &s : {Shape{200, 120, 160}, Shape{128, 32, 32}}) {
        SCOPED_TRACE(testing::Message() << s.m << "x" << s.n << "x" << s.k);
        Rng rng(5);
        Tensor a = Tensor::randn({s.m, s.k}, rng);
        Tensor b = Tensor::randn({s.n, s.k}, rng);
        std::vector<float> c(static_cast<size_t>(s.m * s.n));
        auto run = [&] {
            gemmNT(a.data(), b.data(), c.data(), s.m, s.n, s.k);
        };
        // Warm every pool thread's arena: each runs the whole GEMM
        // inline (nested parallelFor) into a private output.
        std::vector<std::vector<float>> own(static_cast<size_t>(threads), c);
        onEveryPoolThread([&](int64_t i) {
            gemmNT(a.data(), b.data(), own[static_cast<size_t>(i)].data(),
                   s.m, s.n, s.k);
        });
        run();
        // Panels, scales, workspaces and the pool's job slot are all
        // reused: not one allocation in a thousand threaded calls.
        auto thousand_runs = [&] {
            for (int i = 0; i < 1000; ++i)
                run();
        };
        EXPECT_EQ(allocDelta(thousand_runs), 0);
    }
}

} // namespace
} // namespace snip
