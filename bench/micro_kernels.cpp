/**
 * @file
 * Micro-benchmarks (google-benchmark): quantization kernels at each
 * granularity/format, GEMM throughput, statistics-collection cost (the
 * paper claims it is negligible, Sec. 3.1), ILP solve time for
 * paper-sized instances (paper: "usually takes a few seconds" with a
 * 30 s limit — exact solves here are far below both), and the DP-vs-
 * B&B ablation.
 */
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/snip_optimizer.h"
#include "core/stats_collector.h"
#include "nn/attention.h"
#include "quant/quantizer.h"
#include "runtime/thread_pool.h"
#include "simd/dispatch.h"
#include "tensor/gemm.h"
#include "train/presets.h"

namespace snip {
namespace {

/** Attach FLOP accounting to a GEMM benchmark: items/s stays the raw
 *  FLOP rate (the regression gate's cost metric) and a humanized
 *  GFLOP/s counter lands in the console/JSON output. */
void
setGemmThroughput(benchmark::State &state, int64_t flops_per_iter)
{
    state.SetItemsProcessed(state.iterations() * flops_per_iter);
    state.counters["GFLOPS"] = benchmark::Counter(
        static_cast<double>(flops_per_iter) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

void
BM_QuantizeTensor(benchmark::State &state, QuantConfig cfg)
{
    Rng rng(1);
    Tensor t = Tensor::randn({256, 256}, rng);
    FakeQuantizer q(2);
    for (auto _ : state) {
        Tensor out = q.quantize(t, cfg);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * t.numel());
}

void
BM_Gemm(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(3);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        Tensor c = matmulNT(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    setGemmThroughput(state, 2 * n * n * n);
}

/**
 * Single-thread NT GEMM at L2-outgrowing shapes (512/1024/2048), where
 * the operand panels no longer fit L2 and the packed pipeline's
 * contiguous strip-major traffic and 6x16 register tile carry the
 * throughput.
 */
void
BM_GemmPack(benchmark::State &state)
{
    runtime::setGlobalThreadCount(1);
    const int64_t n = state.range(0);
    Rng rng(3);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        Tensor c = matmulNT(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    setGemmThroughput(state, 2 * n * n * n);
    runtime::setGlobalThreadCount(0);
}

/**
 * Fused quantize-on-pack vs materialize-then-multiply: the forward
 * GEMM with FP8 operand quantization either fused into the operand
 * packs (no quantized copy exists) or via FakeQuantizer tensor copies
 * feeding the same packed GEMM.
 */
void
BM_QuantGemmNT(benchmark::State &state, bool fused)
{
    runtime::setGlobalThreadCount(1);
    const int64_t n = state.range(0);
    Rng rng(5);
    Tensor x = Tensor::randn({n, n}, rng);
    Tensor w = Tensor::randn({n, n}, rng);
    const QuantConfig xq = rolePolicy(Precision::FP8,
                                      TensorRole::Activation);
    const QuantConfig wq = rolePolicy(Precision::FP8,
                                      TensorRole::Weight);
    FakeQuantizer q(2);
    for (auto _ : state) {
        if (fused) {
            Tensor y = quantMatmulNT(x, &xq, w, &wq, nullptr);
            benchmark::DoNotOptimize(y.data());
        } else {
            Tensor xm = q.quantize(x, xq);
            Tensor wm = q.quantize(w, wq);
            Tensor y = matmulNT(xm, wm);
            benchmark::DoNotOptimize(y.data());
        }
    }
    setGemmThroughput(state, 2 * n * n * n);
    runtime::setGlobalThreadCount(0);
}

void
BM_StatsCollection(benchmark::State &state)
{
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    trainer.train(2);
    Batch batch = trainer.nextBatch();
    for (auto _ : state) {
        TrainingStats stats = collectTrainingStats(
            trainer.model(), &trainer.optimizer(), batch);
        benchmark::DoNotOptimize(stats.loss);
    }
}

void
BM_PlainStep(benchmark::State &state)
{
    TrainerConfig cfg = trainerPreset(tinyTestModel());
    Trainer trainer(cfg);
    trainer.train(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(trainer.trainStep());
}

/**
 * fig8-style training step (excluded from the CI regression gate —
 * end-to-end steps are too noisy for a 25% bound). Layers run FP8 so
 * the step exercises fused quantize-on-pack and the per-step
 * weight-pack cache.
 */
void
BM_TrainStepPack(benchmark::State &state)
{
    ModelConfig model = tinyTestModel();
    model.d_model = 128;
    model.n_heads = 4;
    model.n_kv_heads = 4;
    model.ffn_hidden = 512;
    model.n_blocks = 2;
    TrainerConfig cfg = trainerPreset(model);
    cfg.batch_size = 8;
    Trainer trainer(cfg);
    trainer.model().setScheme(PrecisionScheme::uniform(
        static_cast<size_t>(trainer.model().registry().numLinear()),
        Precision::FP8));
    trainer.train(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(trainer.trainStep());
}

/**
 * Serial-vs-parallel sweep: the same GEMM at a pinned global-pool
 * width. Arg 0 is the square matrix size, arg 1 the thread count
 * ("/threads:1" rows are the serial baseline; the runtime guarantees
 * all rows compute bit-identical results). CI smoke-runs this sweep so
 * kernel regressions show up as timing diffs in the job log.
 */
void
BM_GemmThreads(benchmark::State &state)
{
    const int64_t n = state.range(0);
    runtime::setGlobalThreadCount(static_cast<int>(state.range(1)));
    Rng rng(3);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        Tensor c = matmulNT(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    setGemmThroughput(state, 2 * n * n * n);
    runtime::setGlobalThreadCount(0);
}

/** Same sweep for the FP4 tile-wise fake-quantization kernel. */
void
BM_QuantizeThreads(benchmark::State &state)
{
    const int64_t n = state.range(0);
    runtime::setGlobalThreadCount(static_cast<int>(state.range(1)));
    Rng rng(1);
    Tensor t = Tensor::randn({n, n}, rng);
    FakeQuantizer q(2);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tilewise, 128},
                    Rounding::Nearest};
    for (auto _ : state) {
        Tensor out = q.quantize(t, cfg);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * t.numel());
    runtime::setGlobalThreadCount(0);
}

/**
 * SIMD-backend sweep: the same single-threaded GEMM under each kernel
 * backend ("scalar" rows are the portable baseline; "avx2" rows skip
 * on hosts without AVX2+FMA). CI's bench-perf job runs this sweep with
 * JSON output and gates on regressions vs bench/baseline_kernels.json.
 */
void
BM_GemmBackend(benchmark::State &state, const char *backend)
{
    if (!simd::setBackendByName(backend)) {
        state.SkipWithError("backend unavailable on this host");
        return;
    }
    runtime::setGlobalThreadCount(1);
    const int64_t n = state.range(0);
    Rng rng(3);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        Tensor c = matmulNT(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    setGemmThroughput(state, 2 * n * n * n);
    runtime::setGlobalThreadCount(0);
    simd::setBackendByName("auto");
}

/** Same sweep for the FP4 tile-wise nearest-rounding quantizer. */
void
BM_QuantizeBackend(benchmark::State &state, const char *backend)
{
    if (!simd::setBackendByName(backend)) {
        state.SkipWithError("backend unavailable on this host");
        return;
    }
    runtime::setGlobalThreadCount(1);
    const int64_t n = state.range(0);
    Rng rng(1);
    Tensor t = Tensor::randn({n, n}, rng);
    FakeQuantizer q(2);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tilewise, 128},
                    Rounding::Nearest};
    for (auto _ : state) {
        Tensor out = q.quantize(t, cfg);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * t.numel());
    runtime::setGlobalThreadCount(0);
    simd::setBackendByName("auto");
}

// ---------------------------------------------------------- attention

/** Bench shapes for the attention core. Arg 0 selects: 0 = small
 *  (micro-model-like, per-head GEMMs far below any pack threshold),
 *  1 = fig8-scale (training-step-sized (b,h) space with GQA, where
 *  the batched runtime amortizes packing across 64 heads). */
AttnShape
attnBenchShape(int64_t id)
{
    if (id == 0)
        return AttnShape{2, 16, 4, 4, 16};
    return AttnShape{8, 64, 8, 4, 32};
}

/** Forward GEMM FLOPs of the attention core (QK^T + PV); softmax is
 *  excluded so the rows count GEMM work only. */
int64_t
attnFwdFlops(const AttnShape &s)
{
    return 4 * s.batch * s.n_heads * s.seq * s.seq * s.head_dim;
}

/**
 * The attention core (scores + fused softmax + context), single-thread
 * pinned so the rows time the batched GEMMs and fused kernels alone;
 * BM_AttnThreads sweeps the thread count.
 */
void
BM_AttnFwd(benchmark::State &state)
{
    runtime::setGlobalThreadCount(1);
    const AttnShape s = attnBenchShape(state.range(0));
    Rng rng(21);
    Tensor q = Tensor::randn({s.batch * s.seq, s.n_heads * s.head_dim},
                             rng);
    Tensor k = Tensor::randn(
        {s.batch * s.seq, s.n_kv_heads * s.head_dim}, rng);
    Tensor v = Tensor::randn(
        {s.batch * s.seq, s.n_kv_heads * s.head_dim}, rng);
    Tensor probs(s.batch * s.n_heads * s.seq, s.seq);
    Tensor ctx(s.batch * s.seq, s.n_heads * s.head_dim);
    for (auto _ : state) {
        attentionForwardCore(s, q.data(), k.data(), v.data(),
                             probs.data(), ctx.data());
        benchmark::DoNotOptimize(ctx.data());
    }
    setGemmThroughput(state, attnFwdFlops(s));
    runtime::setGlobalThreadCount(0);
}

/** Backward half of the attention core (4 GEMMs + fused softmax
 *  backward); dq/dk/dv zeroing is timed — it is part of a real step. */
void
BM_AttnBwd(benchmark::State &state)
{
    runtime::setGlobalThreadCount(1);
    const AttnShape s = attnBenchShape(state.range(0));
    Rng rng(22);
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
    attentionForwardCore(s, q.data(), k.data(), v.data(), probs.data(),
                         ctx.data());
    Tensor dq(s.batch * s.seq, s.n_heads * s.head_dim);
    Tensor dk(s.batch * s.seq, s.n_kv_heads * s.head_dim);
    Tensor dv(s.batch * s.seq, s.n_kv_heads * s.head_dim);
    for (auto _ : state) {
        dq.zero();
        dk.zero();
        dv.zero();
        attentionBackwardCore(s, q.data(), k.data(), v.data(),
                              probs.data(), dctx.data(), dq.data(),
                              dk.data(), dv.data());
        benchmark::DoNotOptimize(dq.data());
    }
    setGemmThroughput(state, 2 * attnFwdFlops(s));
    runtime::setGlobalThreadCount(0);
}

/** Thread sweep of the batched forward core at the fig8-scale shape. */
void
BM_AttnThreads(benchmark::State &state)
{
    runtime::setGlobalThreadCount(static_cast<int>(state.range(0)));
    const AttnShape s = attnBenchShape(1);
    Rng rng(23);
    Tensor q = Tensor::randn({s.batch * s.seq, s.n_heads * s.head_dim},
                             rng);
    Tensor k = Tensor::randn(
        {s.batch * s.seq, s.n_kv_heads * s.head_dim}, rng);
    Tensor v = Tensor::randn(
        {s.batch * s.seq, s.n_kv_heads * s.head_dim}, rng);
    Tensor probs(s.batch * s.n_heads * s.seq, s.seq);
    Tensor ctx(s.batch * s.seq, s.n_heads * s.head_dim);
    for (auto _ : state) {
        attentionForwardCore(s, q.data(), k.data(), v.data(),
                             probs.data(), ctx.data());
        benchmark::DoNotOptimize(ctx.data());
    }
    setGemmThroughput(state, attnFwdFlops(s));
    runtime::setGlobalThreadCount(0);
}

/** @p iters dependent xorshift steps: fixed work the compiler can
 *  neither fold nor vectorize (~3 ns per step on the 4-vCPU Xeon the
 *  dispatch rows below were sized on). */
uint64_t
fixedWork(uint64_t x, int64_t iters)
{
    x |= 1;
    for (int64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/**
 * Fork/join dispatch cost at the grain a training step issues: jobs of
 * 2 or 8 chunks of ~10 us fixed work each, separated by ~5 us of serial
 * work on the submitting thread. The gap lets workers go idle between
 * jobs, as between the GEMMs of a layer; back-to-back empty jobs would
 * hide the wake-up cost. One iteration is one gap plus one job, so the
 * ideal is 5 + ceil(chunks / threads) x 10 us. (Pausing the timer
 * around the gap would add two thread-CPU-clock reads per iteration,
 * each a syscall, to a ~10 us job.) The rows carry "threads:" in their
 * names, so the regression gate skips them like the other thread
 * sweeps.
 */
void
BM_ParallelForDispatch(benchmark::State &state)
{
    constexpr int64_t kChunkWork = 3200; // ~10 us
    constexpr int64_t kGapWork = 1600;   // ~5 us
    const int64_t chunks = state.range(0);
    runtime::setGlobalThreadCount(static_cast<int>(state.range(1)));
    std::vector<uint64_t> out(static_cast<size_t>(chunks));
    uint64_t gap = 0;
    for (auto _ : state) {
        gap = fixedWork(gap, kGapWork);
        runtime::parallelFor(0, chunks, 1, [&](int64_t c0, int64_t c1) {
            for (int64_t c = c0; c < c1; ++c)
                out[static_cast<size_t>(c)] =
                    fixedWork(static_cast<uint64_t>(c), kChunkWork);
        });
    }
    benchmark::DoNotOptimize(gap);
    benchmark::DoNotOptimize(out.data());
    runtime::setGlobalThreadCount(0);
}

/** Paper-sized ILP: 80 blocks x 7 layers, 4 options. */
IlpProblem
paperIlp(int n_layers, double target)
{
    Rng rng(11);
    IlpProblem p;
    p.target = target;
    for (int i = 0; i < n_layers; ++i) {
        std::vector<double> q, e;
        double base = rng.nextDouble() * 1e-3;
        for (int j = 0; j < 4; ++j) {
            q.push_back(base * j * (0.5 + rng.nextDouble()));
            e.push_back(static_cast<double>(j) / 3.0 / n_layers);
        }
        p.quality.push_back(q);
        p.efficiency.push_back(e);
    }
    return p;
}

void
BM_IlpBranchAndBound(benchmark::State &state)
{
    IlpProblem p = paperIlp(static_cast<int>(state.range(0)), 0.5);
    for (auto _ : state) {
        IlpSolution s = solveBranchAndBound(p);
        benchmark::DoNotOptimize(s.objective);
    }
}

void
BM_IlpDp(benchmark::State &state)
{
    IlpProblem p = paperIlp(static_cast<int>(state.range(0)), 0.5);
    for (auto _ : state) {
        IlpSolution s = solveDp(p);
        benchmark::DoNotOptimize(s.objective);
    }
}

BENCHMARK_CAPTURE(BM_QuantizeTensor, fp4_tile128,
                  QuantConfig{fp4E2m1(),
                              {Granularity::Tilewise, 128},
                              Rounding::Nearest});
BENCHMARK_CAPTURE(BM_QuantizeTensor, fp4_tile128_stochastic,
                  QuantConfig{fp4E2m1(),
                              {Granularity::Tilewise, 128},
                              Rounding::Stochastic});
BENCHMARK_CAPTURE(BM_QuantizeTensor, fp8_block128,
                  QuantConfig{fp8E4m3(),
                              {Granularity::Blockwise, 128},
                              Rounding::Nearest});
BENCHMARK_CAPTURE(BM_QuantizeTensor, fp8_tensorwise,
                  QuantConfig{fp8E4m3(),
                              {Granularity::Tensorwise, 0},
                              Rounding::Nearest});
BENCHMARK_CAPTURE(BM_QuantizeTensor, bf16_fastpath,
                  QuantConfig{bf16(),
                              {Granularity::Tensorwise, 0},
                              Rounding::Nearest});
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);
// Rows whose names predate the retired SNIP_GEMM_PACK / SNIP_ATTN knobs
// keep them: bench/baseline_kernels.json is keyed on these names.
BENCHMARK(BM_GemmPack)
    ->Name("BM_GemmPack/on")
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048);
BENCHMARK_CAPTURE(BM_QuantGemmNT, fused, true)->Arg(1024);
BENCHMARK_CAPTURE(BM_QuantGemmNT, materialized, false)->Arg(1024);
BENCHMARK_CAPTURE(BM_GemmBackend, scalar, "scalar")->Arg(256)->Arg(512);
BENCHMARK_CAPTURE(BM_GemmBackend, avx2, "avx2")->Arg(256)->Arg(512);
BENCHMARK_CAPTURE(BM_QuantizeBackend, scalar, "scalar")->Arg(512);
BENCHMARK_CAPTURE(BM_QuantizeBackend, avx2, "avx2")->Arg(512);
BENCHMARK(BM_GemmThreads)
    ->ArgNames({"n", "threads"})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 8})
    ->UseRealTime();
BENCHMARK(BM_QuantizeThreads)
    ->ArgNames({"n", "threads"})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 8})
    ->UseRealTime();
BENCHMARK(BM_AttnFwd)
    ->Name("BM_AttnFwd/par")
    ->ArgName("shape")
    ->Arg(0)
    ->Arg(1);
BENCHMARK(BM_AttnBwd)
    ->Name("BM_AttnBwd/par")
    ->ArgName("shape")
    ->Arg(0)
    ->Arg(1);
BENCHMARK(BM_AttnThreads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();
BENCHMARK(BM_ParallelForDispatch)
    ->ArgNames({"chunks", "threads"})
    ->ArgsProduct({{2, 8}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StatsCollection);
BENCHMARK(BM_PlainStep);
BENCHMARK(BM_TrainStepPack)->Name("BM_TrainStepPack/auto_pack");
BENCHMARK(BM_IlpBranchAndBound)->Arg(154)->Arg(560);
BENCHMARK(BM_IlpDp)->Arg(154)->Arg(560);

} // namespace
} // namespace snip

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // Land the dispatch decision in the JSON context so regression
    // reports say which backend produced the numbers.
    benchmark::AddCustomContext("snip_simd_backend",
                                snip::simd::activeBackendName());
    benchmark::AddCustomContext(
        "snip_threads",
        std::to_string(snip::runtime::defaultThreadCount()));
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
