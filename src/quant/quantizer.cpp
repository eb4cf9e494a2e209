#include "quant/quantizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "runtime/thread_pool.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/string_util.h"

namespace snip {

std::string
QuantConfig::describe() const
{
    return strformat("%s/%s%d/%s", format.name.c_str(),
                     granularityName(scaling.granularity), scaling.block,
                     roundingName(rounding));
}

const char *
precisionName(Precision p)
{
    switch (p) {
        case Precision::BF16:
            return "BF16";
        case Precision::FP8:
            return "FP8";
        case Precision::FP6:
            return "FP6";
        case Precision::FP4:
            return "FP4";
    }
    return "?";
}

int
precisionBits(Precision p)
{
    switch (p) {
        case Precision::BF16:
            return 16;
        case Precision::FP8:
            return 8;
        case Precision::FP6:
            return 6;
        case Precision::FP4:
            return 4;
    }
    return 0;
}

namespace {
Rounding g_fp4_grad_rounding = Rounding::Stochastic;
} // namespace

void
setFp4GradRounding(Rounding rounding)
{
    g_fp4_grad_rounding = rounding;
}

Rounding
fp4GradRounding()
{
    return g_fp4_grad_rounding;
}

QuantConfig
rolePolicy(Precision precision, TensorRole role)
{
    QuantConfig cfg;
    switch (precision) {
        case Precision::BF16:
            cfg.format = bf16();
            cfg.scaling = {Granularity::Tensorwise, 0};
            cfg.rounding = Rounding::Nearest;
            return cfg;
        case Precision::FP8:
            cfg.format = (role == TensorRole::OutputGrad) ? fp8E5m2()
                                                          : fp8E4m3();
            break;
        case Precision::FP6:
            cfg.format = fp6E3m2();
            break;
        case Precision::FP4:
            cfg.format = fp4E2m1();
            break;
    }
    if (role == TensorRole::Weight) {
        cfg.scaling = {Granularity::Blockwise, 128};
    } else {
        cfg.scaling = {Granularity::Tilewise, 128};
    }
    cfg.rounding = (precision == Precision::FP4 &&
                    role == TensorRole::OutputGrad)
                       ? g_fp4_grad_rounding
                       : Rounding::Nearest;
    return cfg;
}

namespace {

/** One quantizeMatrix call; its parallelFor body captures a pointer to
 *  this, which keeps the std::function off the heap. */
struct MatrixJob
{
    const float *src;
    float *dst;
    int64_t cols;
    RegionGrid regions;
    const FloatFormat *format;
    QuantGrid grid;
    double fmt_max;
    bool stochastic;
    uint64_t call_key;
};

/** Stochastic rounding pre-draws its uniforms into a stack buffer of
 *  this many elements per kernel call. */
constexpr int64_t kDrawChunk = 256;

/** Row @p r of dst, with @p reg's segment first copied from src when
 *  the call is out of place. */
float *
dstRow(const MatrixJob &job, const ScalingRegion &reg, int64_t r)
{
    float *row = job.dst + r * job.cols;
    if (job.src != job.dst)
        std::memcpy(row + reg.c0, job.src + r * job.cols + reg.c0,
                    sizeof(float) * static_cast<size_t>(reg.c1 - reg.c0));
    return row;
}

/** Quantize region @p g of @p job: its scale over the source, then the
 *  kernel over each row segment. */
void
quantizeRegion(const simd::KernelTable &kt, const MatrixJob &job, int64_t g)
{
    const ScalingRegion reg = job.regions.region(g);
    const RegionScale rs =
        scaleRegion(kt, job.src, job.cols, reg, job.fmt_max);
    if (!job.stochastic) {
        for (int64_t r = reg.r0; r < reg.r1; ++r)
            kt.quantizeNearest(dstRow(job, reg, r) + reg.c0,
                               reg.c1 - reg.c0, *job.format, job.grid,
                               rs.scale, rs.inv);
        return;
    }
    // The region's stream yields one draw per element that needs
    // rounding, in row-major order; that sequence is part of the
    // determinism contract. Drawing is serial, rounding is the
    // vectorized kernel, chunk by chunk.
    Rng region_rng(job.call_key +
                   0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(g) + 1));
    double draws[kDrawChunk];
    for (int64_t r = reg.r0; r < reg.r1; ++r) {
        float *row = dstRow(job, reg, r);
        for (int64_t c0 = reg.c0; c0 < reg.c1; c0 += kDrawChunk) {
            const int64_t n = std::min(kDrawChunk, reg.c1 - c0);
            for (int64_t i = 0; i < n; ++i) {
                const float s = row[c0 + i] * rs.scale;
                draws[i] = stochasticConsumesDraw(s, job.grid)
                               ? region_rng.nextDouble()
                               : 0.0;
            }
            kt.quantizeStochastic(row + c0, n, job.grid, rs.scale, rs.inv,
                                  draws);
        }
    }
}

} // namespace

void
quantizeMatrix(const float *src, float *dst, int64_t rows, int64_t cols,
               const QuantConfig &cfg, uint64_t call_key)
{
    const MatrixJob job{src,
                        dst,
                        cols,
                        regionGrid(rows, cols, cfg.scaling),
                        &cfg.format,
                        quantGrid(cfg.format),
                        cfg.format.maxValue(),
                        cfg.rounding == Rounding::Stochastic,
                        call_key};
    const MatrixJob *j = &job;
    runtime::parallelFor(0, job.regions.count(), 8,
                         [j](int64_t g0, int64_t g1) {
                             const simd::KernelTable &kt =
                                 simd::activeKernels();
                             for (int64_t g = g0; g < g1; ++g)
                                 quantizeRegion(kt, *j, g);
                         });
}

void
fakeQuantize(const float *src, float *dst, int64_t rows, int64_t cols,
             const QuantConfig &cfg, uint64_t call_key)
{
    if (rows == 0 || cols == 0)
        return;
    if (cfg.format.name == "bf16" && cfg.rounding == Rounding::Nearest) {
        // Fast path: bf16 needs no rescaling, so the whole matrix is one
        // tight round-to-nearest-even sweep (exact bit manipulation in
        // every backend).
        if (src != dst)
            std::memcpy(dst, src,
                        sizeof(float) * static_cast<size_t>(rows * cols));
        const simd::KernelTable &kt = simd::activeKernels();
        runtime::parallelFor(0, rows * cols, 1 << 15,
                             [dst, &kt](int64_t i0, int64_t i1) {
                                 kt.bf16Round(dst + i0, i1 - i0);
                             });
        return;
    }
    quantizeMatrix(src, dst, rows, cols, cfg, call_key);
}

FakeQuantizer::FakeQuantizer(uint64_t seed) : rng_(seed) {}

Tensor
FakeQuantizer::quantize(const Tensor &t, const QuantConfig &cfg)
{
    Tensor out = t;
    quantizeInPlace(out, cfg);
    return out;
}

void
FakeQuantizer::quantizeInPlace(Tensor &t, const QuantConfig &cfg)
{
    int64_t rows, cols;
    matrixView(t, rows, cols);
    if (rows == 0 || cols == 0)
        return;
    // The member stream advances exactly once per stochastic call, so
    // repeated calls remain one deterministic sequence.
    const uint64_t call_key =
        cfg.rounding == Rounding::Stochastic ? nextCallKey() : 0;
    fakeQuantize(t.data(), t.data(), rows, cols, cfg, call_key);
}

} // namespace snip
