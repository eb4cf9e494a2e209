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

const char *
tensorRoleName(TensorRole role)
{
    switch (role) {
        case TensorRole::Activation:
            return "activation";
        case TensorRole::Weight:
            return "weight";
        case TensorRole::OutputGrad:
            return "output_grad";
    }
    return "?";
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
    const simd::KernelTable &kt = simd::activeKernels();
    if (cfg.format.name == "bf16" && cfg.rounding == Rounding::Nearest) {
        // Fast path: bf16 needs no rescaling, so the whole tensor is
        // one tight round-to-nearest-even sweep (exact bit
        // manipulation in every backend).
        float *p = t.data();
        runtime::parallelFor(0, t.numel(), 1 << 15,
                             [p, &kt](int64_t i0, int64_t i1) {
                                 kt.bf16Round(p + i0, i1 - i0);
                             });
        return;
    }
    int64_t rows, cols;
    matrixView(t, rows, cols);
    if (rows == 0 || cols == 0)
        return;
    float *p = t.data();
    const double fmt_max = cfg.format.maxValue();
    const bool stochastic = cfg.rounding == Rounding::Stochastic;
    // Stochastic rounding draws from one per-region stream seeded by
    // (call key, region index): the member stream advances exactly once
    // per call (so repeated calls remain one deterministic sequence)
    // and every region's draws are independent of how regions are
    // scheduled across threads — results are bit-identical for any
    // thread count.
    const uint64_t call_key = stochastic ? rng_.nextU64() : 0;

    // Stochastic rounding pre-draws its uniforms into a stack buffer
    // of this many elements per kernel call.
    constexpr int64_t kDrawChunk = 256;
    const RegionGrid regions = regionGrid(rows, cols, cfg.scaling);
    const QuantGrid grid = quantGrid(cfg.format);
    runtime::parallelFor(
        0, regions.count(), 8, [&](int64_t g0, int64_t g1) {
            const simd::KernelTable &kt = simd::activeKernels();
            for (int64_t g = g0; g < g1; ++g) {
                const ScalingRegion reg = regions.region(g);
                const RegionScale rs =
                    scaleRegion(kt, p, cols, reg, fmt_max);
                if (!stochastic) {
                    // Nearest rounding takes the vectorized grid-snap
                    // kernel (bit-exact across backends).
                    for (int64_t r = reg.r0; r < reg.r1; ++r) {
                        kt.quantizeNearest(p + r * cols + reg.c0,
                                           reg.c1 - reg.c0, cfg.format,
                                           grid, rs.scale, rs.inv);
                    }
                    continue;
                }
                // The region's stream yields one draw per element that
                // needs rounding, in row-major order; that sequence is
                // part of the determinism contract. Drawing is serial,
                // rounding is the vectorized kernel, chunk by chunk.
                Rng region_rng(call_key +
                               0x9E3779B97F4A7C15ull *
                                   (static_cast<uint64_t>(g) + 1));
                double draws[kDrawChunk];
                for (int64_t r = reg.r0; r < reg.r1; ++r) {
                    float *row = p + r * cols;
                    for (int64_t c0 = reg.c0; c0 < reg.c1;
                         c0 += kDrawChunk) {
                        const int64_t n = std::min(kDrawChunk, reg.c1 - c0);
                        for (int64_t i = 0; i < n; ++i) {
                            const float s = row[c0 + i] * rs.scale;
                            draws[i] = stochasticConsumesDraw(s, grid)
                                           ? region_rng.nextDouble()
                                           : 0.0;
                        }
                        kt.quantizeStochastic(row + c0, n, grid,
                                              rs.scale, rs.inv, draws);
                    }
                }
            }
        });
}

} // namespace snip
