/**
 * @file
 * Scaling regions for fake quantization: the one place that decides
 * which elements share a scale and what that scale is.
 *
 * Low-precision formats have tiny dynamic ranges, so every region of a
 * tensor is rescaled such that its max-|value| maps to the format's max
 * representable value before quantization (Sec. 2.3):
 *
 *     scale = FPX_MAX / max(abs(region));  q = Q(x*scale) / scale
 *
 * Following the DeepSeek-V3 recipe the paper adopts, activations and
 * gradients use 1xNB tile-wise scaling and weights NBxNB block-wise
 * scaling with NB = 128; tensor-, row- and column-wise granularities are
 * also provided for ablations.
 *
 * regionGrid() lays the regions out and scaleRegion() computes one
 * region's scale. Both quantizers go through them: quantizeMatrix
 * (quant/quantizer.h), the region loop FakeQuantizer and the GEMM
 * driver (tensor/gemm.h) share, and the FP8 KV-cache append
 * (serve/kv_cache.h), so their results agree bit for bit.
 */
#ifndef SNIP_QUANT_SCALING_H
#define SNIP_QUANT_SCALING_H

#include <algorithm>
#include <cstdint>

#include "simd/kernels.h"
#include "tensor/tensor.h"

namespace snip {

/** Region shape that shares one scaling factor. */
enum class Granularity
{
    Tensorwise,  ///< one scale for the whole tensor
    Rowwise,     ///< one scale per row
    Columnwise,  ///< one scale per column
    Blockwise,   ///< one scale per NB x NB block
    Tilewise,    ///< one scale per 1 x NB tile (DeepSeek-V3 activations)
};

/** Name for logging/tables. */
const char *granularityName(Granularity g);

/** Granularity plus its block edge (ignored for tensor/row/column). */
struct ScalingSpec
{
    Granularity granularity = Granularity::Tensorwise;
    int block = 128;
};

/** One scaling region as half-open (row, col) bounds. */
struct ScalingRegion
{
    int64_t r0 = 0, r1 = 0, c0 = 0, c1 = 0;
};

/**
 * The scaling regions of a spec on a rows x cols matrix: an nrr x ncr
 * grid of rb x cb regions, ragged at the bottom and right edges.
 * Regions are disjoint, so parallel sweeps may process them
 * independently. Region i sits at grid cell (i / ncr, i % ncr): this
 * row-major index is canonical — it keys the per-region
 * stochastic-rounding streams.
 */
struct RegionGrid
{
    int64_t rows = 0, cols = 0;
    int64_t rb = 1, cb = 1;   ///< region edge in rows / cols
    int64_t nrr = 0, ncr = 0; ///< region-grid extents

    /** Number of regions, i.e. of scaling factors (the paper's <1%
     *  memory-overhead claim is checked against this). */
    int64_t count() const { return nrr * ncr; }

    /** Bounds of region @p i, 0 <= i < count(). */
    ScalingRegion
    region(int64_t i) const
    {
        const int64_t r0 = (i / ncr) * rb;
        const int64_t c0 = (i % ncr) * cb;
        return {r0, std::min(rows, r0 + rb), c0,
                std::min(cols, c0 + cb)};
    }
};

/** Region grid of @p spec on a rows x cols matrix (empty when either
 *  extent is 0). */
RegionGrid regionGrid(int64_t rows, int64_t cols, const ScalingSpec &spec);

/** A region's scale and its reciprocal, as the quantize kernels take
 *  them. */
struct RegionScale
{
    float scale;
    float inv;
};

/**
 * Scale of @p region of the row-major matrix at @p p (leading dimension
 * @p ld): max-|x| over the region's row segments (kt.maxAbs), then
 * s = fmt_max / max — 1 for an all-zero region, whose quantization is
 * then exact — narrowed to float along with 1.0 / s taken in double.
 * Inline: the KV append calls it for every head_dim block of every
 * row, and out of line it measurably slowed the append.
 */
inline RegionScale
scaleRegion(const simd::KernelTable &kt, const float *p, int64_t ld,
            const ScalingRegion &region, double fmt_max)
{
    const int64_t len = region.c1 - region.c0;
    double max_abs = 0.0;
    for (int64_t r = region.r0; r < region.r1; ++r) {
        const float m = kt.maxAbs(p + r * ld + region.c0, len);
        max_abs = std::max(max_abs, static_cast<double>(m));
    }
    const double s = max_abs <= 0.0 ? 1.0 : fmt_max / max_abs;
    return {static_cast<float>(s), static_cast<float>(1.0 / s)};
}

/** View any tensor as a 2-D matrix: rows = numel/lastdim, cols =
 *  lastdim. Rank-0/1 tensors become a single row. */
void matrixView(const Tensor &t, int64_t &rows, int64_t &cols);

} // namespace snip

#endif // SNIP_QUANT_SCALING_H
