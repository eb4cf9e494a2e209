/**
 * @file
 * Scalar value codec: snap a float onto a low-precision format's grid.
 *
 * Two rounding modes are provided. Round-to-nearest-even is the default;
 * stochastic rounding (Croci et al., used by the paper for FP4 output
 * gradients) rounds to the two neighbouring grid points with probability
 * proportional to proximity, making the quantizer unbiased in
 * expectation and preventing training stagnation.
 */
#ifndef SNIP_QUANT_CODEC_H
#define SNIP_QUANT_CODEC_H

#include <cmath>

#include "quant/format.h"

namespace snip {

class Rng;

/** Rounding rule applied when a value falls between grid points. */
enum class Rounding
{
    /** Round to nearest, ties to even mantissa. */
    Nearest,
    /** Stochastic rounding (requires an Rng). */
    Stochastic,
};

/** Name for logging/tables. */
const char *roundingName(Rounding r);

/**
 * Quantize one value to @p fmt with round-to-nearest-even.
 *
 * Magnitudes above maxValue() saturate; subnormals flush onto the
 * subnormal grid; ±0 is preserved as 0.
 */
float quantizeNearest(float x, const FloatFormat &fmt);

/** Quantize one value with stochastic rounding driven by @p rng. */
float quantizeStochastic(float x, const FloatFormat &fmt, Rng &rng);

/**
 * Quantize one value with the requested mode. @p rng may be null for
 * Rounding::Nearest.
 */
float quantizeValue(float x, const FloatFormat &fmt, Rounding mode,
                    Rng *rng);

/** Spacing of the format's grid at value @p x (the ULP). */
double ulpAt(float x, const FloatFormat &fmt);

/**
 * Precomputed float-domain constants describing a format's grid, for
 * vectorized grid-snap kernels (simd/). All fields are exact powers of
 * two or exactly representable floats, so a kernel built on them can
 * reproduce quantizeNearest() bit for bit:
 *   - a normal-range value ax in [min_normal, max_value] quantizes as
 *     roundeven(retag(ax)) * 2^-mantissa_bits * binade(ax), where
 *     retag(ax) keeps ax's mantissa and forces the exponent to
 *     mantissa_bits (the grid index, exact in float);
 *   - a subnormal-range value quantizes as
 *     roundeven(ax * inv_min_sub_hi * inv_min_sub_lo) * min_subnormal
 *     (the inverse subnormal spacing is split into two power-of-two
 *     factors because e.g. bf16's 2^133 overflows a single float).
 */
struct QuantGrid
{
    float max_value;        ///< saturation bound (fmt.maxValue())
    float min_normal;       ///< normal/subnormal grid boundary
    float min_subnormal;    ///< grid spacing below min_normal
    float inv_min_sub_hi;   ///< 1/min_subnormal = hi * lo, both
    float inv_min_sub_lo;   ///<   powers of two within float range
    float two_pow_neg_mant; ///< 2^-mantissa_bits
    int mantissa_bits;
};

/** Grid constants for @p fmt (see QuantGrid). */
QuantGrid quantGrid(const FloatFormat &fmt);

/**
 * True when stochastic rounding of @p x consumes one Rng draw. The
 * codec draws only for nonzero, finite values below saturation; zeros,
 * non-finites and |x| >= max_value map without one. A caller that
 * pre-draws uniforms for a batched kernel (simd/kernels.h) replays the
 * codec's stream by drawing, in element order, for exactly these.
 */
inline bool
stochasticConsumesDraw(float x, const QuantGrid &grid)
{
    return x != 0.0f && std::fabs(x) < grid.max_value;
}

} // namespace snip

#endif // SNIP_QUANT_CODEC_H
