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
#include <cstdint>
#include <cstring>

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

/*
 * FP8-E4M3 byte codes: the storage form of values on the fp8E4m3()
 * grid (the paged KV cache, serve/kv_cache.h). Bit 7 is the sign,
 * bits 6..3 the biased exponent (bias 7), bits 2..0 the mantissa;
 * 0x7f and 0xff are the NaN codes. The 7-bit magnitude code c & 0x7f
 * of a finite value is its index in the ascending magnitude grid:
 * codes 1..7 are the subnormals c * 2^-9, codes 8..126 the normals.
 * Vectorized decoders (simd/) implement e4m3Magnitude() lane-wise.
 */

/** Byte code of @p q, which must lie on the e4m3 grid (a
 *  quantizeNearest(x, fp8E4m3()) result); -0.0f encodes as 0x80. Dies
 *  with "is not on the e4m3 grid" for any other value. */
uint8_t encodeE4m3(float q);

/** encodeE4m3() over @p n values into @p codes, one exactness check
 *  for the run. */
void encodeE4m3(const float *q, int64_t n, uint8_t *codes);

/** Value of byte code @p code; NaN for 0x7f and 0xff. */
float decodeE4m3(uint8_t code);

/**
 * |value| of a non-NaN magnitude code (0..126), exactly: normals by
 * re-biasing the exponent field, subnormals as code * 2^-9 — float
 * arithmetic on normal operands only, so no denormal reaches a
 * multiply.
 */
inline float
e4m3Magnitude(uint32_t mag_code)
{
    if (mag_code < 8)
        return static_cast<float>(mag_code) * 0x1p-9f;
    const uint32_t bits = (mag_code << 20) + (120u << 23);
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

/** A stored code times its block's inverse scale: the dequantized
 *  value, sign applied after the multiply. */
inline float
dequantE4m3(uint8_t code, float inv_scale)
{
    const float val = e4m3Magnitude(code & 0x7fu) * inv_scale;
    return (code & 0x80u) ? -val : val;
}

} // namespace snip

#endif // SNIP_QUANT_CODEC_H
