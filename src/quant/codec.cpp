#include "quant/codec.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/logging.h"
#include "util/rng.h"

namespace snip {

const char *
roundingName(Rounding r)
{
    switch (r) {
        case Rounding::Nearest:
            return "nearest";
        case Rounding::Stochastic:
            return "stochastic";
    }
    return "?";
}

double
ulpAt(float x, const FloatFormat &fmt)
{
    double ax = std::fabs(static_cast<double>(x));
    double max_v = fmt.maxValue();
    if (ax > max_v)
        ax = max_v;
    double min_normal = fmt.minNormal();
    if (ax < min_normal)
        return fmt.minSubnormal();
    // frexp gives ax = m * 2^e with m in [0.5, 1), so the binade
    // exponent is e-1; exact and much faster than log2+floor.
    int e;
    std::frexp(ax, &e);
    return std::ldexp(1.0, (e - 1) - fmt.mantissa_bits);
}

QuantGrid
quantGrid(const FloatFormat &fmt)
{
    QuantGrid g;
    g.max_value = static_cast<float>(fmt.maxValue());
    g.min_normal = static_cast<float>(fmt.minNormal());
    g.min_subnormal = static_cast<float>(fmt.minSubnormal());
    // 1/minSubnormal = 2^(bias + mantissa_bits - 1); split into two
    // factors so each stays a normal float even for bf16 (2^133).
    int t = fmt.bias + fmt.mantissa_bits - 1;
    int hi = t / 2;
    g.inv_min_sub_hi = std::ldexp(1.0f, hi);
    g.inv_min_sub_lo = std::ldexp(1.0f, t - hi);
    g.two_pow_neg_mant = std::ldexp(1.0f, -fmt.mantissa_bits);
    g.mantissa_bits = fmt.mantissa_bits;
    return g;
}

namespace {

/**
 * Common quantization path: clamp, express x as (grid index) * ulp, round
 * the index by the chosen rule, return index * ulp with the sign
 * restored.
 */
float
quantizeImpl(float x, const FloatFormat &fmt, Rounding mode, Rng *rng)
{
    if (x == 0.0f || !std::isfinite(x))
        return std::isfinite(x) ? 0.0f : (x > 0 ? 1.0f : -1.0f) *
                                             static_cast<float>(
                                                 fmt.maxValue());
    double ax = std::fabs(static_cast<double>(x));
    double max_v = fmt.maxValue();
    bool saturated = false;
    if (ax >= max_v) {
        ax = max_v;
        saturated = true;
    }
    double sign = x < 0 ? -1.0 : 1.0;
    if (saturated)
        return static_cast<float>(sign * max_v);

    double ulp = ulpAt(static_cast<float>(ax), fmt);
    double q = ax / ulp;
    double lo = std::floor(q);
    double frac = q - lo;
    double rounded;
    if (mode == Rounding::Stochastic) {
        SNIP_ASSERT(rng != nullptr, "stochastic rounding needs an Rng");
        rounded = lo + (rng->nextDouble() < frac ? 1.0 : 0.0);
    } else {
        if (frac > 0.5) {
            rounded = lo + 1.0;
        } else if (frac < 0.5) {
            rounded = lo;
        } else {
            // Ties to even grid index.
            rounded = (static_cast<int64_t>(lo) % 2 == 0) ? lo : lo + 1.0;
        }
    }
    double result = rounded * ulp;
    // Rounding up across a binade boundary lands exactly on the next
    // power of two, which is itself on the grid, so no fixup is needed;
    // only the very top can exceed max.
    if (result > max_v)
        result = max_v;
    return static_cast<float>(sign * result);
}

} // namespace

float
quantizeNearest(float x, const FloatFormat &fmt)
{
    return quantizeImpl(x, fmt, Rounding::Nearest, nullptr);
}

float
quantizeStochastic(float x, const FloatFormat &fmt, Rng &rng)
{
    return quantizeImpl(x, fmt, Rounding::Stochastic, &rng);
}

float
quantizeValue(float x, const FloatFormat &fmt, Rounding mode, Rng *rng)
{
    return quantizeImpl(x, fmt, mode, rng);
}

namespace {

/** Byte code of @p q by bit manipulation into @p code; true when the
 *  code decodes back to q bit for bit (q is on the e4m3 grid). */
inline bool
tryEncodeE4m3(float q, uint8_t *code)
{
    uint32_t bits;
    std::memcpy(&bits, &q, sizeof(bits));
    const uint32_t abs_bits = bits & 0x7fffffffu;
    // Below 2^-6 a grid value is a multiple of 2^-9 (exact scale);
    // above it the float's exponent and top three mantissa bits are
    // the code once the exponent is re-biased from 127 to 7.
    const uint32_t mag_code =
        abs_bits < 0x3c800000u
            ? static_cast<uint32_t>(std::fabs(q) * 0x1p9f)
            : (abs_bits >> 20) - (120u << 3);
    const uint32_t sign = (bits >> 24) & 0x80u;
    *code = static_cast<uint8_t>(sign | (mag_code & 0x7fu));
    const float mag = e4m3Magnitude(mag_code & 0x7fu);
    uint32_t back;
    std::memcpy(&back, &mag, sizeof(back));
    return mag_code < 0x7fu && (back | (sign << 24)) == bits;
}

} // namespace

uint8_t
encodeE4m3(float q)
{
    uint8_t code;
    SNIP_ASSERT(tryEncodeE4m3(q, &code), "value ", q,
                " is not on the e4m3 grid");
    return code;
}

void
encodeE4m3(const float *q, int64_t n, uint8_t *codes)
{
    bool on_grid = true;
    for (int64_t i = 0; i < n; ++i)
        on_grid &= tryEncodeE4m3(q[i], &codes[i]);
    if (!on_grid)
        for (int64_t i = 0; i < n; ++i)
            encodeE4m3(q[i]); // dies naming the first off-grid value
}

float
decodeE4m3(uint8_t code)
{
    if ((code & 0x7fu) == 0x7fu)
        return std::numeric_limits<float>::quiet_NaN();
    const float mag = e4m3Magnitude(code & 0x7fu);
    return (code & 0x80u) ? -mag : mag;
}

} // namespace snip
