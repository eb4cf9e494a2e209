/**
 * @file
 * Scalar quantization codec: exact grids, rounding rules, saturation,
 * and stochastic-rounding unbiasedness (the property that motivates SR
 * for FP4 gradients, Sec. 6.1).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "quant/codec.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/rng.h"

namespace snip {
namespace {

TEST(Codec, Fp4GridIsExactlyTheMxValueSet)
{
    // Every representable value must round-trip to itself.
    const double grid[] = {0,   0.5, 1,  1.5, 2,  3,  4,  6,
                           -0.5, -1, -1.5, -2, -3, -4, -6};
    for (double v : grid)
        EXPECT_EQ(quantizeNearest(static_cast<float>(v), fp4E2m1()), v);
}

TEST(Codec, Fp4NearestRoundsToClosestGridPoint)
{
    EXPECT_EQ(quantizeNearest(0.9f, fp4E2m1()), 1.0f);
    EXPECT_EQ(quantizeNearest(1.2f, fp4E2m1()), 1.0f);
    EXPECT_EQ(quantizeNearest(1.3f, fp4E2m1()), 1.5f);
    EXPECT_EQ(quantizeNearest(2.4f, fp4E2m1()), 2.0f);
    EXPECT_EQ(quantizeNearest(2.6f, fp4E2m1()), 3.0f);
    EXPECT_EQ(quantizeNearest(-4.9f, fp4E2m1()), -5.0f + 1.0f);
}

TEST(Codec, TiesGoToEvenGridIndex)
{
    // 2.5 is exactly between 2 (even index on the [2,4) binade grid)
    // and 3: ties-to-even picks the even mantissa, i.e. 2.
    EXPECT_EQ(quantizeNearest(2.5f, fp4E2m1()), 2.0f);
    // 1.25 between 1.0 and 1.5 -> grid indices 2 (1.0) and 3 -> 1.0.
    EXPECT_EQ(quantizeNearest(1.25f, fp4E2m1()), 1.0f);
    // 5.0 between 4 and 6 -> 4.
    EXPECT_EQ(quantizeNearest(5.0f, fp4E2m1()), 4.0f);
}

TEST(Codec, SaturatesAtMax)
{
    EXPECT_EQ(quantizeNearest(100.0f, fp4E2m1()), 6.0f);
    EXPECT_EQ(quantizeNearest(-1e9f, fp4E2m1()), -6.0f);
    EXPECT_EQ(quantizeNearest(500.0f, fp8E4m3()), 448.0f);
    EXPECT_EQ(quantizeNearest(1e6f, fp8E5m2()), 57344.0f);
}

TEST(Codec, SubnormalsFlushToSubnormalGrid)
{
    // Below minNormal=1.0 for E2M1 the grid spacing is 0.5.
    EXPECT_EQ(quantizeNearest(0.3f, fp4E2m1()), 0.5f);
    EXPECT_EQ(quantizeNearest(0.2f, fp4E2m1()), 0.0f);
    EXPECT_EQ(quantizeNearest(-0.3f, fp4E2m1()), -0.5f);
}

TEST(Codec, ZeroAndSignPreserved)
{
    EXPECT_EQ(quantizeNearest(0.0f, fp4E2m1()), 0.0f);
    EXPECT_LT(quantizeNearest(-2.9f, fp4E2m1()), 0.0f);
}

TEST(Codec, NonFiniteInputsSaturate)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(quantizeNearest(inf, fp4E2m1()), 6.0f);
    EXPECT_EQ(quantizeNearest(-inf, fp4E2m1()), -6.0f);
}

TEST(Codec, UlpMatchesGridSpacing)
{
    EXPECT_DOUBLE_EQ(ulpAt(1.2f, fp4E2m1()), 0.5);
    EXPECT_DOUBLE_EQ(ulpAt(2.5f, fp4E2m1()), 1.0);
    EXPECT_DOUBLE_EQ(ulpAt(5.0f, fp4E2m1()), 2.0);
    EXPECT_DOUBLE_EQ(ulpAt(0.1f, fp4E2m1()), 0.5);
    EXPECT_DOUBLE_EQ(ulpAt(2.0f, fp4E2m1()), 1.0);
}

TEST(Codec, NearestErrorBoundedByHalfUlp)
{
    Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        float x = static_cast<float>(rng.nextGaussian() * 2.0);
        if (std::fabs(x) >= 6.0f)
            continue;
        float q = quantizeNearest(x, fp4E2m1());
        EXPECT_LE(std::fabs(q - x), 0.5 * ulpAt(x, fp4E2m1()) + 1e-7);
    }
}

TEST(Codec, StochasticRoundingLandsOnNeighbours)
{
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        float x = 1.0f + 3.0f * rng.nextFloat();
        float q = quantizeStochastic(x, fp4E2m1(), rng);
        // q is a grid point adjacent to x.
        EXPECT_LE(std::fabs(q - x), ulpAt(x, fp4E2m1()) + 1e-7);
        EXPECT_EQ(q, quantizeNearest(q, fp4E2m1()));
    }
}

TEST(Codec, StochasticRoundingIsUnbiased)
{
    // E[q(x)] = x is the property preventing training stagnation.
    Rng rng(3);
    const float x = 2.3f; // between 2 and 3
    double sum = 0.0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        sum += quantizeStochastic(x, fp4E2m1(), rng);
    EXPECT_NEAR(sum / n, x, 0.01);
}

TEST(Codec, NearestIsBiasedTowardNearerPoint)
{
    // Contrast with SR: RNE of 2.3 is always 2.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(quantizeNearest(2.3f, fp4E2m1()), 2.0f);
}

class CodecFormats : public ::testing::TestWithParam<const FloatFormat *>
{
};

TEST_P(CodecFormats, RoundTripIdempotent)
{
    const FloatFormat &fmt = *GetParam();
    Rng rng(4);
    for (int i = 0; i < 2000; ++i) {
        float x = static_cast<float>(rng.nextGaussian() *
                                     fmt.maxValue() * 0.3);
        float q = quantizeNearest(x, fmt);
        EXPECT_EQ(quantizeNearest(q, fmt), q);
    }
}

TEST_P(CodecFormats, MagnitudeCountMatchesEnumeratedGrid)
{
    const FloatFormat &fmt = *GetParam();
    if (fmt.bits() > 8)
        GTEST_SKIP() << "enumeration only for <= 8-bit formats";
    std::set<float> values;
    // Geometric sweep so subnormals of wide-range formats (E5M2) are
    // sampled as densely as the top binade.
    const double lo = fmt.minSubnormal() * 0.49;
    const double hi = fmt.maxValue();
    const int steps = 200'000;
    for (int i = 0; i <= steps; ++i) {
        double x = lo * std::pow(hi / lo, static_cast<double>(i) / steps);
        values.insert(quantizeNearest(static_cast<float>(x), fmt));
    }
    values.erase(0.0f);
    EXPECT_EQ(static_cast<int>(values.size()), fmt.magnitudeCount());
}

INSTANTIATE_TEST_SUITE_P(AllFormats, CodecFormats,
                         ::testing::Values(&fp4E2m1(), &fp8E4m3(),
                                           &fp8E5m2(), &fp6E3m2()));

// ------------------------------------------------ FP8-E4M3 byte codes

/**
 * Oracle: every finite E4M3 magnitude in ascending order (index 0 is
 * zero), enumerated from the format's fields in double and sorted —
 * independent of the codec's bit manipulation.
 */
std::vector<float>
e4m3OracleMagnitudes()
{
    const FloatFormat &fmt = fp8E4m3();
    const int m = fmt.mantissa_bits;
    const int e_top = (1 << fmt.exponent_bits) - 1;
    std::vector<float> out = {0.0f};
    for (int e = 0; e <= e_top; ++e) {
        for (int frac = 0; frac < (1 << m); ++frac) {
            if (e == 0 && frac == 0)
                continue;
            if (e == e_top && fmt.has_nan && frac == (1 << m) - 1)
                continue; // the NaN pattern
            const double mant = static_cast<double>(frac) / (1 << m);
            out.push_back(static_cast<float>(
                e == 0 ? std::ldexp(mant, 1 - fmt.bias)
                       : std::ldexp(1.0 + mant, e - fmt.bias)));
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** The oracle's value of byte code @p c (c & 0x7f < 127). */
float
e4m3OracleValue(const std::vector<float> &mags, int c)
{
    const float mag = mags[static_cast<size_t>(c & 0x7f)];
    return (c & 0x80) ? -mag : mag;
}

uint32_t
bitsOf(float x)
{
    uint32_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
}

TEST(E4m3Codes, EveryCodeMatchesTheEnumeratedGrid)
{
    const std::vector<float> mags = e4m3OracleMagnitudes();
    ASSERT_EQ(mags.size(), 127u);
    EXPECT_EQ(static_cast<int>(mags.size()) - 1,
              fp8E4m3().magnitudeCount());
    int non_nan = 0;
    for (int c = 0; c < 256; ++c) {
        SCOPED_TRACE(c);
        const uint8_t code = static_cast<uint8_t>(c);
        if ((c & 0x7f) == 0x7f) {
            EXPECT_TRUE(std::isnan(decodeE4m3(code)));
            continue;
        }
        ++non_nan;
        const float want = e4m3OracleValue(mags, c);
        EXPECT_EQ(bitsOf(decodeE4m3(code)), bitsOf(want));
        EXPECT_EQ(encodeE4m3(decodeE4m3(code)), code);
        EXPECT_EQ(bitsOf(dequantE4m3(code, 1.0f)), bitsOf(want));
    }
    EXPECT_EQ(non_nan, 254);
    EXPECT_EQ(encodeE4m3(0.0f), 0x00);
    EXPECT_EQ(encodeE4m3(-0.0f), 0x80);
}

TEST(E4m3Codes, EveryNearestRoundedValueEncodes)
{
    // Whatever quantizeNearest() returns is on the grid, so it encodes
    // and decodes back bit for bit — saturated, subnormal and zero
    // results included.
    const FloatFormat &fmt = fp8E4m3();
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const float x = static_cast<float>(
            std::ldexp(rng.nextGaussian(), static_cast<int>(
                                                rng.nextBelow(40)) -
                                                20));
        const float q = quantizeNearest(x, fmt);
        EXPECT_EQ(bitsOf(decodeE4m3(encodeE4m3(q))), bitsOf(q)) << x;
    }
}

TEST(E4m3Codes, OffGridValuesDie)
{
    EXPECT_DEATH(encodeE4m3(0.3f), "is not on the e4m3 grid");
    EXPECT_DEATH(encodeE4m3(-500.0f), "is not on the e4m3 grid");
    EXPECT_DEATH(encodeE4m3(480.0f), "is not on the e4m3 grid");
    EXPECT_DEATH(encodeE4m3(0x1p-10f), "is not on the e4m3 grid");
    EXPECT_DEATH(encodeE4m3(std::numeric_limits<float>::quiet_NaN()),
                 "is not on the e4m3 grid");
    EXPECT_DEATH(encodeE4m3(std::numeric_limits<float>::infinity()),
                 "is not on the e4m3 grid");
}

TEST(E4m3Codes, EveryBackendDequantizesLikeTheOracle)
{
    // Each backend's in-register decode, seen through its kvAttend
    // walker: one stored token, so the softmax weight is exactly 1 and
    // the context row is 0 + 1 * v[d] — the dequantized code itself
    // (with -0 folded to +0 by the sum). All 254 non-NaN codes sit in
    // one row, in ascending and in descending order, so each code
    // passes through a vector lane and through a row tail.
    const std::vector<float> mags = e4m3OracleMagnitudes();
    std::vector<uint8_t> ascending;
    for (int c = 0; c < 256; ++c)
        if ((c & 0x7f) != 0x7f)
            ascending.push_back(static_cast<uint8_t>(c));
    std::vector<uint8_t> descending(ascending.rbegin(), ascending.rend());
    const int64_t hd = static_cast<int64_t>(ascending.size());

    std::vector<const simd::KernelTable *> tables = {
        &simd::scalarKernels()};
    if (simd::cpuSupportsAvx2())
        tables.push_back(&simd::avx2Kernels());
    const int32_t page = 0;
    for (const simd::KernelTable *kt : tables) {
        for (const std::vector<uint8_t> *codes : {&ascending, &descending}) {
            for (float inv : {1.0f, 0.37f, 3.0e-3f, 1.0f / 448.0f}) {
                SCOPED_TRACE(std::string(kt->name) + " inv " +
                             std::to_string(inv));
                simd::KvHeadView kv;
                kv.pages = &page;
                kv.len = 1;
                kv.page_tokens = 1;
                kv.head_dim = hd;
                kv.k_codes = codes->data();
                kv.v_codes = codes->data();
                kv.k_inv = &inv;
                kv.v_inv = &inv;
                const std::vector<float> q(static_cast<size_t>(hd), 0.0f);
                std::vector<float> scratch(
                    static_cast<size_t>(simd::kvAttendScratch(kv, 1)));
                std::vector<float> ctx(static_cast<size_t>(hd), -1.0f);
                kt->kvAttend(kv, q.data(), 1, 0.5f, scratch.data(),
                             ctx.data());
                EXPECT_EQ(scratch[0], 1.0f);
                for (int64_t d = 0; d < hd; ++d) {
                    const int c = (*codes)[static_cast<size_t>(d)];
                    const float mag =
                        mags[static_cast<size_t>(c & 0x7f)] * inv;
                    const float want = 0.0f + ((c & 0x80) ? -mag : mag);
                    ASSERT_EQ(bitsOf(ctx[static_cast<size_t>(d)]),
                              bitsOf(want))
                        << "code " << c;
                }
            }
        }
    }
}

} // namespace
} // namespace snip
