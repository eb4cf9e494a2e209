/**
 * @file
 * Scaling granularities: the region grid, scale counts (the memory-
 * overhead accounting of Sec. 6.3), and scale values.
 */
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "quant/scaling.h"
#include "simd/dispatch.h"

namespace snip {
namespace {

/** The grid's regions, in index order, for inspection. */
std::vector<std::array<int64_t, 4>>
regions(int64_t rows, int64_t cols, const ScalingSpec &spec)
{
    const RegionGrid grid = regionGrid(rows, cols, spec);
    std::vector<std::array<int64_t, 4>> out;
    for (int64_t i = 0; i < grid.count(); ++i) {
        const ScalingRegion r = grid.region(i);
        out.push_back({r.r0, r.r1, r.c0, r.c1});
    }
    return out;
}

/** Every element covered exactly once. */
void
expectPartition(int64_t rows, int64_t cols, const ScalingSpec &spec)
{
    std::vector<int> hits(static_cast<size_t>(rows * cols), 0);
    for (const auto &r : regions(rows, cols, spec))
        for (int64_t row = r[0]; row < r[1]; ++row)
            for (int64_t c = r[2]; c < r[3]; ++c)
                hits[static_cast<size_t>(row * cols + c)]++;
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Scaling, TensorwiseIsOneRegion)
{
    auto r = regions(5, 7, {Granularity::Tensorwise, 128});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0], (std::array<int64_t, 4>{0, 5, 0, 7}));
}

TEST(Scaling, RowwiseOneRegionPerRow)
{
    auto r = regions(4, 9, {Granularity::Rowwise, 128});
    EXPECT_EQ(r.size(), 4u);
    expectPartition(4, 9, {Granularity::Rowwise, 128});
}

TEST(Scaling, ColumnwiseOneRegionPerColumn)
{
    EXPECT_EQ(regions(4, 9, {Granularity::Columnwise, 128}).size(), 9u);
    expectPartition(4, 9, {Granularity::Columnwise, 128});
}

TEST(Scaling, BlockwisePartitionsWithRaggedEdges)
{
    // 130x70 with 64-blocks: 3x2 block grid.
    auto r = regions(130, 70, {Granularity::Blockwise, 64});
    EXPECT_EQ(r.size(), 6u);
    expectPartition(130, 70, {Granularity::Blockwise, 64});
}

TEST(Scaling, TilewisePartitionsRowsIntoTiles)
{
    // 3 rows x 300 cols with 128-tiles: 3 * ceil(300/128)=3*3.
    auto r = regions(3, 300, {Granularity::Tilewise, 128});
    EXPECT_EQ(r.size(), 9u);
    expectPartition(3, 300, {Granularity::Tilewise, 128});
}

TEST(Scaling, RegionIndexIsRowMajor)
{
    // The per-region SR streams and the fused pack's scale tables are
    // keyed on this order: region 1 is the second block of the first
    // block row, the ragged 6-column one.
    const ScalingRegion r =
        regionGrid(130, 70, {Granularity::Blockwise, 64}).region(1);
    EXPECT_EQ((std::array<int64_t, 4>{r.r0, r.r1, r.c0, r.c1}),
              (std::array<int64_t, 4>{0, 64, 64, 70}));
}

TEST(Scaling, RegionCountPerGranularity)
{
    // 50 x 130 with 32-blocks: 2 block rows, 5 block columns.
    const std::pair<Granularity, int64_t> expected[] = {
        {Granularity::Tensorwise, 1},
        {Granularity::Rowwise, 50},
        {Granularity::Columnwise, 130},
        {Granularity::Blockwise, 2 * 5},
        {Granularity::Tilewise, 50 * 5},
    };
    for (const auto &[g, count] : expected) {
        ScalingSpec spec{g, 32};
        EXPECT_EQ(regionGrid(50, 130, spec).count(), count)
            << granularityName(g);
        EXPECT_EQ(static_cast<int64_t>(regions(50, 130, spec).size()),
                  count)
            << granularityName(g);
        expectPartition(50, 130, spec);
    }
}

TEST(Scaling, DeepSeekRecipeMemoryOverheadIsTiny)
{
    // 128x128 blockwise on a 4096x4096 weight: 1024 scales for 16.7M
    // elements (< 0.01%), matching the paper's <1% memory claim.
    const int64_t scales =
        regionGrid(4096, 4096, {Granularity::Blockwise, 128}).count();
    EXPECT_EQ(scales, 32 * 32);
    EXPECT_LT(static_cast<double>(scales) / (4096.0 * 4096.0), 0.01);
}

TEST(Scaling, RegionScaleMapsMaxAbsToFormatMax)
{
    const float x[] = {2.0f, -1.0f};
    const RegionScale rs = scaleRegion(simd::activeKernels(), x, 2,
                                       {0, 1, 0, 2}, /*fmt_max=*/6.0);
    EXPECT_EQ(rs.scale, 3.0f);
    EXPECT_EQ(rs.inv, static_cast<float>(1.0 / 3.0));
}

TEST(Scaling, ZeroRegionGetsUnitScale)
{
    const float x[] = {0.0f, -0.0f, 0.0f, 0.0f};
    const RegionScale rs = scaleRegion(simd::activeKernels(), x, 2,
                                       {0, 2, 0, 2}, /*fmt_max=*/6.0);
    EXPECT_EQ(rs.scale, 1.0f);
    EXPECT_EQ(rs.inv, 1.0f);
}

TEST(Scaling, MatrixViewFlattensLeadingDims)
{
    Tensor t({2, 3, 4});
    int64_t rows, cols;
    matrixView(t, rows, cols);
    EXPECT_EQ(rows, 6);
    EXPECT_EQ(cols, 4);

    Tensor v({5});
    matrixView(v, rows, cols);
    EXPECT_EQ(rows, 1);
    EXPECT_EQ(cols, 5);
}

} // namespace
} // namespace snip
