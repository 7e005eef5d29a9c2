/**
 * @file
 * Unit tests for the AFL-style coverage machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/coverage.hh"

namespace {

using namespace flowguard;
using namespace flowguard::fuzz;

/** Number of non-zero cells. */
size_t
populatedCells(const CoverageMap &map)
{
    return coverage_map_size -
        static_cast<size_t>(
            std::count(map.raw().begin(), map.raw().end(), 0));
}

TEST(CoverageMap, HitCountsAccumulate)
{
    CoverageMap map;
    EXPECT_EQ(populatedCells(map), 0u);
    map.hit(5);
    map.hit(5);
    map.hit(9);
    EXPECT_EQ(populatedCells(map), 2u);
    EXPECT_EQ(map.raw()[5], 2);
    EXPECT_EQ(map.raw()[9], 1);
}

TEST(CoverageMap, SaturatesInsteadOfWrapping)
{
    CoverageMap map;
    for (int i = 0; i < 300; ++i)
        map.hit(1);
    EXPECT_EQ(map.raw()[1], 255);
}

TEST(CoverageMap, IndexWraps)
{
    CoverageMap map;
    map.hit(coverage_map_size + 3);
    EXPECT_EQ(map.raw()[3], 1);
}

TEST(GlobalCoverage, NewEdgeIsNew)
{
    GlobalCoverage global;
    CoverageMap map;
    map.hit(7);
    EXPECT_TRUE(global.mergeAndCheckNew(map));
    EXPECT_FALSE(global.mergeAndCheckNew(map));   // same again: stale
    EXPECT_GT(global.bitsSeen(), 0u);
}

TEST(GlobalCoverage, NewBucketOnSameEdgeIsNew)
{
    GlobalCoverage global;
    CoverageMap once;
    once.hit(7);
    EXPECT_TRUE(global.mergeAndCheckNew(once));

    CoverageMap thrice;
    thrice.hit(7);
    thrice.hit(7);
    thrice.hit(7);
    // Count bucket 3 differs from bucket 1: still interesting.
    EXPECT_TRUE(global.mergeAndCheckNew(thrice));
}

TEST(GlobalCoverage, BucketBoundaries)
{
    GlobalCoverage global;
    auto map_with = [](int hits) {
        CoverageMap map;
        for (int i = 0; i < hits; ++i)
            map.hit(0);
        return map;
    };
    EXPECT_TRUE(global.mergeAndCheckNew(map_with(4)));
    // 4..7 share a bucket.
    EXPECT_FALSE(global.mergeAndCheckNew(map_with(7)));
    EXPECT_TRUE(global.mergeAndCheckNew(map_with(8)));
}

TEST(CoverageSink, DistinguishesEdgesNotJustTargets)
{
    // A->C and B->C must hash to different cells (edge coverage).
    CoverageMap map_ac;
    CoverageSink sink_ac(map_ac);
    sink_ac.onBranch({cpu::BranchKind::DirectJump, 0xA, 0x100, 0});
    sink_ac.onBranch({cpu::BranchKind::DirectJump, 0x100, 0xC, 0});

    CoverageMap map_bc;
    CoverageSink sink_bc(map_bc);
    sink_bc.onBranch({cpu::BranchKind::DirectJump, 0xB, 0x200, 0});
    sink_bc.onBranch({cpu::BranchKind::DirectJump, 0x200, 0xC, 0});

    EXPECT_NE(map_ac.raw(), map_bc.raw());
}

TEST(CoverageSink, ResetStateForgetsHistory)
{
    CoverageMap a, b;
    CoverageSink sink_a(a);
    sink_a.onBranch({cpu::BranchKind::DirectJump, 1, 0x10, 0});
    sink_a.onBranch({cpu::BranchKind::DirectJump, 2, 0x20, 0});

    CoverageSink sink_b(b);
    sink_b.onBranch({cpu::BranchKind::DirectJump, 1, 0x10, 0});
    sink_b.resetState();
    sink_b.onBranch({cpu::BranchKind::DirectJump, 2, 0x20, 0});
    // The second edge differs because prev-state was reset.
    EXPECT_NE(a.raw(), b.raw());
}

} // namespace
