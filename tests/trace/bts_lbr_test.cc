/**
 * @file
 * Unit tests for the BTS and LBR baseline models.
 */

#include <gtest/gtest.h>

#include "trace/bts.hh"
#include "trace/lbr.hh"

namespace {

using namespace flowguard;
using namespace flowguard::trace;
using cpu::BranchEvent;
using cpu::BranchKind;

BranchEvent
event(BranchKind kind, uint64_t source, uint64_t target)
{
    return {kind, source, target, 0};
}

TEST(Bts, RecordsEveryTransferKind)
{
    Bts bts;
    bts.onBranch(event(BranchKind::DirectJump, 1, 2));
    bts.onBranch(event(BranchKind::DirectCall, 3, 4));
    bts.onBranch(event(BranchKind::CondTaken, 5, 6));
    bts.onBranch(event(BranchKind::CondNotTaken, 7, 8));
    bts.onBranch(event(BranchKind::IndirectJump, 9, 10));
    bts.onBranch(event(BranchKind::Return, 11, 12));
    bts.onBranch(event(BranchKind::SyscallEntry, 13, 0));
    EXPECT_EQ(bts.totalRecords(), 6u);
}

TEST(Bts, ChargesHighTracingCost)
{
    cpu::CycleAccount account;
    Bts bts(&account);
    bts.onBranch(event(BranchKind::DirectJump, 1, 2));
    EXPECT_DOUBLE_EQ(account.trace, cpu::cost::bts_record_per_branch);
}

TEST(Lbr, KeepsOnlyMostRecentDepthEntries)
{
    LbrConfig config;
    config.depth = 4;
    Lbr lbr(config);
    for (uint64_t i = 0; i < 10; ++i)
        lbr.onBranch(event(BranchKind::Return, i, i + 100));
    auto snap = lbr.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front().from, 6u);
    EXPECT_EQ(snap.back().from, 9u);
    EXPECT_EQ(lbr.totalRecorded(), 10u);
}

TEST(Lbr, OnlyTakenConditionalsRecorded)
{
    Lbr lbr(LbrConfig{});
    lbr.onBranch(event(BranchKind::CondTaken, 1, 2));
    lbr.onBranch(event(BranchKind::CondNotTaken, 3, 4));
    EXPECT_EQ(lbr.totalRecorded(), 1u);
}

TEST(Lbr, CofiTypeFiltering)
{
    LbrConfig config;
    config.recordConditional = false;
    config.recordDirect = false;
    Lbr lbr(config);
    lbr.onBranch(event(BranchKind::CondTaken, 1, 2));
    lbr.onBranch(event(BranchKind::DirectJump, 3, 4));
    lbr.onBranch(event(BranchKind::DirectCall, 5, 6));
    lbr.onBranch(event(BranchKind::Return, 7, 8));
    lbr.onBranch(event(BranchKind::IndirectCall, 9, 10));
    auto snap = lbr.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].kind, BranchKind::Return);
    EXPECT_EQ(snap[1].kind, BranchKind::IndirectCall);
}

TEST(Lbr, SyscallsNotRecorded)
{
    Lbr lbr(LbrConfig{});
    lbr.onBranch(event(BranchKind::SyscallEntry, 1, 0));
    lbr.onBranch(event(BranchKind::SyscallExit, 1, 2));
    EXPECT_EQ(lbr.totalRecorded(), 0u);
}

} // namespace
