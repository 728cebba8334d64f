/**
 * @file
 * Unit tests for the L1 controller (private L0+L1 hierarchy) through
 * the mock fabric: hit/miss latencies, fill handling, dirty
 * writebacks on eviction, invalidations, and writeback requests
 * (including the stale-crossing case).
 */

#include <gtest/gtest.h>

#include "coherence/l1_controller.hh"

#include "mock_fabric.hh"

namespace consim
{
namespace
{

class L1Unit : public ::testing::Test
{
  protected:
    L1Unit() : l1_(fab_, 0)
    {
        l1_.setMissCallback([this] { ++fills_; });
    }

    /** Deliver a fill for an outstanding miss. */
    void
    fill(BlockAddr block, bool is_write)
    {
        Msg m;
        m.type = MsgType::L1Data;
        m.block = block;
        m.isWrite = is_write;
        m.vm = 0;
        m.srcTile = 1;
        m.dstTile = 0;
        l1_.handle(m);
    }

    /** Miss on a block and immediately fill it. */
    void
    missAndFill(BlockAddr block, bool is_write)
    {
        const auto res = l1_.access(block, is_write);
        ASSERT_FALSE(res.hit);
        fill(block, is_write);
    }

    MockFabric fab_;
    L1Controller l1_;
    int fills_ = 0;
};

TEST_F(L1Unit, ColdReadMissSendsGetSToCorrectBank)
{
    const BlockAddr block = 6; // group 0 bank = members[6 % 4] = 4
    const auto res = l1_.access(block, false);
    EXPECT_FALSE(res.hit);
    const auto reqs = fab_.ofType(MsgType::L1GetS);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].dstTile, 4);
    EXPECT_EQ(reqs[0].dstUnit, Unit::L2Bank);
    EXPECT_EQ(reqs[0].reqCore, 0);
}

TEST_F(L1Unit, FillCompletesAndSubsequentReadHitsInL0)
{
    missAndFill(6, false);
    EXPECT_EQ(fills_, 1);
    EXPECT_EQ(fab_.l1Misses, 1);
    const auto res = l1_.access(6, false);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.latency, fab_.config().l0Latency);
}

TEST_F(L1Unit, L0MissL1HitPaysBothLatencies)
{
    missAndFill(6, false);
    // Evict 6 from the tiny L0 by filling conflicting blocks through
    // reads that are L1 misses; L0 is 8KB/2-way = 64 sets.
    const auto sets =
        fab_.config().l0Bytes / blockBytes / fab_.config().l0Assoc;
    missAndFill(6 + sets, false);
    missAndFill(6 + 2 * sets, false);
    const auto res = l1_.access(6, false);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.latency,
              fab_.config().l0Latency + fab_.config().l1Latency);
}

TEST_F(L1Unit, WriteToSharedLineUpgrades)
{
    missAndFill(6, false); // line now S
    const auto res = l1_.access(6, true);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(fab_.ofType(MsgType::L1GetM).size(), 1u);
    fill(6, true);
    // Now the write hits locally.
    const auto res2 = l1_.access(6, true);
    EXPECT_TRUE(res2.hit);
}

TEST_F(L1Unit, DirtyEvictionSendsPutM)
{
    // L1: 64KB 4-way = 256 sets. Fill five conflicting lines; the
    // first (dirty) must be written back.
    const auto sets =
        fab_.config().l1Bytes / blockBytes / fab_.config().l1Assoc;
    missAndFill(8, true); // dirty
    for (int i = 1; i <= 4; ++i)
        missAndFill(8 + i * sets * 1, false);
    const auto puts = fab_.ofType(MsgType::L1PutM);
    ASSERT_EQ(puts.size(), 1u);
    EXPECT_EQ(puts[0].block, 8u);
    // The block is gone now.
    EXPECT_FALSE(l1_.access(8, false).hit);
}

TEST_F(L1Unit, CleanEvictionIsSilent)
{
    const auto sets =
        fab_.config().l1Bytes / blockBytes / fab_.config().l1Assoc;
    for (int i = 0; i <= 4; ++i)
        missAndFill(8 + i * sets, false);
    EXPECT_TRUE(fab_.ofType(MsgType::L1PutM).empty());
}

TEST_F(L1Unit, InvalidationDropsLineAndAcks)
{
    missAndFill(6, false);
    Msg inv;
    inv.type = MsgType::L1Inv;
    inv.block = 6;
    inv.srcTile = 4;
    l1_.handle(inv);
    EXPECT_EQ(fab_.ofType(MsgType::L1InvAck).size(), 1u);
    EXPECT_EQ(fab_.ofType(MsgType::L1InvAck)[0].dstTile, 4);
    EXPECT_FALSE(l1_.access(6, false).hit);
    l1_.checkInvariants();
}

TEST_F(L1Unit, InvalidationForAbsentLineStillAcks)
{
    Msg inv;
    inv.type = MsgType::L1Inv;
    inv.block = 99;
    inv.srcTile = 4;
    l1_.handle(inv);
    EXPECT_EQ(fab_.ofType(MsgType::L1InvAck).size(), 1u);
}

TEST_F(L1Unit, WbReqDowngradesOwnerToShared)
{
    missAndFill(6, true); // M
    Msg wb;
    wb.type = MsgType::L1WbReq;
    wb.block = 6;
    wb.srcTile = 4;
    wb.toInvalid = false;
    l1_.handle(wb);
    const auto data = fab_.ofType(MsgType::L1WbData);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_FALSE(data[0].stale);
    // Still readable (S), but a write must upgrade again.
    EXPECT_TRUE(l1_.access(6, false).hit);
    EXPECT_FALSE(l1_.access(6, true).hit);
}

TEST_F(L1Unit, WbReqToInvalidDropsLine)
{
    missAndFill(6, true);
    Msg wb;
    wb.type = MsgType::L1WbReq;
    wb.block = 6;
    wb.srcTile = 4;
    wb.toInvalid = true;
    l1_.handle(wb);
    ASSERT_EQ(fab_.ofType(MsgType::L1WbData).size(), 1u);
    EXPECT_FALSE(l1_.access(6, false).hit);
    l1_.checkInvariants();
}

TEST_F(L1Unit, WbReqForAbsentLineRepliesStale)
{
    Msg wb;
    wb.type = MsgType::L1WbReq;
    wb.block = 6;
    wb.srcTile = 4;
    wb.toInvalid = true;
    l1_.handle(wb);
    const auto data = fab_.ofType(MsgType::L1WbData);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_TRUE(data[0].stale);
}

TEST_F(L1Unit, MissLatencyIsRecorded)
{
    const auto res = l1_.access(6, false);
    ASSERT_FALSE(res.hit);
    // Simulate 40 cycles of fabric time before the fill arrives.
    fab_.advance(40);
    fill(6, false);
    EXPECT_EQ(fab_.lastMissLatency, 40u);
    EXPECT_EQ(l1_.l1Stats().missLatency.count(), 1u);
}

TEST_F(L1Unit, StatsCountHitsAndMisses)
{
    missAndFill(6, false);
    l1_.access(6, false); // L0 hit
    const auto sets =
        fab_.config().l0Bytes / blockBytes / fab_.config().l0Assoc;
    missAndFill(6 + sets, false);
    missAndFill(6 + 2 * sets, false);
    l1_.access(6, false); // L0 miss, L1 hit
    EXPECT_EQ(l1_.l1Stats().l0Hits.value(), 1u);
    EXPECT_EQ(l1_.l1Stats().l1Hits.value(), 1u);
    EXPECT_EQ(l1_.l1Stats().misses.value(), 3u);
}

} // namespace
} // namespace consim
