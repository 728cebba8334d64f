/**
 * @file
 * Unit tests for the L2 partition bank through the mock fabric:
 * local miss/hit flows against a hand-played home directory, forward
 * service (clean, dirty, with owner extraction), invalidations,
 * inclusive back-invalidation, eviction writebacks (and the victim
 * choice around busy lines), and the writeback-buffer window.
 *
 * The bank under test sits at tile 0 (shared-4-way: group 0 =
 * {0,1,4,5}, bank index 0 serves blocks with block % 4 == 0).
 */

#include <gtest/gtest.h>

#include "coherence/l2_bank.hh"

#include "mock_fabric.hh"

namespace consim
{
namespace
{

class L2BankUnit : public ::testing::Test
{
  protected:
    L2BankUnit() : tables_(fab_.cfg_), bank_(fab_, 0, tables_)
    {
        fab_.attach(bank_);
    }

    Msg
    l1Req(MsgType t, BlockAddr block, CoreId core)
    {
        Msg m;
        m.type = t;
        m.block = block;
        m.srcTile = core;
        m.srcUnit = Unit::L1;
        m.dstTile = 0;
        m.dstUnit = Unit::L2Bank;
        m.reqCore = core;
        m.reqGroup = 0;
        m.vm = 0;
        return m;
    }

    /** Play the home's response to an outstanding GetS/GetM. */
    void
    grantAndData(BlockAddr block, L2State state, bool no_data = false,
                 bool c2c = false, bool dirty = false)
    {
        Msg g;
        g.type = MsgType::Grant;
        g.block = block;
        g.grantState = state;
        g.noDataNeeded = no_data;
        g.vm = 0;
        bank_.handle(g);
        if (!no_data) {
            Msg d;
            d.type = MsgType::Data;
            d.block = block;
            d.c2cTransfer = c2c;
            d.dirtyData = dirty;
            d.vm = 0;
            bank_.handle(d);
        }
        fab_.drainEvents();
    }

    /** Full cold-read choreography: miss -> home -> fill -> L1Data. */
    void
    coldRead(BlockAddr block, CoreId core,
             L2State grant = L2State::Exclusive)
    {
        bank_.handle(l1Req(MsgType::L1GetS, block, core));
        fab_.drainEvents();
        grantAndData(block, grant);
    }

    void
    coldWrite(BlockAddr block, CoreId core)
    {
        bank_.handle(l1Req(MsgType::L1GetM, block, core));
        fab_.drainEvents();
        grantAndData(block, L2State::Modified);
    }

    MockFabric fab_;
    L2Bank::Tables tables_;
    L2Bank bank_;
};

TEST_F(L2BankUnit, MissGoesToHomeThenFillsAndGrants)
{
    bank_.handle(l1Req(MsgType::L1GetS, 8, 1));
    fab_.drainEvents();
    const auto gets = fab_.ofType(MsgType::GetS);
    ASSERT_EQ(gets.size(), 1u);
    EXPECT_EQ(gets[0].dstUnit, Unit::Dir);
    EXPECT_EQ(gets[0].reqGroup, 0);
    EXPECT_EQ(gets[0].reqBankTile, 0);

    grantAndData(8, L2State::Exclusive);
    const auto fills = fab_.ofType(MsgType::L1Data);
    ASSERT_EQ(fills.size(), 1u);
    EXPECT_EQ(fills[0].dstTile, 1);
    EXPECT_FALSE(fills[0].isWrite);
    EXPECT_EQ(fab_.ofType(MsgType::Done).size(), 1u);
    EXPECT_TRUE(bank_.idle());
    EXPECT_EQ(fab_.l2Misses, 1);
}

TEST_F(L2BankUnit, SecondMemberReadHitsWithoutHomeTraffic)
{
    coldRead(8, 1);
    fab_.sent.clear();
    bank_.handle(l1Req(MsgType::L1GetS, 8, 4));
    fab_.drainEvents();
    EXPECT_TRUE(fab_.ofType(MsgType::GetS).empty());
    EXPECT_EQ(fab_.ofType(MsgType::L1Data).size(), 1u);
    EXPECT_EQ(bank_.bankStats().hits.value(), 1u);
}

TEST_F(L2BankUnit, WriteAfterExclusiveReadIsLocal)
{
    coldRead(8, 1); // E grant
    fab_.sent.clear();
    bank_.handle(l1Req(MsgType::L1GetM, 8, 1));
    fab_.drainEvents();
    // Silent E->M: no home traffic, write granted locally.
    EXPECT_TRUE(fab_.ofType(MsgType::GetM).empty());
    const auto fills = fab_.ofType(MsgType::L1Data);
    ASSERT_EQ(fills.size(), 1u);
    EXPECT_TRUE(fills[0].isWrite);
}

TEST_F(L2BankUnit, WriteToSharedLineUpgradesThroughHome)
{
    coldRead(8, 1, L2State::Shared);
    fab_.sent.clear();
    bank_.handle(l1Req(MsgType::L1GetM, 8, 1));
    fab_.drainEvents();
    ASSERT_EQ(fab_.ofType(MsgType::GetM).size(), 1u);
    EXPECT_EQ(bank_.bankStats().upgrades.value(), 1u);
    grantAndData(8, L2State::Modified, /*no_data=*/true);
    ASSERT_EQ(fab_.ofType(MsgType::L1Data).size(), 1u);
    EXPECT_TRUE(bank_.idle());
}

TEST_F(L2BankUnit, WriteGrantInvalidatesOtherMemberL1s)
{
    coldRead(8, 1, L2State::Shared);
    bank_.handle(l1Req(MsgType::L1GetS, 8, 4));
    bank_.handle(l1Req(MsgType::L1GetS, 8, 5));
    fab_.drainEvents();
    fab_.sent.clear();

    bank_.handle(l1Req(MsgType::L1GetM, 8, 1));
    fab_.drainEvents();
    grantAndData(8, L2State::Modified, /*no_data=*/true);
    // Cores 4 and 5 held S copies; both get back-invalidated.
    const auto invs = fab_.ofType(MsgType::L1Inv);
    ASSERT_EQ(invs.size(), 2u);
}

TEST_F(L2BankUnit, LocalReadOfOwnedLineExtractsFromOwnerL1)
{
    coldWrite(8, 1); // core 1's L1 owns the line
    fab_.sent.clear();

    bank_.handle(l1Req(MsgType::L1GetS, 8, 4));
    fab_.drainEvents();
    const auto wbreqs = fab_.ofType(MsgType::L1WbReq);
    ASSERT_EQ(wbreqs.size(), 1u);
    EXPECT_EQ(wbreqs[0].dstTile, 1);
    EXPECT_FALSE(wbreqs[0].toInvalid);

    Msg wb;
    wb.type = MsgType::L1WbData;
    wb.block = 8;
    wb.srcTile = 1;
    bank_.handle(wb);
    fab_.drainEvents();
    ASSERT_EQ(fab_.ofType(MsgType::L1Data).size(), 1u);
    EXPECT_TRUE(bank_.idle());
}

TEST_F(L2BankUnit, CrossingPutMCompletesExtraction)
{
    coldWrite(8, 1);
    fab_.sent.clear();
    bank_.handle(l1Req(MsgType::L1GetS, 8, 4));
    fab_.drainEvents();
    ASSERT_EQ(fab_.ofType(MsgType::L1WbReq).size(), 1u);

    // The owner evicted concurrently: its PutM arrives instead.
    Msg put;
    put.type = MsgType::L1PutM;
    put.block = 8;
    put.srcTile = 1;
    bank_.handle(put);
    fab_.drainEvents();
    ASSERT_EQ(fab_.ofType(MsgType::L1Data).size(), 1u);

    // The stale WbReq answer afterwards is dropped harmlessly.
    Msg wb;
    wb.type = MsgType::L1WbData;
    wb.block = 8;
    wb.srcTile = 1;
    wb.stale = true;
    bank_.handle(wb);
    fab_.drainEvents();
    EXPECT_TRUE(bank_.idle());
}

TEST_F(L2BankUnit, FwdGetSOnCleanLineRepliesCleanData)
{
    coldRead(8, 1); // E, clean
    fab_.sent.clear();

    Msg fwd;
    fwd.type = MsgType::FwdGetS;
    fwd.block = 8;
    fwd.reqBankTile = 10;
    fwd.reqGroup = 2;
    fwd.vm = 0;
    bank_.handle(fwd);
    fab_.drainEvents();

    const auto data = fab_.ofType(MsgType::Data);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0].dstTile, 10);
    EXPECT_TRUE(data[0].c2cTransfer);
    EXPECT_FALSE(data[0].dirtyData);
    const auto acks = fab_.ofType(MsgType::FwdAck);
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_FALSE(acks[0].dirtyData);
}

TEST_F(L2BankUnit, FwdGetSOnOwnedLineExtractsThenRepliesDirty)
{
    coldWrite(8, 1);
    fab_.sent.clear();

    Msg fwd;
    fwd.type = MsgType::FwdGetS;
    fwd.block = 8;
    fwd.reqBankTile = 10;
    fwd.reqGroup = 2;
    bank_.handle(fwd);
    fab_.drainEvents();
    ASSERT_EQ(fab_.ofType(MsgType::L1WbReq).size(), 1u);
    EXPECT_TRUE(fab_.ofType(MsgType::Data).empty());

    Msg wb;
    wb.type = MsgType::L1WbData;
    wb.block = 8;
    wb.srcTile = 1;
    bank_.handle(wb);
    fab_.drainEvents();
    const auto data = fab_.ofType(MsgType::Data);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_TRUE(data[0].dirtyData);
    ASSERT_EQ(fab_.ofType(MsgType::FwdAck).size(), 1u);
    EXPECT_TRUE(fab_.ofType(MsgType::FwdAck)[0].dirtyData);
}

TEST_F(L2BankUnit, FwdGetMSurrendersLineAndBackInvalidates)
{
    coldRead(8, 1, L2State::Shared);
    bank_.handle(l1Req(MsgType::L1GetS, 8, 4));
    fab_.drainEvents();
    fab_.sent.clear();

    Msg fwd;
    fwd.type = MsgType::FwdGetM;
    fwd.block = 8;
    fwd.reqBankTile = 10;
    fwd.reqGroup = 2;
    bank_.handle(fwd);
    fab_.drainEvents();
    EXPECT_EQ(fab_.ofType(MsgType::Data).size(), 1u);
    EXPECT_EQ(fab_.ofType(MsgType::L1Inv).size(), 2u);

    // The line is gone: a new local read must miss to the home.
    fab_.sent.clear();
    bank_.handle(l1Req(MsgType::L1GetS, 8, 1));
    fab_.drainEvents();
    EXPECT_EQ(fab_.ofType(MsgType::GetS).size(), 1u);
}

TEST_F(L2BankUnit, InvDropsLineAndAcks)
{
    coldRead(8, 1, L2State::Shared);
    fab_.sent.clear();

    Msg inv;
    inv.type = MsgType::Inv;
    inv.block = 8;
    bank_.handle(inv);
    fab_.drainEvents();
    EXPECT_EQ(fab_.ofType(MsgType::InvAck).size(), 1u);
    EXPECT_EQ(fab_.ofType(MsgType::L1Inv).size(), 1u);
    EXPECT_EQ(bank_.bankStats().invsReceived.value(), 1u);
}

TEST_F(L2BankUnit, ConflictFillEvictsWithPutAndWbWindow)
{
    // 2048 sets per bank; blocks 4*k*2048 collide in set 0. Fill
    // assoc+1 = 9 blocks to force one eviction.
    const BlockAddr stride = 4 * 2048;
    for (int i = 0; i < 8; ++i)
        coldRead(i * stride, 1, L2State::Shared);
    fab_.sent.clear();

    coldRead(8 * stride, 1, L2State::Shared);
    // One clean eviction must have gone to the victim's home.
    ASSERT_EQ(fab_.ofType(MsgType::PutS).size(), 1u);
    const BlockAddr victim = fab_.ofType(MsgType::PutS)[0].block;
    EXPECT_EQ(bank_.bankStats().evictClean.value(), 1u);
    EXPECT_FALSE(bank_.idle()); // writeback entry outstanding

    // A request for the victim block during the window queues...
    fab_.sent.clear();
    bank_.handle(l1Req(MsgType::L1GetS, victim, 4));
    fab_.drainEvents();
    EXPECT_TRUE(fab_.ofType(MsgType::GetS).empty());

    // ...until the PutAck releases it.
    Msg ack;
    ack.type = MsgType::PutAck;
    ack.block = victim;
    bank_.handle(ack);
    fab_.drainEvents();
    EXPECT_EQ(fab_.ofType(MsgType::GetS).size(), 1u);
}

TEST_F(L2BankUnit, ConflictFillSkipsLineWithUpgradePending)
{
    // Fill set 0 as above; block 0 is its LRU line.
    const BlockAddr stride = 4 * 2048;
    for (int i = 0; i < 8; ++i)
        coldRead(i * stride, 1, L2State::Shared);
    // Core 1 writes block 0: its upgrade is now pending at the home.
    bank_.handle(l1Req(MsgType::L1GetM, 0, 1));
    fab_.drainEvents();
    ASSERT_EQ(fab_.ofType(MsgType::GetM).size(), 1u);
    fab_.sent.clear();

    // A conflicting fill passes over the busy LRU line and evicts the
    // next-LRU block.
    coldRead(8 * stride, 1, L2State::Shared);
    const auto puts = fab_.ofType(MsgType::PutS);
    ASSERT_EQ(puts.size(), 1u);
    EXPECT_EQ(puts[0].block, stride);

    // Block 0 is still held, so its upgrade completes.
    grantAndData(0, L2State::Modified, /*no_data=*/true);
    EXPECT_EQ(fab_.ofType(MsgType::L1Data).size(), 2u);
}

TEST_F(L2BankUnit, DirtyEvictionSendsPutM)
{
    const BlockAddr stride = 4 * 2048;
    coldWrite(0, 1);
    // Pull the dirty data back to the L2 so the line (not the L1)
    // holds it: another member reads it.
    bank_.handle(l1Req(MsgType::L1GetS, 0, 4));
    fab_.drainEvents();
    Msg wb;
    wb.type = MsgType::L1WbData;
    wb.block = 0;
    wb.srcTile = 1;
    bank_.handle(wb);
    fab_.drainEvents();

    for (int i = 1; i <= 8; ++i)
        coldRead(i * stride, 1, L2State::Shared);
    EXPECT_EQ(fab_.ofType(MsgType::PutM).size(), 1u);
    EXPECT_EQ(bank_.bankStats().evictDirty.value(), 1u);
}

TEST_F(L2BankUnit, FwdServedFromWritebackBuffer)
{
    const BlockAddr stride = 4 * 2048;
    for (int i = 0; i < 9; ++i)
        coldRead(i * stride, 1, L2State::Shared);
    const auto puts = fab_.ofType(MsgType::PutS);
    ASSERT_EQ(puts.size(), 1u);
    const BlockAddr victim = puts[0].block;
    fab_.sent.clear();

    // A forward for the evicting block must be served from the
    // writeback buffer (the home still thinks we hold it).
    Msg fwd;
    fwd.type = MsgType::FwdGetS;
    fwd.block = victim;
    fwd.reqBankTile = 10;
    fwd.reqGroup = 2;
    bank_.handle(fwd);
    fab_.drainEvents();
    EXPECT_EQ(fab_.ofType(MsgType::Data).size(), 1u);
    EXPECT_EQ(fab_.ofType(MsgType::FwdAck).size(), 1u);
}

TEST_F(L2BankUnit, RequestsForBusyBlockSerialize)
{
    bank_.handle(l1Req(MsgType::L1GetS, 8, 1));
    bank_.handle(l1Req(MsgType::L1GetS, 8, 4));
    bank_.handle(l1Req(MsgType::L1GetS, 8, 5));
    fab_.drainEvents();
    // Exactly one home request despite three local misses.
    EXPECT_EQ(fab_.ofType(MsgType::GetS).size(), 1u);
    grantAndData(8, L2State::Exclusive);
    // First requester filled; the queued ones now hit locally.
    EXPECT_EQ(fab_.ofType(MsgType::L1Data).size(), 3u);
    EXPECT_TRUE(bank_.idle());
}

TEST_F(L2BankUnit, C2cStatisticsAttributedOnFill)
{
    bank_.handle(l1Req(MsgType::L1GetS, 8, 1));
    fab_.drainEvents();
    grantAndData(8, L2State::Shared, false, /*c2c=*/true,
                 /*dirty=*/true);
    EXPECT_EQ(fab_.c2cDirty, 1);
    EXPECT_EQ(fab_.c2cClean, 0);
    EXPECT_EQ(fab_.l2Misses, 1);
}

} // namespace
} // namespace consim
