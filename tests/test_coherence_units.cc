/**
 * @file
 * Message-level unit tests for the directory slice and the memory
 * controller, driven through a mock Fabric so every outgoing message
 * and scheduled event is observable. These pin down the protocol
 * decisions themselves (who is forwarded to, when grants carry data,
 * how stale writebacks are treated) independently of the full system.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "coherence/directory.hh"
#include "coherence/memory_controller.hh"

#include "mock_fabric.hh"

namespace consim
{
namespace
{

Msg
bankRequest(MsgType t, BlockAddr block, GroupId group,
            CoreId bank_tile)
{
    Msg m;
    m.type = t;
    m.block = block;
    m.srcTile = bank_tile;
    m.srcUnit = Unit::L2Bank;
    m.dstTile = 0;
    m.dstUnit = Unit::Dir;
    m.reqCore = bank_tile;
    m.reqBankTile = bank_tile;
    m.reqGroup = group;
    m.vm = 0;
    return m;
}

class DirectoryUnit : public ::testing::Test
{
  protected:
    DirectoryUnit() : slice_(fab_, 0, store_)
    {
        store_.registerVm(0, 4096);
        fab_.attach(slice_);
    }

    void
    sendDone(BlockAddr block)
    {
        Msg d;
        d.type = MsgType::Done;
        d.block = block;
        slice_.handle(d);
        fab_.drainEvents();
    }

    MockFabric fab_;
    DirectoryStorage store_;
    DirectorySlice slice_;
};

TEST_F(DirectoryUnit, ColdGetSReadsMemoryAndGrantsExclusive)
{
    slice_.handle(bankRequest(MsgType::GetS, 10, 1, 4));
    fab_.drainEvents();

    const auto reads = fab_.ofType(MsgType::MemRead);
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_EQ(reads[0].dstTile, 15);
    EXPECT_EQ(reads[0].reqBankTile, 4);

    const auto grants = fab_.ofType(MsgType::Grant);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].grantState, L2State::Exclusive);
    EXPECT_FALSE(grants[0].noDataNeeded);

    const auto &e = store_.entry(10);
    EXPECT_EQ(e.state, L2State::Exclusive);
    EXPECT_EQ(static_cast<GroupId>(e.owner), 1);
}

TEST_F(DirectoryUnit, GetSFromOwnerStateForwards)
{
    slice_.handle(bankRequest(MsgType::GetS, 10, 1, 4));
    fab_.drainEvents();
    sendDone(10);
    fab_.sent.clear();

    // Group 2 reads the same block: must forward to group 1's bank.
    slice_.handle(bankRequest(MsgType::GetS, 10, 2, 8));
    fab_.drainEvents();

    const auto fwds = fab_.ofType(MsgType::FwdGetS);
    ASSERT_EQ(fwds.size(), 1u);
    EXPECT_EQ(fab_.groupOfTile(fwds[0].dstTile), 1);
    EXPECT_TRUE(fab_.ofType(MsgType::MemRead).empty());

    const auto &e = store_.entry(10);
    EXPECT_EQ(e.state, L2State::Shared);
    GroupSet expect;
    expect.set(1);
    expect.set(2);
    EXPECT_EQ(e.sharers, expect); // groups 1 and 2
}

TEST_F(DirectoryUnit, DirtyFwdAckTriggersSharingWriteback)
{
    slice_.handle(bankRequest(MsgType::GetM, 10, 1, 4));
    fab_.drainEvents();
    sendDone(10);
    fab_.sent.clear();

    slice_.handle(bankRequest(MsgType::GetS, 10, 2, 8));
    fab_.drainEvents();
    ASSERT_EQ(fab_.ofType(MsgType::FwdGetS).size(), 1u);

    // Owner answers with dirty data: home must write memory back.
    Msg ack;
    ack.type = MsgType::FwdAck;
    ack.block = 10;
    ack.dirtyData = true;
    slice_.handle(ack);
    fab_.drainEvents();
    EXPECT_EQ(fab_.ofType(MsgType::MemWrite).size(), 1u);
}

TEST_F(DirectoryUnit, GetMInvalidatesAllOtherSharers)
{
    // Three groups read, then one of them writes.
    for (GroupId g : {1, 2, 3}) {
        slice_.handle(
            bankRequest(MsgType::GetS, 10, g,
                        fab_.cfg_.coresOfGroup(g).front()));
        fab_.drainEvents();
        if (g != 1) {
            Msg ack;
            ack.type = MsgType::FwdAck;
            ack.block = 10;
            slice_.handle(ack);
            fab_.drainEvents();
        }
        sendDone(10);
    }
    fab_.sent.clear();

    slice_.handle(bankRequest(MsgType::GetM, 10, 1, 4));
    fab_.drainEvents();

    // Requester already holds a copy: grant needs no data; the other
    // two sharers each receive an invalidation.
    const auto grants = fab_.ofType(MsgType::Grant);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_TRUE(grants[0].noDataNeeded);
    EXPECT_EQ(grants[0].grantState, L2State::Modified);
    EXPECT_EQ(fab_.ofType(MsgType::Inv).size(), 2u);

    // Acks + Done retire the transaction.
    for (int i = 0; i < 2; ++i) {
        Msg ack;
        ack.type = MsgType::InvAck;
        ack.block = 10;
        slice_.handle(ack);
    }
    sendDone(10);
    EXPECT_TRUE(slice_.idle());
    EXPECT_EQ(store_.entry(10).state, L2State::Modified);
}

TEST_F(DirectoryUnit, GetMWithoutCopyPicksForwarder)
{
    for (GroupId g : {1, 2}) {
        slice_.handle(
            bankRequest(MsgType::GetS, 10, g,
                        fab_.cfg_.coresOfGroup(g).front()));
        fab_.drainEvents();
        if (g != 1) {
            Msg ack;
            ack.type = MsgType::FwdAck;
            ack.block = 10;
            slice_.handle(ack);
            fab_.drainEvents();
        }
        sendDone(10);
    }
    fab_.sent.clear();

    // Group 3 writes without ever having read.
    slice_.handle(bankRequest(MsgType::GetM, 10, 3, 12));
    fab_.drainEvents();
    // One sharer forwards (FwdGetM), the other is invalidated.
    EXPECT_EQ(fab_.ofType(MsgType::FwdGetM).size(), 1u);
    EXPECT_EQ(fab_.ofType(MsgType::Inv).size(), 1u);
    const auto grants = fab_.ofType(MsgType::Grant);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_FALSE(grants[0].noDataNeeded);
}

TEST_F(DirectoryUnit, RequestsQueueBehindBusyBlock)
{
    slice_.handle(bankRequest(MsgType::GetS, 10, 1, 4));
    fab_.drainEvents();
    // Second request for the same block while the first is open.
    slice_.handle(bankRequest(MsgType::GetS, 10, 2, 8));
    fab_.drainEvents();
    // Only the first grant so far.
    EXPECT_EQ(fab_.ofType(MsgType::Grant).size(), 1u);

    sendDone(10);
    // Now the queued request is processed (forwarded to group 1).
    EXPECT_EQ(fab_.ofType(MsgType::Grant).size(), 2u);
    EXPECT_EQ(fab_.ofType(MsgType::FwdGetS).size(), 1u);
}

TEST_F(DirectoryUnit, PutMFromOwnerWritesBackAndInvalidates)
{
    slice_.handle(bankRequest(MsgType::GetM, 10, 1, 4));
    fab_.drainEvents();
    sendDone(10);
    fab_.sent.clear();

    Msg put = bankRequest(MsgType::PutM, 10, 1, 4);
    put.dirtyData = true;
    slice_.handle(put);
    fab_.drainEvents();

    EXPECT_EQ(fab_.ofType(MsgType::MemWrite).size(), 1u);
    EXPECT_EQ(fab_.ofType(MsgType::PutAck).size(), 1u);
    EXPECT_EQ(store_.entry(10).state, L2State::Invalid);
    EXPECT_TRUE(slice_.idle());
}

TEST_F(DirectoryUnit, StalePutIsAckedWithoutStateChange)
{
    slice_.handle(bankRequest(MsgType::GetM, 10, 1, 4));
    fab_.drainEvents();
    sendDone(10);
    fab_.sent.clear();

    // A Put from a group that is not the owner (stale) is just acked.
    Msg put = bankRequest(MsgType::PutM, 10, 2, 8);
    put.dirtyData = true;
    slice_.handle(put);
    fab_.drainEvents();
    EXPECT_EQ(fab_.ofType(MsgType::PutAck).size(), 1u);
    EXPECT_EQ(fab_.ofType(MsgType::MemWrite).size(), 0u);
    EXPECT_EQ(store_.entry(10).state, L2State::Modified);
    EXPECT_EQ(static_cast<GroupId>(store_.entry(10).owner), 1);
}

TEST_F(DirectoryUnit, LastSharerPutCollapsesToInvalid)
{
    slice_.handle(bankRequest(MsgType::GetS, 10, 1, 4));
    fab_.drainEvents();
    sendDone(10);
    // E-state owner does a clean eviction.
    slice_.handle(bankRequest(MsgType::PutS, 10, 1, 4));
    fab_.drainEvents();
    EXPECT_EQ(store_.entry(10).state, L2State::Invalid);
}

TEST_F(DirectoryUnit, CleanForwardingOffReadsMemoryForSharedData)
{
    fab_.cfg_.cleanForwarding = false;
    // Reader 1 -> E (memory); reader 2 -> forward from the E owner
    // (owner-state forwards are unconditional); reader 3 hits the S
    // state, where clean forwarding is disabled -> memory again.
    for (GroupId g : {1, 2, 3}) {
        slice_.handle(
            bankRequest(MsgType::GetS, 10, g,
                        fab_.cfg_.coresOfGroup(g).front()));
        fab_.drainEvents();
        if (g == 2) {
            Msg ack;
            ack.type = MsgType::FwdAck;
            ack.block = 10;
            slice_.handle(ack);
            fab_.drainEvents();
        }
        sendDone(10);
    }
    EXPECT_EQ(fab_.ofType(MsgType::MemRead).size(), 2u);
    EXPECT_EQ(fab_.ofType(MsgType::FwdGetS).size(), 1u);
}

TEST_F(DirectoryUnit, OverlappedFetchFlagsWhenDirCacheMisses)
{
    // First access: dir-cache miss -> the MemRead is overlapped.
    slice_.handle(bankRequest(MsgType::GetS, 10, 1, 4));
    fab_.drainEvents();
    auto reads = fab_.ofType(MsgType::MemRead);
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_TRUE(reads[0].overlappedFetch);
    sendDone(10);
    // Return to Invalid so a second GetS reads memory again.
    slice_.handle(bankRequest(MsgType::PutS, 10, 1, 4));
    fab_.drainEvents();
    fab_.sent.clear();

    // Second access: dir cache hits -> full-latency memory read.
    slice_.handle(bankRequest(MsgType::GetS, 10, 1, 4));
    fab_.drainEvents();
    reads = fab_.ofType(MsgType::MemRead);
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_FALSE(reads[0].overlappedFetch);
    sendDone(10);
}

// The live-set bound is exact: an insert past the reserved count dies
// even though the map's load-factor headroom would still fit it.
TEST(DirectoryStorageDeathTest, InsertPastLiveSetBoundDies)
{
    DirectoryStorage store;
    store.registerVm(0, 4096);
    store.reserve(3, 16);
    for (BlockAddr b = 0; b < 3; ++b) {
        DirEntry &e = store.insert(b);
        e.state = L2State::Exclusive;
        e.owner = 1;
        e.sharers.set(1);
    }
    // Finding a stored entry at the bound is fine.
    EXPECT_EQ(store.insert(2).state, L2State::Exclusive);
    EXPECT_DEATH(store.insert(3), "outgrew its live-set bound");
}

TEST(MemoryControllerUnit, ReadRepliesWithDataAfterLatency)
{
    MockFabric fab;
    MemoryController mc(fab, 15);
    fab.attach(mc);
    Msg m;
    m.type = MsgType::MemRead;
    m.block = 7;
    m.reqBankTile = 3;
    mc.handle(m);
    EXPECT_FALSE(mc.idle());
    fab.drainEvents();
    EXPECT_TRUE(mc.idle());
    const auto data = fab.ofType(MsgType::Data);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_EQ(data[0].dstTile, 3);
    EXPECT_EQ(data[0].dstUnit, Unit::L2Bank);
    EXPECT_FALSE(data[0].c2cTransfer);
    EXPECT_EQ(mc.reads.value(), 1u);
}

TEST(MemoryControllerUnit, WritesAreAbsorbed)
{
    MockFabric fab;
    MemoryController mc(fab, 15);
    fab.attach(mc);
    Msg m;
    m.type = MsgType::MemWrite;
    m.block = 7;
    mc.handle(m);
    fab.drainEvents();
    EXPECT_TRUE(fab.ofType(MsgType::Data).empty());
    EXPECT_EQ(mc.writes.value(), 1u);
}

TEST(MemoryControllerUnit, BandwidthQueuesBackToBackRequests)
{
    MockFabric fab;
    MemoryController mc(fab, 15);
    fab.attach(mc);
    for (int i = 0; i < 8; ++i) {
        Msg m;
        m.type = MsgType::MemRead;
        m.block = static_cast<BlockAddr>(i);
        m.reqBankTile = 3;
        mc.handle(m);
    }
    // The eighth request waited 7 issue slots.
    EXPECT_GT(mc.queueDelay.mean(), 0.0);
    fab.drainEvents();
    EXPECT_EQ(fab.ofType(MsgType::Data).size(), 8u);
}

TEST(MemoryControllerUnit, OverlappedFetchIsCheaper)
{
    MockFabric fab;
    MemoryController mc(fab, 15);
    fab.attach(mc);
    // Normal read.
    Msg slow;
    slow.type = MsgType::MemRead;
    slow.block = 1;
    slow.reqBankTile = 3;
    mc.handle(slow);
    fab.drainEvents();
    const Cycle t_slow = fab.now();

    MockFabric fab2;
    MemoryController mc2(fab2, 15);
    fab2.attach(mc2);
    Msg fast = slow;
    fast.overlappedFetch = true;
    mc2.handle(fast);
    fab2.drainEvents();
    const Cycle t_fast = fab2.now();
    EXPECT_LT(t_fast, t_slow);
}

} // namespace
} // namespace consim
