/**
 * @file
 * Tests for System-level address mapping and snapshot machinery:
 * bank/home/memory-tile distribution, VM windows, exact replication
 * and occupancy accounting on hand-constructed cache states, and the
 * statistics dump.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "core/system.hh"

namespace consim
{
namespace
{

WorkloadProfile
smallProfile()
{
    WorkloadProfile p;
    p.name = "small";
    p.sharedRoBlocks = 4096;
    p.migratoryBlocks = 256;
    p.privateBlocksPerThread = 512;
    p.pSharedRo = 0.4;
    p.pMigratory = 0.05;
    p.hotSharedBlocks = 256;
    p.hotPrivateBlocks = 64;
    p.refsPerTransaction = 50;
    return p;
}

/** Fixed-sequence stream for populating known blocks. */
class SeqStream : public InstrStream
{
  public:
    explicit SeqStream(std::vector<WorkSlice> script)
        : script_(std::move(script))
    {
    }

    WorkSlice
    next() override
    {
        if (pos_ < script_.size())
            return script_[pos_++];
        WorkSlice idle;
        idle.computeCycles = 16;
        idle.noMemRef = true;
        return idle;
    }

    bool done() const { return pos_ >= script_.size(); }

  private:
    std::vector<WorkSlice> script_;
    std::size_t pos_ = 0;
};

class SystemTopology : public ::testing::Test
{
  protected:
    SystemTopology()
        : prof_(smallProfile()), vm_(prof_, 0, 1)
    {
        cfg_.sharing = SharingDegree::Shared4;
        sys_ = std::make_unique<System>(
            cfg_, std::vector<VirtualMachine *>{&vm_},
            std::vector<ThreadPlacement>{});
    }

    MachineConfig cfg_;
    WorkloadProfile prof_;
    VirtualMachine vm_;
    std::unique_ptr<System> sys_;
};

TEST_F(SystemTopology, BankTileIsAGroupMember)
{
    for (GroupId g = 0; g < cfg_.numGroups(); ++g) {
        const auto members = cfg_.coresOfGroup(g);
        for (BlockAddr b = 0; b < 64; ++b) {
            const CoreId tile = sys_->bankTileFor(g, b);
            EXPECT_NE(std::find(members.begin(), members.end(), tile),
                      members.end());
        }
    }
}

TEST_F(SystemTopology, BankInterleavingCoversAllMembers)
{
    std::set<CoreId> tiles;
    for (BlockAddr b = 0; b < 64; ++b)
        tiles.insert(sys_->bankTileFor(0, b));
    EXPECT_EQ(tiles.size(), 4u); // every member is a bank
}

TEST_F(SystemTopology, HomeStripingUsesAllTiles)
{
    std::map<CoreId, int> counts;
    for (BlockAddr b = 0; b < 4096; ++b)
        ++counts[sys_->homeTileFor(b)];
    EXPECT_EQ(counts.size(), 16u);
    for (const auto &[tile, n] : counts) {
        EXPECT_GT(n, 4096 / 16 / 2) << "tile " << tile;
        EXPECT_LT(n, 4096 / 16 * 2) << "tile " << tile;
    }
}

TEST_F(SystemTopology, MemTilesAreTheConfiguredControllers)
{
    std::set<CoreId> tiles;
    for (BlockAddr b = 0; b < 1024; ++b)
        tiles.insert(sys_->memTileFor(b));
    EXPECT_EQ(static_cast<int>(tiles.size()), cfg_.numMemCtrls);
    // Corner placement on the 4x4 mesh.
    for (auto t : tiles)
        EXPECT_TRUE(t == 0 || t == 3 || t == 12 || t == 15);
}

TEST_F(SystemTopology, VmWindowDecoding)
{
    EXPECT_EQ(sys_->vmOfBlock(vmBaseBlock(0) + 5), 0);
    EXPECT_EQ(sys_->vmOfBlock(vmBaseBlock(3) + 5), 3);
}

TEST_F(SystemTopology, ReplicationSnapshotCountsExactly)
{
    // Two cores in different quadrants read the same two blocks, and
    // one core reads a third block alone.
    auto s0 = std::make_unique<SeqStream>(std::vector<WorkSlice>{
        {0, vmBaseBlock(0) + 100, false, false, false},
        {0, vmBaseBlock(0) + 200, false, false, false},
        {0, vmBaseBlock(0) + 300, false, false, false}});
    auto s15 = std::make_unique<SeqStream>(std::vector<WorkSlice>{
        {0, vmBaseBlock(0) + 100, false, false, false},
        {0, vmBaseBlock(0) + 200, false, false, false}});
    sys_->core(0).bindThread(s0.get(), 0);
    sys_->core(15).bindThread(s15.get(), 0);

    bool settled = false;
    for (int i = 0; i < 2000 && !settled; ++i) {
        sys_->run(50);
        settled = sys_->quiesced() && s0->done() && s15->done();
    }
    ASSERT_TRUE(settled);

    const auto snap = sys_->replicationSnapshot();
    EXPECT_EQ(snap.distinctBlocks, 3u);
    EXPECT_EQ(snap.validLines, 5u);      // 100,200 twice; 300 once
    EXPECT_EQ(snap.replicatedLines, 4u); // both copies of 100 and 200
    EXPECT_NEAR(snap.replicatedFraction(), 0.8, 1e-9);
    EXPECT_EQ(snap.validPerVm.at(0), 5u);
}

TEST_F(SystemTopology, OccupancySnapshotAttributesLinesToGroups)
{
    auto s0 = std::make_unique<SeqStream>(std::vector<WorkSlice>{
        {0, vmBaseBlock(0) + 100, false, false, false},
        {0, vmBaseBlock(0) + 200, false, false, false}});
    sys_->core(0).bindThread(s0.get(), 0);
    bool settled = false;
    for (int i = 0; i < 2000 && !settled; ++i) {
        sys_->run(50);
        settled = sys_->quiesced() && s0->done();
    }
    ASSERT_TRUE(settled);

    const auto occ = sys_->occupancySnapshot();
    // Core 0 is in group 0: exactly two of group 0's lines are VM 0's.
    EXPECT_EQ(occ.lines.at(0).at(0), 2u);
    EXPECT_EQ(occ.lines.at(1).at(0), 0u);
    EXPECT_EQ(occ.lines.at(2).at(0), 0u);
    EXPECT_EQ(occ.lines.at(3).at(0), 0u);
    // Capacity = 4 banks x 16K lines.
    EXPECT_EQ(occ.capacity.at(0),
              4 * cfg_.l2TotalBytes / 16 / blockBytes);
}

TEST_F(SystemTopology, DumpStatsEmitsAllSections)
{
    auto s0 = std::make_unique<SeqStream>(std::vector<WorkSlice>{
        {0, vmBaseBlock(0) + 100, true, false, false}});
    sys_->core(0).bindThread(s0.get(), 0);
    for (int i = 0; i < 200; ++i)
        sys_->run(10);
    std::ostringstream os;
    sys_->dumpStats(os);
    const std::string s = os.str();
    for (const char *key :
         {"sys.tile00.core.instructions", "sys.tile00.l1.misses",
          "sys.tile00.l2bank.hits", "sys.tile00.dir.requests",
          ".mc.reads", "sys.net.packets_injected",
          "sys.vm00.l2_accesses"}) {
        EXPECT_NE(s.find(key), std::string::npos) << key;
    }
}

TEST_F(SystemTopology, SwapThreadsMovesWork)
{
    auto s0 = std::make_unique<SeqStream>(std::vector<WorkSlice>{});
    sys_->core(0).bindThread(s0.get(), 0);
    ASSERT_FALSE(sys_->core(0).idle());
    ASSERT_TRUE(sys_->core(7).idle());

    // Random migration must eventually move the single thread
    // elsewhere.
    sys_->setDynSched({DynSchedPolicy::Random, 20}, 3);
    bool moved = false;
    for (int i = 0; i < 200 && !moved; ++i) {
        sys_->run(20);
        moved = sys_->core(0).idle();
    }
    EXPECT_TRUE(moved);
    EXPECT_GT(sys_->dynMigrations(), 0u);
    // Conservation: exactly one core holds the thread, counting a
    // latched rebind as held by the core it moves to.
    int held = 0;
    for (CoreId c = 0; c < 16; ++c)
        sys_->core(c).forEachHeld([&](const InstrStream *) { ++held; });
    EXPECT_EQ(held, 1);
}

TEST_F(SystemTopology, BindingAuditCatchesAStreamOnTwoCores)
{
    auto s0 = std::make_unique<SeqStream>(std::vector<WorkSlice>{});
    sys_->core(0).bindThread(s0.get(), 0);
    sys_->checkInvariants();
    // The same stream on a second core: one thread running twice.
    sys_->core(5).bindThread(s0.get(), 0);
    const check::Level old = check::level();
    check::setLevel(check::Level::Basic); // assertions throw
    EXPECT_THROW(sys_->checkInvariants(), SimError);
    check::setLevel(old);
}

TEST_F(SystemTopology, GlobalCoherenceHoldsAfterScriptedTraffic)
{
    auto s0 = std::make_unique<SeqStream>([] {
        std::vector<WorkSlice> v;
        for (int i = 0; i < 50; ++i)
            v.push_back({0, vmBaseBlock(0) + 4 * i, i % 2 == 0, false,
                         false});
        return v;
    }());
    auto s15 = std::make_unique<SeqStream>([] {
        std::vector<WorkSlice> v;
        for (int i = 0; i < 50; ++i)
            v.push_back({0, vmBaseBlock(0) + 2 * i, i % 3 == 0, false,
                         false});
        return v;
    }());
    sys_->core(0).bindThread(s0.get(), 0);
    sys_->core(15).bindThread(s15.get(), 0);
    bool settled = false;
    for (int i = 0; i < 4000 && !settled; ++i) {
        sys_->run(50);
        settled = sys_->quiesced() && s0->done() && s15->done();
    }
    ASSERT_TRUE(settled);
    sys_->checkGlobalCoherence();
}

} // namespace
} // namespace consim
