/**
 * @file
 * Unit tests for the interconnect: XY routing, mesh delivery,
 * latency/ordering properties, virtual-network separation, back
 * pressure, and the ideal-network ablation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/config.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "noc/mesh.hh"
#include "noc/network.hh"
#include "noc/routing.hh"

namespace consim
{
namespace
{

Msg
makeMsg(MsgType type, CoreId src, CoreId dst, BlockAddr block = 1)
{
    Msg m;
    m.type = type;
    m.block = block;
    m.srcTile = src;
    m.dstTile = dst;
    m.srcUnit = Unit::L2Bank;
    m.dstUnit = Unit::L2Bank;
    return m;
}

TEST(Routing, XyRouteResolvesXFirst)
{
    // Tile 0 = (0,0), tile 15 = (3,3) on a 4-wide mesh.
    EXPECT_EQ(xyRoute(0, 15, 4), PortEast);
    EXPECT_EQ(xyRoute(3, 15, 4), PortSouth);
    EXPECT_EQ(xyRoute(15, 0, 4), PortWest);
    EXPECT_EQ(xyRoute(12, 0, 4), PortNorth);
    EXPECT_EQ(xyRoute(5, 5, 4), PortLocal);
}

TEST(Routing, OppositePorts)
{
    EXPECT_EQ(oppositePort(PortNorth), PortSouth);
    EXPECT_EQ(oppositePort(PortEast), PortWest);
}

TEST(Routing, HopDistance)
{
    EXPECT_EQ(hopDistance(0, 15, 4), 6);
    EXPECT_EQ(hopDistance(0, 0, 4), 0);
    EXPECT_EQ(hopDistance(0, 3, 4), 3);
    EXPECT_EQ(hopDistance(0, 12, 4), 3);
}

class MeshTest : public ::testing::Test
{
  protected:
    MeshTest()
        : mesh_(cfg_, stats_,
                [this](const Msg &m) { delivered_.push_back(m); })
    {
    }

    void
    runCycles(int n)
    {
        for (int i = 0; i < n; ++i)
            mesh_.tick(now_++);
    }

    MachineConfig cfg_;
    NetworkStats stats_;
    std::vector<Msg> delivered_;
    Mesh mesh_;
    Cycle now_ = 0;
};

TEST_F(MeshTest, DeliversSingleControlPacket)
{
    Msg m = makeMsg(MsgType::GetS, 0, 15);
    m.injectCycle = now_;
    mesh_.inject(m);
    runCycles(100);
    ASSERT_EQ(delivered_.size(), 1u);
    EXPECT_EQ(delivered_[0].dstTile, 15);
    EXPECT_EQ(delivered_[0].type, MsgType::GetS);
    EXPECT_TRUE(mesh_.idle());
}

TEST_F(MeshTest, LatencyScalesWithDistance)
{
    // Measure 1-hop vs 6-hop delivery times.
    auto measure = [&](CoreId src, CoreId dst) {
        delivered_.clear();
        Msg m = makeMsg(MsgType::GetS, src, dst);
        m.injectCycle = now_;
        const Cycle start = now_;
        mesh_.inject(m);
        while (delivered_.empty())
            mesh_.tick(now_++);
        return now_ - start;
    };
    const Cycle one_hop = measure(0, 1);
    const Cycle six_hops = measure(0, 15);
    EXPECT_GT(six_hops, one_hop);
    EXPECT_GE(one_hop, 3u); // pipeline + serialization floor
}

TEST_F(MeshTest, DataPacketsSlowerThanControl)
{
    auto measure = [&](MsgType t) {
        delivered_.clear();
        Msg m = makeMsg(t, 0, 3);
        m.injectCycle = now_;
        const Cycle start = now_;
        mesh_.inject(m);
        while (delivered_.empty())
            mesh_.tick(now_++);
        return now_ - start;
    };
    const Cycle ctrl = measure(MsgType::GetS);
    const Cycle data = measure(MsgType::Data);
    EXPECT_GT(data, ctrl); // serialization of 5 flits vs 1
}

TEST_F(MeshTest, ManyPacketsAllArrive)
{
    int injected = 0;
    for (CoreId src = 0; src < 16; ++src) {
        for (CoreId dst = 0; dst < 16; ++dst) {
            if (src == dst)
                continue;
            Msg m = makeMsg(MsgType::GetS, src, dst,
                            static_cast<BlockAddr>(src * 16 + dst));
            m.injectCycle = now_;
            mesh_.inject(m);
            ++injected;
        }
    }
    runCycles(2000);
    EXPECT_EQ(static_cast<int>(delivered_.size()), injected);
    EXPECT_TRUE(mesh_.idle());
    EXPECT_EQ(stats_.packetsEjected.value(),
              static_cast<std::uint64_t>(injected));
}

TEST_F(MeshTest, HeavyDataLoadDrainsWithoutLossOrDeadlock)
{
    int injected = 0;
    for (int round = 0; round < 20; ++round) {
        for (CoreId src = 0; src < 16; ++src) {
            Msg m = makeMsg(MsgType::Data, src, 15 - src,
                            static_cast<BlockAddr>(round * 16 + src));
            if (m.srcTile == m.dstTile)
                continue;
            m.injectCycle = now_;
            mesh_.inject(m);
            ++injected;
        }
    }
    runCycles(20000);
    EXPECT_EQ(static_cast<int>(delivered_.size()), injected);
    EXPECT_TRUE(mesh_.idle());
}

TEST_F(MeshTest, VnetsDoNotBlockEachOther)
{
    // Saturate the request vnet along a path, then send one response
    // along the same path; the response must still be delivered
    // promptly (separate VCs).
    for (int i = 0; i < 50; ++i) {
        Msg m = makeMsg(MsgType::GetS, 0, 3, i);
        m.injectCycle = now_;
        mesh_.inject(m);
    }
    Msg resp = makeMsg(MsgType::Grant, 0, 3, 999);
    resp.injectCycle = now_;
    mesh_.inject(resp);
    // The response should arrive among the earliest packets even
    // though 50 requests were queued ahead of it at the NI.
    int arrival_index = -1;
    runCycles(5000);
    for (std::size_t i = 0; i < delivered_.size(); ++i) {
        if (delivered_[i].type == MsgType::Grant)
            arrival_index = static_cast<int>(i);
    }
    ASSERT_EQ(delivered_.size(), 51u);
    ASSERT_GE(arrival_index, 0);
    EXPECT_LT(arrival_index, 10);
}

TEST_F(MeshTest, PerSourceOrderingWithinVnet)
{
    // Same src/dst/vnet single-VC traffic should not reorder when
    // injected back-to-back with identical sizes.
    for (int i = 0; i < 10; ++i) {
        Msg m = makeMsg(MsgType::GetS, 2, 13, i);
        m.injectCycle = now_;
        mesh_.inject(m);
    }
    runCycles(2000);
    ASSERT_EQ(delivered_.size(), 10u);
    // Allow adjacent swaps from dual VCs, but the stream must be
    // near-ordered: each block within 2 of its slot.
    for (std::size_t i = 0; i < delivered_.size(); ++i) {
        EXPECT_LE(
            std::abs(static_cast<long>(delivered_[i].block) -
                     static_cast<long>(i)),
            2);
    }
}

TEST_F(MeshTest, StatsAccumulate)
{
    Msg m = makeMsg(MsgType::Data, 0, 15);
    m.injectCycle = now_;
    mesh_.inject(m);
    runCycles(200);
    const auto &s = stats_;
    EXPECT_EQ(s.packetsInjected.value(), 1u);
    EXPECT_EQ(s.packetsEjected.value(), 1u);
    EXPECT_GT(s.flitHops.value(), 0u);
    EXPECT_GT(s.latency.mean(), 0.0);
}

// The ideal network's transport is System's NetDeliver events, so it
// is tested on live runs of Mix 5 (20k + 50k cycles).
RunConfig
idealMix5(int latency)
{
    const Mix &mix = Mix::byName("Mix 5");
    RunConfig cfg;
    cfg.workloads = mix.vms;
    cfg.vmThreads = mix.threads;
    cfg.machine.idealNoc = true;
    cfg.machine.idealNocLatency = latency;
    cfg.warmupCycles = 20'000;
    cfg.measureCycles = 50'000;
    return cfg;
}

TEST(IdealNetwork, FixedLatencyDelivery)
{
    // No packet arrives early, so a mean equal to the configured
    // latency means every packet arrived exactly that long after
    // injection.
    for (const int latency : {8, 13}) {
        const RunResult r = runExperiment(idealMix5(latency));
        EXPECT_GT(r.netPackets, 10'000u) << "latency " << latency;
        EXPECT_EQ(r.netAvgLatency, static_cast<double>(latency));
    }
}

TEST(IdealNetwork, DistanceIndependent)
{
    // An 8x8 chip has about twice the 4x4 one's mean distance between
    // tiles; every packet still takes the configured latency.
    RunConfig wide = idealMix5(7);
    wide.machine.meshX = 8;
    wide.machine.meshY = 8;
    for (int &threads : wide.vmThreads)
        threads *= 4;
    for (const RunConfig &cfg : {idealMix5(7), wide}) {
        const RunResult r = runExperiment(cfg);
        EXPECT_GT(r.netPackets, 10'000u)
            << cfg.machine.numCores() << " cores";
        EXPECT_EQ(r.netAvgLatency, 7.0)
            << cfg.machine.numCores() << " cores";
    }
}

} // namespace
} // namespace consim
