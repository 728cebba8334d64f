/**
 * @file
 * Property tests for the mesh interconnect, swept over virtual
 * channel configurations with parameterized gtest: packet
 * conservation under sustained random traffic, audited every tick,
 * bounded latency after drain, and per-vnet isolation; plus FNV-1a
 * pins of the ejection order of a saturated mesh, which hold every
 * arbitration decision.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/config.hh"
#include "common/rng.hh"
#include "noc/mesh.hh"
#include "noc/network.hh"
#include "noc/routing.hh"

namespace consim
{
namespace
{

struct NocConfig
{
    int vcsPerVnet;
    int vcBufferFlits;
    double dataFraction;
    int packets;
};

class MeshProperty : public ::testing::TestWithParam<NocConfig>
{
};

TEST_P(MeshProperty, ConservesAllPacketsUnderRandomLoad)
{
    const auto param = GetParam();
    MachineConfig cfg;
    cfg.vcsPerVnet = param.vcsPerVnet;
    cfg.vcBufferFlits = param.vcBufferFlits;
    std::map<BlockAddr, int> outstanding;
    int delivered = 0;
    NetworkStats stats;
    Mesh mesh(cfg, stats, [&](const Msg &m) {
        ++delivered;
        auto it = outstanding.find(m.block);
        ASSERT_NE(it, outstanding.end()) << "phantom packet";
        if (--it->second == 0)
            outstanding.erase(it);
    });

    Rng rng(param.packets * 31 + param.vcsPerVnet);
    Cycle now = 0;
    int injected = 0;
    BlockAddr tag = 0;
    // Sustained injection: a few packets per cycle chip-wide.
    while (injected < param.packets) {
        for (int k = 0; k < 3 && injected < param.packets; ++k) {
            const auto src = static_cast<CoreId>(rng.below(16));
            const auto dst = static_cast<CoreId>(rng.below(16));
            if (src == dst)
                continue;
            Msg m;
            // Mix all three vnets and both sizes.
            const double r = rng.uniform();
            if (r < param.dataFraction)
                m.type = MsgType::Data; // vnet 2, 5 flits
            else if (r < param.dataFraction + 0.3)
                m.type = MsgType::GetS; // vnet 0, 1 flit
            else
                m.type = MsgType::Inv; // vnet 1, 1 flit
            m.srcTile = src;
            m.dstTile = dst;
            m.block = tag++;
            m.injectCycle = now;
            mesh.inject(m);
            ++outstanding[m.block];
            ++injected;
        }
        mesh.tick(now++);
        // Every tick: credit and packet conservation, the pool
        // census, the wake calendar and each kept hop.
        mesh.checkConservation();
    }
    // Drain.
    for (int i = 0; i < 50'000 && !mesh.idle(); ++i) {
        mesh.tick(now++);
        mesh.checkConservation();
    }
    EXPECT_TRUE(mesh.idle()) << "packets stuck in the mesh";
    EXPECT_EQ(delivered, injected);
    EXPECT_TRUE(outstanding.empty());
    EXPECT_EQ(stats.packetsEjected.value(),
              static_cast<std::uint64_t>(injected));
}

INSTANTIATE_TEST_SUITE_P(
    VcSweep, MeshProperty,
    ::testing::Values(NocConfig{1, 5, 0.3, 800},
                      NocConfig{1, 8, 0.7, 800},
                      NocConfig{2, 4, 0.3, 1500},
                      NocConfig{2, 8, 0.5, 1500},
                      NocConfig{4, 8, 0.3, 2000},
                      NocConfig{4, 16, 0.9, 2000}),
    [](const ::testing::TestParamInfo<NocConfig> &info) {
        return "vc" + std::to_string(info.param.vcsPerVnet) + "_buf" +
               std::to_string(info.param.vcBufferFlits) + "_d" +
               std::to_string(
                   static_cast<int>(info.param.dataFraction * 10)) +
               "_n" + std::to_string(info.param.packets);
    });

/** A standalone mesh under saturating random traffic, with the
 *  FNV-1a hash of its ejection sequence. */
struct ArbitrationPin
{
    const char *name;
    int meshX;
    int meshY;
    int vcsPerVnet;
    int vcBufferFlits;
    double dataFraction;
    int packets;
    bool qos;           ///< reserve one VC per vnet for VM 1
    std::uint64_t hash; ///< over every (cycle, tile, block) ejection
};

// The first six rows are the VcSweep configurations above.
const ArbitrationPin kArbitrationPins[] = {
    {"4x4 vc1 buf5 d0.3", 4, 4, 1, 5, 0.3, 800, false,
     0xbfa9d54b10d2181aull},
    {"4x4 vc1 buf8 d0.7", 4, 4, 1, 8, 0.7, 800, false,
     0xd9611c0fad713b3dull},
    {"4x4 vc2 buf4 d0.3", 4, 4, 2, 4, 0.3, 1500, false,
     0x2104390f62d4833bull},
    {"4x4 vc2 buf8 d0.5", 4, 4, 2, 8, 0.5, 1500, false,
     0x1e0ca8fa7591c453ull},
    {"4x4 vc4 buf8 d0.3", 4, 4, 4, 8, 0.3, 2000, false,
     0x7a8c2d077a7d447eull},
    {"4x4 vc4 buf16 d0.9", 4, 4, 4, 16, 0.9, 2000, false,
     0x21704c14f2279f2eull},
    {"8x8 vc2 buf4 d0.5", 8, 8, 2, 4, 0.5, 4000, false,
     0xad3cec2783234bbfull},
    {"4x4 vc2 buf8 d0.5 qos", 4, 4, 2, 8, 0.5, 2000, true,
     0x9ec12e48ce64922dull},
};

/** A pin's machine: its mesh and VC configuration. */
MachineConfig
pinConfig(const ArbitrationPin &pin)
{
    MachineConfig cfg;
    cfg.meshX = pin.meshX;
    cfg.meshY = pin.meshY;
    cfg.vcsPerVnet = pin.vcsPerVnet;
    cfg.vcBufferFlits = pin.vcBufferFlits;
    return cfg;
}

/**
 * A pin's offered load: every tile offers a packet on half of the
 * cycles, more than the mesh can carry, so NI queues and VC buffers
 * fill. With QoS, half of the packets are the protected VM 1's.
 */
class SaturatingTraffic
{
  public:
    SaturatingTraffic(const ArbitrationPin &pin, int tiles)
        : pin_(pin), tiles_(tiles),
          rng_(static_cast<std::uint64_t>(pin.packets) * 131 +
               static_cast<std::uint64_t>(tiles))
    {
    }

    /** @return true once every packet has been offered. */
    bool done() const { return injected_ == pin_.packets; }

    /** @return packets of the protected VM offered so far. */
    int protectedSent() const { return protectedSent_; }

    /** Offer cycle @p now's packets to @p mesh. */
    void
    offer(Mesh &mesh, Cycle now)
    {
        for (CoreId src = 0; src < tiles_ && !done(); ++src) {
            if (rng_.uniform() < 0.5)
                continue;
            const auto dst = static_cast<CoreId>(
                rng_.below(static_cast<std::uint64_t>(tiles_)));
            if (dst == src)
                continue;
            Msg m;
            const double r = rng_.uniform();
            if (r < pin_.dataFraction)
                m.type = MsgType::Data; // vnet 2, data-sized
            else if (r < pin_.dataFraction + 0.3)
                m.type = MsgType::GetS; // vnet 0, 1 flit
            else
                m.type = MsgType::Inv; // vnet 1, 1 flit
            m.srcTile = src;
            m.dstTile = dst;
            m.block = tag_++;
            m.vm = pin_.qos ? static_cast<VmId>(rng_.below(2)) : 0;
            protectedSent_ += m.vm == 1;
            m.injectCycle = now;
            mesh.inject(m);
            ++injected_;
        }
    }

  private:
    const ArbitrationPin &pin_;
    int tiles_;
    Rng rng_;
    int injected_ = 0;
    int protectedSent_ = 0;
    BlockAddr tag_ = 0;
};

/** Fold @p v's eight bytes into FNV-1a state @p h. */
std::uint64_t
fnv1aWord(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(MeshArbitration, EjectionOrderPinnedUnderSaturation)
{
    // When and in what order packets leave a saturated mesh depends
    // on every arbitration decision: the round-robin pointer, one
    // grant per input and output port, back-pressure from full
    // downstream VCs and, with QoS, the protected-only pass and its
    // every-fourth-cycle yield.
    for (const ArbitrationPin &pin : kArbitrationPins) {
        const MachineConfig cfg = pinConfig(pin);
        const int tiles = cfg.numCores();

        Cycle now = 0;
        std::uint64_t hash = 0xcbf29ce484222325ull;
        int delivered = 0, contended = 0;
        int protectedDelivered = 0;
        NetworkStats stats;
        Mesh mesh(cfg, stats, [&](const Msg &m) {
            ++delivered;
            hash = fnv1aWord(hash, now);
            hash = fnv1aWord(hash, static_cast<std::uint64_t>(m.dstTile));
            hash = fnv1aWord(hash, m.block);
            // The uncontended latency: pipeline delay plus
            // serialization at each router on the path, the
            // ejecting one included.
            const int len = mesh.params().flitsOf(m.type);
            const Cycle bound = static_cast<Cycle>(
                (hopDistance(m.srcTile, m.dstTile, cfg.meshX) + 1) *
                (mesh.params().pipelineDelay + len));
            contended += now - m.injectCycle > bound;
            protectedDelivered += m.vm == 1;
        });
        if (pin.qos)
            mesh.setQos(1, 1);

        SaturatingTraffic traffic(pin, tiles);
        for (; !traffic.done() || !mesh.idle(); ++now) {
            traffic.offer(mesh, now);
            mesh.tick(now);
            if (now % 32 == 0)
                mesh.checkConservation();
            ASSERT_LT(now, Cycle(200'000)) << pin.name << ": no drain";
        }
        mesh.checkConservation();
        EXPECT_EQ(delivered, pin.packets) << pin.name;
        if (pin.qos) {
            EXPECT_EQ(protectedDelivered, traffic.protectedSent())
                << pin.name;
            EXPECT_GT(traffic.protectedSent(), pin.packets / 3) << pin.name;
        }
        // The traffic contends: most packets wait beyond their
        // uncontended latency.
        EXPECT_GT(2 * contended, delivered)
            << pin.name << ": only " << contended << " of " << delivered
            << " packets contended";
        EXPECT_EQ(hash, pin.hash)
            << pin.name << ": ejection order changed (now 0x" << std::hex
            << hash << "ull, " << std::dec << contended << " of "
            << delivered << " packets contended, drained at cycle "
            << now << ")";
    }
}

TEST(MeshArbitration, SaturatedMeshDrainsItsPacketPool)
{
    // Every packet takes one pool slot from injection to ejection.
    // Under the pins' saturating load the census holds every cycle,
    // the pool never outgrows its bound, and a drained mesh has every
    // slot it ever used back on the free list.
    for (const ArbitrationPin &pin : kArbitrationPins) {
        const MachineConfig cfg = pinConfig(pin);
        NetworkStats stats;
        Mesh mesh(cfg, stats, [](const Msg &) {});
        if (pin.qos)
            mesh.setQos(1, 1);
        const PacketPool &pool = mesh.pool();
        EXPECT_EQ(pool.bound(),
                  packetPoolBound(mesh.params(), cfg.numCores()))
            << pin.name;

        SaturatingTraffic traffic(pin, cfg.numCores());
        std::size_t peakLive = 0;
        Cycle now = 0;
        for (; !traffic.done() || !mesh.idle(); ++now) {
            traffic.offer(mesh, now);
            mesh.tick(now);
            mesh.checkConservation();
            peakLive = std::max(peakLive, pool.live());
            ASSERT_LT(now, Cycle(200'000)) << pin.name << ": no drain";
        }
        // Saturated: the VCs held more packets than the mesh has
        // routers, and the last-in, first-out free list never built
        // more slots than were live at once.
        EXPECT_GT(peakLive, static_cast<std::size_t>(cfg.numCores()))
            << pin.name;
        EXPECT_EQ(pool.highWater(), peakLive) << pin.name;
        EXPECT_LE(pool.highWater(), pool.bound()) << pin.name;
        EXPECT_EQ(pool.live(), 0u) << pin.name;
        EXPECT_EQ(pool.freeList().size(), pool.highWater()) << pin.name;
    }
}

TEST(PacketPoolDeathTest, AllocationPastTheBoundFails)
{
    PacketPool pool(2);
    const PacketId a = pool.alloc();
    const PacketId b = pool.alloc();
    EXPECT_NE(a, b);
    // A freed slot is the next one handed out.
    pool.release(a);
    EXPECT_EQ(pool.alloc(), a);
    EXPECT_EQ(pool.highWater(), 2u);
    EXPECT_DEATH(pool.alloc(), "packet pool outgrew its bound of 2");
}

TEST(MeshLatencyProperty, UncontendedLatencyTracksHopCount)
{
    MachineConfig cfg;
    Cycle now = 0;
    Cycle delivered_at = 0;
    bool got = false;
    NetworkStats stats;
    Mesh mesh(cfg, stats, [&](const Msg &) {
        got = true;
        delivered_at = now;
    });

    // For each src/dst pair, an uncontended control packet's latency
    // must be a monotone-ish function of hop distance: check that
    // max-latency(dist d) < min-latency(dist d+3) never inverts
    // wildly by sampling all pairs.
    std::map<int, std::pair<Cycle, Cycle>> by_dist; // min,max
    for (CoreId s = 0; s < 16; ++s) {
        for (CoreId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            Msg m;
            m.type = MsgType::GetS;
            m.srcTile = s;
            m.dstTile = d;
            m.injectCycle = now;
            got = false;
            mesh.inject(m);
            const Cycle start = now;
            while (!got)
                mesh.tick(now++);
            const Cycle lat = delivered_at - start;
            const int dist = hopDistance(s, d, cfg.meshX);
            auto it = by_dist.find(dist);
            if (it == by_dist.end()) {
                by_dist[dist] = {lat, lat};
            } else {
                it->second.first = std::min(it->second.first, lat);
                it->second.second = std::max(it->second.second, lat);
            }
        }
    }
    // Latency grows with distance (allowing per-hop pipeline noise).
    Cycle prev_min = 0;
    for (const auto &[dist, mm] : by_dist) {
        EXPECT_GE(mm.first, prev_min);
        prev_min = mm.first;
        // Uncontended 1-flit latency stays within a sane budget:
        // ~4 cycles per hop plus ejection.
        EXPECT_LE(mm.second,
                  static_cast<Cycle>(4 * dist + 10));
    }
}

} // namespace
} // namespace consim
