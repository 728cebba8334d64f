/**
 * @file
 * Unit tests for the common substrate: RNG, bit utilities, the ring
 * buffer, the tile calendar, stats, table rendering, strict number
 * parsing, and machine configuration / group topology.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "common/bitops.hh"
#include "common/config.hh"
#include "common/parse.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/tile_set.hh"

namespace consim
{
namespace
{

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int bound : {1, 2, 3, 10, 1000, 1 << 20}) {
        for (int i = 0; i < 200; ++i) {
            const auto v = r.below(bound);
            EXPECT_LT(v, static_cast<std::uint64_t>(bound));
        }
    }
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    Rng r(7);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.range(3, 6));
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_EQ(*seen.begin(), 3u);
    EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceEdges)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(19);
    std::vector<int> v(32);
    for (int i = 0; i < 32; ++i)
        v[i] = i;
    auto orig = v;
    r.shuffle(v);
    EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), orig.begin()));
    EXPECT_NE(v, orig); // astronomically unlikely to be identity
}

TEST(Bitops, Pow2)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(48));
}

TEST(Bitops, Log2)
{
    EXPECT_EQ(floorLog2(1), 0);
    EXPECT_EQ(floorLog2(64), 6);
    EXPECT_EQ(floorLog2(65), 6);
    EXPECT_EQ(ceilLog2(64), 6);
    EXPECT_EQ(ceilLog2(65), 7);
}

TEST(Bitops, PopCountAndLowestBit)
{
    EXPECT_EQ(popCount(0b1011), 3);
    EXPECT_EQ(lowestSetBit(0b1000), 3);
}

TEST(Bitops, MixBitsSpreads)
{
    // Consecutive inputs should land in different low-bit buckets.
    std::set<std::uint64_t> buckets;
    for (std::uint64_t i = 0; i < 64; ++i)
        buckets.insert(mixBits(i) % 16);
    EXPECT_GE(buckets.size(), 12u);
}

TEST(Stats, CounterBasics)
{
    stats::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageBasics)
{
    stats::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
}

TEST(Stats, HistogramBuckets)
{
    stats::Histogram h(10, 5);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(49);
    h.sample(1000); // overflow
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.bucket(5), 1u); // overflow bucket
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.max(), 1000u);
}

TEST(Stats, HistogramPercentile)
{
    stats::Histogram h(1, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i);
    EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 50.0, 2.0);
    EXPECT_NEAR(static_cast<double>(h.percentile(0.9)), 90.0, 2.0);
}

TEST(Stats, GroupDumpAndReset)
{
    stats::Group g("unit");
    stats::Counter c;
    stats::Average a;
    g.add("count", &c);
    g.add("avg", &a);
    ++c;
    a.sample(3.0);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("unit.count 1"), std::string::npos);
    g.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(a.count(), 0u);
}

TEST(Table, RendersAligned)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    const auto s = os.str();
    EXPECT_NE(s.find("| name "), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    // All lines equal length (aligned box).
    std::istringstream in(s);
    std::string line;
    std::size_t len = 0;
    while (std::getline(in, line)) {
        if (len == 0)
            len = line.size();
        EXPECT_EQ(line.size(), len);
    }
}

TEST(Table, Formatters)
{
    EXPECT_EQ(TextTable::num(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::pct(0.153, 1), "15.3%");
}

TEST(Parse, U64OrHexTakesDecimalAndPrefixedHex)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseU64OrHex("16", v));
    EXPECT_EQ(v, 16u);
    EXPECT_TRUE(parseU64OrHex("0x10", v));
    EXPECT_EQ(v, 16u);
    EXPECT_TRUE(parseU64OrHex("0XfF", v));
    EXPECT_EQ(v, 255u);
    EXPECT_TRUE(parseU64OrHex("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64OrHex("0xffffffffffffffff", v));
    EXPECT_EQ(v, ~std::uint64_t{0});
}

TEST(Parse, U64OrHexRejectsJunkEmptyAndOverflow)
{
    std::uint64_t v = 0;
    for (const char *bad :
         {"", "0x", "x10", "10z", "0x1g", "0x0x1", " 1", "0x 1", "-1",
          "0x-1", "+1", "0x+1", "18446744073709551616",
          "0x10000000000000000"})
        EXPECT_FALSE(parseU64OrHex(bad, v)) << "'" << bad << "'";
    // Plain parseU64 stays decimal-only.
    EXPECT_FALSE(parseU64("0x10", v));
}

TEST(Config, CoresPerGroup)
{
    EXPECT_EQ(coresPerGroup(SharingDegree::Private), 1);
    EXPECT_EQ(coresPerGroup(SharingDegree::Shared8), 8);
}

/** @return @p r's elements in iteration order. */
std::vector<int>
contents(const RingBuf<int> &r)
{
    std::vector<int> out;
    for (const int v : r)
        out.push_back(v);
    return out;
}

TEST(RingBuf, WrapsGrowsByDoublingAndIteratesInFifoOrder)
{
    RingBuf<int> r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 0u);
    for (int i = 0; i < 8; ++i)
        r.push_back(i);
    EXPECT_EQ(r.capacity(), 8u);

    // Wrap-around: three pops free the ring's first slots, and three
    // pushes fill them without growing.
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
    for (int i = 8; i < 11; ++i)
        r.push_back(i);
    EXPECT_EQ(r.capacity(), 8u);
    EXPECT_EQ(r.size(), 8u);
    EXPECT_EQ(contents(r), (std::vector<int>{3, 4, 5, 6, 7, 8, 9, 10}));
    EXPECT_EQ(r[7], 10);

    // A push into a full, wrapped ring doubles it and keeps the order.
    r.push_back(11);
    EXPECT_EQ(r.capacity(), 16u);
    EXPECT_EQ(contents(r),
              (std::vector<int>{3, 4, 5, 6, 7, 8, 9, 10, 11}));
    for (int i = 12; i < 20; ++i)
        r.push_back(i);
    EXPECT_EQ(r.capacity(), 32u);
    EXPECT_EQ(r.size(), 17u);
    for (int i = 3; i < 20; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 32u); // capacity is never given back
}

TEST(RingBuf, EmptiedRingRestartsAtSlotZero)
{
    RingBuf<int> r;
    r.push_back(1);
    const int *slot0 = &r.front();
    r.push_back(2);
    r.pop_front();
    EXPECT_EQ(&r.front(), slot0 + 1);
    // Emptying the ring moves its head back to slot 0, so a queue that
    // seldom holds more than one element reuses one warm slot.
    r.pop_front();
    r.push_back(3);
    EXPECT_EQ(&r.front(), slot0);
    EXPECT_EQ(r.front(), 3);

    // clear() keeps the capacity and restarts at slot 0 as well.
    r.push_back(4);
    r.pop_front();
    r.clear();
    EXPECT_TRUE(r.empty());
    r.push_back(5);
    EXPECT_EQ(&r.front(), slot0);
    EXPECT_EQ(contents(r), std::vector<int>{5});
}

/** @return the tiles a walk of @p cal at cycle @p c visits. */
std::vector<CoreId>
walked(TileCalendar &cal, Cycle c)
{
    std::vector<CoreId> out;
    cal.walk(c, [&](CoreId t) { out.push_back(t); });
    return out;
}

TEST(TileCalendar, WalkVisitsInAscendingOrderAndDrainsItsSlot)
{
    TileCalendar cal(200, 8);
    for (const CoreId t : {130, 3, 64, 199, 0, 63})
        cal.insert(5, t);
    cal.insert(6, 7);
    EXPECT_EQ(walked(cal, 5), (std::vector<CoreId>{0, 3, 63, 64, 130, 199}));
    EXPECT_FALSE(cal.contains(5, 3));
    EXPECT_TRUE(walked(cal, 5).empty());
    // The next cycle's slot is untouched.
    EXPECT_TRUE(cal.contains(6, 7));
    EXPECT_EQ(walked(cal, 6), std::vector<CoreId>{7});
}

TEST(TileCalendar, TilesInsertedDuringAWalkAboveItAreVisited)
{
    // A tile inserted above the walk's position is visited in this
    // walk, in order, across word boundaries. One inserted at or
    // below it stays for the slot's next cycle, one span later.
    TileCalendar cal(200, 8);
    cal.insert(2, 10);
    cal.insert(2, 70);
    std::vector<CoreId> seen;
    cal.walk(2, [&](CoreId t) {
        seen.push_back(t);
        if (t == 10) {
            cal.insert(2, 11);  // above, same word
            cal.insert(2, 150); // above, a later word
            cal.insert(2, 10);  // itself
            cal.insert(2, 4);   // below
        }
    });
    EXPECT_EQ(seen, (std::vector<CoreId>{10, 11, 70, 150}));
    EXPECT_EQ(walked(cal, 2 + 8), (std::vector<CoreId>{4, 10}));
}

TEST(TileCalendar, SlotsWrapAcrossTheSpan)
{
    TileCalendar cal(16, 4);
    EXPECT_EQ(cal.span(), 4u);
    // Cycles 3, 7 and 11 share slot 3; cycle 4 is slot 0.
    cal.insert(7, 2);
    EXPECT_TRUE(cal.contains(3, 2));
    EXPECT_TRUE(cal.contains(11, 2));
    EXPECT_FALSE(cal.contains(4, 2));
    for (Cycle c = 8; c < 11; ++c)
        EXPECT_TRUE(walked(cal, c).empty()) << "cycle " << c;
    EXPECT_EQ(walked(cal, 11), std::vector<CoreId>{2});
    EXPECT_FALSE(cal.contains(7, 2));
    // clear() empties every slot.
    cal.insert(6, 1);
    cal.insert(9, 15);
    cal.clear();
    for (Cycle c = 0; c < 4; ++c)
        EXPECT_TRUE(walked(cal, c).empty()) << "cycle " << c;
}

TEST(Config, GroupCountsAndPartitionSizes)
{
    MachineConfig cfg;
    for (auto d : {SharingDegree::Private, SharingDegree::Shared2,
                   SharingDegree::Shared4, SharingDegree::Shared8,
                   SharingDegree::Shared16}) {
        cfg.sharing = d;
        EXPECT_EQ(cfg.numGroups(), 16 / coresPerGroup(d));
        EXPECT_EQ(cfg.l2PartitionBytes(),
                  cfg.l2TotalBytes / cfg.numGroups());
    }
}

TEST(Config, GroupsPartitionTheChip)
{
    MachineConfig cfg;
    for (auto d : {SharingDegree::Private, SharingDegree::Shared2,
                   SharingDegree::Shared4, SharingDegree::Shared8,
                   SharingDegree::Shared16}) {
        cfg.sharing = d;
        std::set<CoreId> seen;
        for (GroupId g = 0; g < cfg.numGroups(); ++g) {
            const auto members = cfg.coresOfGroup(g);
            EXPECT_EQ(static_cast<int>(members.size()),
                      coresPerGroup(d));
            for (auto c : members) {
                EXPECT_EQ(cfg.groupOfCore(c), g);
                EXPECT_TRUE(seen.insert(c).second);
            }
        }
        EXPECT_EQ(static_cast<int>(seen.size()), cfg.numCores());
    }
}

TEST(Config, Shared4GroupsAreQuadrants)
{
    MachineConfig cfg;
    cfg.sharing = SharingDegree::Shared4;
    // Quadrant 0 on the 4x4 mesh: tiles 0,1,4,5.
    const auto q0 = cfg.coresOfGroup(0);
    EXPECT_EQ(q0, (std::vector<CoreId>{0, 1, 4, 5}));
    const auto q3 = cfg.coresOfGroup(3);
    EXPECT_EQ(q3, (std::vector<CoreId>{10, 11, 14, 15}));
}

TEST(Config, Shared2GroupsAreAdjacentPairs)
{
    MachineConfig cfg;
    cfg.sharing = SharingDegree::Shared2;
    EXPECT_EQ(cfg.coresOfGroup(0), (std::vector<CoreId>{0, 1}));
    EXPECT_EQ(cfg.coresOfGroup(7), (std::vector<CoreId>{14, 15}));
}

TEST(Config, PolicyAndDegreeNames)
{
    EXPECT_EQ(toString(SharingDegree::Shared4), "shared-4-way");
    EXPECT_EQ(toString(SchedPolicy::AffinityRR), "aff-rr");
}

} // namespace
} // namespace consim
