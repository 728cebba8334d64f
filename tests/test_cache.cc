/**
 * @file
 * Unit tests for the cache substrate: geometry, set-associative
 * lookup/install/victim behaviour and LRU ordering.
 */

#include <gtest/gtest.h>

#include "cache/cache_array.hh"
#include "cache/cache_line.hh"

namespace consim
{
namespace
{

CacheGeometry
geo(std::uint64_t bytes, int assoc)
{
    CacheGeometry g;
    g.sizeBytes = bytes;
    g.assoc = assoc;
    return g;
}

TEST(CacheGeometry, DerivedCounts)
{
    const auto g = geo(64 * 1024, 4);
    EXPECT_EQ(g.numLines(), 1024u);
    EXPECT_EQ(g.numSets(), 256u);
}

TEST(CacheArray, MissThenHit)
{
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    EXPECT_EQ(c.lookup(5), nullptr);
    auto *v = c.victim(5);
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(c.blockAt(v));
    c.install(v, 5);
    auto *hit = c.lookup(5);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(c.blockAt(hit), 5u);
}

TEST(CacheArray, SetConflictEvictsLru)
{
    // 2-way, 32 sets: blocks 1, 33, 65 all map to set 1.
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    ASSERT_EQ(c.geometry().numSets(), 32u);
    for (BlockAddr b : {1u, 33u}) {
        auto *v = c.victim(b);
        ASSERT_FALSE(c.blockAt(v));
        c.install(v, b);
    }
    // Touch 1 so that 33 is LRU.
    c.touch(c.lookup(1));
    EXPECT_EQ(c.blockAt(c.victim(65)), 33u);
}

TEST(CacheArray, TouchUpdatesLru)
{
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    c.install(c.victim(1), 1);
    c.install(c.victim(33), 33);
    c.touch(c.lookup(33));
    c.touch(c.lookup(1));
    EXPECT_EQ(c.blockAt(c.victim(65)), 33u);
}

TEST(CacheArray, InvalidateFreesSlot)
{
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    c.install(c.victim(1), 1);
    c.invalidate(c.lookup(1));
    EXPECT_EQ(c.lookup(1), nullptr);
    EXPECT_EQ(c.countValid(), 0u);
}

TEST(CacheArray, InstallResetsDerivedState)
{
    CacheArray<L2CacheLine> c(geo(4096, 2));
    auto *slot = c.victim(7);
    c.install(slot, 7);
    for (int i = 0; i < 4; ++i)
        slot->presence.set(i);
    slot->dirty = true;
    slot->state = L2State::Modified;
    // Evict and reinstall another block in the same slot.
    c.invalidate(slot);
    c.install(slot, 7 + 32 * 2); // same set
    EXPECT_TRUE(slot->presence.none());
    EXPECT_FALSE(slot->dirty);
    EXPECT_EQ(slot->state, L2State::Invalid);
}

TEST(CacheArray, CountValidAndIteration)
{
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    for (BlockAddr b = 0; b < 10; ++b)
        c.install(c.victim(b), b);
    EXPECT_EQ(c.countValid(), 10u);
    // forEachLine visits the held lines only, each with its block.
    std::uint64_t seen = 0;
    c.forEachLine([&](BlockAddr block, const PrivateCacheLine &line) {
        EXPECT_EQ(c.lookup(block), &line);
        ++seen;
    });
    EXPECT_EQ(seen, 10u);
}

TEST(CacheArray, VictimSkipsIneligibleLines)
{
    // 4-way, 16 sets: blocks 3, 19, 35, 51 fill set 3 in LRU order.
    CacheArray<L2CacheLine> c(geo(4096, 4));
    ASSERT_EQ(c.geometry().numSets(), 16u);
    const auto reject = [](BlockAddr rejected) {
        return [rejected](BlockAddr block, const L2CacheLine &) {
            return block != rejected;
        };
    };
    const auto none = [](BlockAddr, const L2CacheLine &) {
        return false;
    };

    // An empty way wins whatever the predicate says.
    c.install(c.victim(3), 3);
    L2CacheLine *empty = c.victim(19, ~0ull, none);
    ASSERT_NE(empty, nullptr);
    EXPECT_FALSE(c.blockAt(empty));
    EXPECT_EQ(c.wayOf(19, empty), 1);

    for (BlockAddr b : {19u, 35u, 51u})
        c.install(c.victim(b), b);
    ASSERT_EQ(c.blockAt(c.victim(67)), 3u);

    // A rejected LRU line yields the next-LRU line.
    EXPECT_EQ(c.blockAt(c.victim(67, ~0ull, reject(3))), 19u);
    // No eligible line yields nullptr.
    EXPECT_EQ(c.victim(67, ~0ull, none), nullptr);
    // The predicate sees each candidate's block and payload.
    c.lookup(35)->pinned = true;
    EXPECT_EQ(c.blockAt(c.victim(67, 0b1100,
                                 [](BlockAddr, const L2CacheLine &l) {
                                     return !l.pinned;
                                 })),
              51u);
}

TEST(CacheArray, DistinctSetsDoNotConflict)
{
    CacheArray<PrivateCacheLine> c(geo(4096, 2));
    // Fill every set with two blocks; nothing should evict.
    const auto sets = c.geometry().numSets();
    for (std::uint64_t s = 0; s < sets; ++s) {
        for (int w = 0; w < 2; ++w) {
            auto *v = c.victim(s + w * sets);
            ASSERT_FALSE(c.blockAt(v));
            c.install(v, s + w * sets);
        }
    }
    EXPECT_EQ(c.countValid(), c.geometry().numLines());
}

} // namespace
} // namespace consim
