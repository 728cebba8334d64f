/**
 * @file
 * Property tests for the cache array, swept over geometries with
 * parameterized gtest: behavioural equivalence against a reference
 * LRU model under long random access traces, and structural
 * invariants (capacity, set discipline, no phantom hits).
 */

#include <gtest/gtest.h>

#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/cache_line.hh"
#include "common/rng.hh"

namespace consim
{
namespace
{

/** Reference model: per-set LRU lists of block addresses. */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t sets, int assoc)
        : sets_(sets), assoc_(assoc), lists_(sets)
    {
    }

    /** @return true on hit. Installs (with LRU eviction) on miss. */
    bool
    access(BlockAddr block)
    {
        auto &lst = lists_[block % sets_];
        for (auto it = lst.begin(); it != lst.end(); ++it) {
            if (*it == block) {
                lst.erase(it);
                lst.push_front(block);
                return true;
            }
        }
        lst.push_front(block);
        if (lst.size() > static_cast<std::size_t>(assoc_))
            lst.pop_back();
        return false;
    }

  private:
    std::uint64_t sets_;
    int assoc_;
    std::vector<std::list<BlockAddr>> lists_;
};

struct Geometry
{
    std::uint64_t bytes;
    int assoc;
};

class CacheArrayProperty : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheArrayProperty, MatchesReferenceLruOnRandomTrace)
{
    const auto param = GetParam();
    CacheGeometry g;
    g.sizeBytes = param.bytes;
    g.assoc = param.assoc;
    CacheArray<PrivateCacheLine> cache(g);
    ReferenceLru ref(g.numSets(), g.assoc);
    Rng rng(param.bytes ^ param.assoc);

    // Address range ~3x capacity so hits and misses interleave.
    const std::uint64_t range = g.numLines() * 3;
    for (int i = 0; i < 50'000; ++i) {
        const BlockAddr block = rng.below(range);
        PrivateCacheLine *line = cache.lookup(block);
        const bool ref_hit = ref.access(block);
        ASSERT_EQ(line != nullptr, ref_hit)
            << "divergence at access " << i << " block " << block;
        if (line) {
            cache.touch(line);
        } else {
            auto *victim = cache.victim(block);
            cache.install(victim, block);
        }
    }
}

TEST_P(CacheArrayProperty, NeverExceedsCapacityAndStaysInSet)
{
    const auto param = GetParam();
    CacheGeometry g;
    g.sizeBytes = param.bytes;
    g.assoc = param.assoc;
    CacheArray<PrivateCacheLine> cache(g);
    Rng rng(99);

    for (int i = 0; i < 20'000; ++i) {
        const BlockAddr block = rng.below(g.numLines() * 5);
        if (!cache.lookup(block))
            cache.install(cache.victim(block), block);
    }
    EXPECT_LE(cache.countValid(), g.numLines());

    // Every held line must be findable again (set discipline).
    cache.forEachLine([&](BlockAddr block, const PrivateCacheLine &) {
        EXPECT_NE(cache.lookup(block), nullptr);
    });
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayProperty,
    ::testing::Values(Geometry{4096, 1}, Geometry{4096, 2},
                      Geometry{8192, 4}, Geometry{16384, 8},
                      Geometry{65536, 4}, Geometry{65536, 16},
                      Geometry{131072, 8}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        std::string name = "b";
        name += std::to_string(info.param.bytes);
        name += "_a";
        name += std::to_string(info.param.assoc);
        return name;
    });

} // namespace
} // namespace consim
