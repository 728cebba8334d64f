/**
 * @file
 * Fixed sets of tiles walked in ascending tile order, and a calendar
 * of them indexed by cycle. The mesh keeps its NIs with queued
 * messages in a set, and its routers with an output finishing and
 * its routers whose allocation pass is due in calendars; System
 * keeps the cores that can act in one.
 */

#ifndef CONSIM_COMMON_TILE_SET_HH
#define CONSIM_COMMON_TILE_SET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace consim
{

/** A fixed set of tiles, sized at construction, walked in ascending
 *  tile order. */
class TileSet
{
  public:
    explicit TileSet(int tiles)
        : words_((static_cast<std::size_t>(tiles) + 63) / 64)
    {
    }

    void insert(CoreId t) { words_[t >> 6] |= bit(t); }
    void erase(CoreId t) { words_[t >> 6] &= ~bit(t); }
    bool contains(CoreId t) const { return (words_[t >> 6] & bit(t)) != 0; }

    void clear() { std::fill(words_.begin(), words_.end(), 0); }

    bool
    empty() const
    {
        for (const std::uint64_t w : words_) {
            if (w != 0)
                return false;
        }
        return true;
    }

    /** Call @p fn on every tile in ascending order. @p fn may insert
     *  or erase tiles; a tile above the current one is visited iff it
     *  is in the set when the walk reaches it. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits != 0) {
                const int b = lowestSetBit(bits);
                fn(static_cast<CoreId>(w * 64 + b));
                bits = words_[w] & (~std::uint64_t(1) << b);
            }
        }
    }

    /** forEach() that erases each tile just before its call: a tile
     *  @p fn inserts at or below the current one stays in the set,
     *  unvisited. */
    template <typename Fn>
    void
    drain(Fn &&fn)
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits != 0) {
                const int b = lowestSetBit(bits);
                words_[w] &= ~(std::uint64_t(1) << b);
                fn(static_cast<CoreId>(w * 64 + b));
                bits = words_[w] & (~std::uint64_t(1) << b);
            }
        }
    }

  private:
    static std::uint64_t bit(CoreId t) { return std::uint64_t(1) << (t & 63); }

    std::vector<std::uint64_t> words_;
};

/**
 * A calendar of tiles by cycle: a ring of span() TileSets, cycle c in
 * slot c & (span - 1). An insert lands within span() cycles of the
 * cycle being walked, so no slot holds two cycles' tiles; walking a
 * slot drains it. A tile inserted at the walked cycle plus span()
 * while that slot is walked lands in it at or below the walk, so the
 * walk leaves it for that later cycle.
 */
class TileCalendar
{
  public:
    /** @p span: the slot count, a power of two. */
    TileCalendar(int tiles, std::size_t span)
        : slots_(span, TileSet(tiles)), mask_(span - 1)
    {
        CONSIM_ASSERT(isPow2(span), "calendar span ", span,
                      " is not a power of two");
    }

    Cycle span() const { return mask_ + 1; }

    void insert(Cycle c, CoreId t) { slots_[c & mask_].insert(t); }
    bool contains(Cycle c, CoreId t) const
    {
        return slots_[c & mask_].contains(t);
    }

    void
    clear()
    {
        for (TileSet &s : slots_)
            s.clear();
    }

    /** Call @p fn on every tile of cycle @p c's slot in ascending
     *  order, draining it (TileSet::drain). */
    template <typename Fn>
    void
    walk(Cycle c, Fn &&fn)
    {
        slots_[c & mask_].drain(fn);
    }

  private:
    std::vector<TileSet> slots_;
    Cycle mask_;
};

} // namespace consim

#endif // CONSIM_COMMON_TILE_SET_HH
