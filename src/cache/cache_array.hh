/**
 * @file
 * Generic set-associative cache array with LRU replacement.
 *
 * The array stores metadata only: consim is a timing simulator, so
 * lines never carry data payloads. Clients instantiate the template
 * with a line type holding their own per-line state (see
 * cache_line.hh) and drive the replacement decisions explicitly:
 *
 *   line = array.lookup(block);         // nullptr on miss
 *   victim = array.victim(block);       // slot a fill would take
 *   if (auto old = array.blockAt(victim)) ... evict *old ...
 *   array.install(victim, block);       // claim the slot
 *
 * Each slot's block and LRU stamp are stored once, in two dense
 * vectors beside the client payloads: key_ (block + 1 for a held
 * slot, 0 for an empty one, so one compare tests both) and lru_ (the
 * stamp of the slot's last install or touch). lookup() and victim(),
 * the two most-executed loops in the simulator, scan only these: 8
 * bytes per way, and one set's words share a cache line for the
 * common associativities. lines_ holds the client's payload, which
 * install() and invalidate() reset, so an empty slot's payload is
 * always default-constructed.
 */

#ifndef CONSIM_CACHE_CACHE_ARRAY_HH
#define CONSIM_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache_line.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace consim
{

/** Size/shape of a cache array; validates and derives set counts. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    int assoc = 1;

    /** Lines held by the array. */
    std::uint64_t numLines() const { return sizeBytes / blockBytes; }

    /** Sets in the array. */
    std::uint64_t numSets() const { return numLines() / assoc; }

    /** Panics on inconsistent geometry (simulator wiring bug). */
    void check() const;
};

/**
 * Set-associative array over client payloads of type LineT. Indexing
 * uses the low-order bits of the block address above any
 * bank-interleave bits, which the owner strips by passing a
 * pre-shifted index address when banked (see L2Bank).
 */
template <typename LineT>
class CacheArray
{
    /** victim()'s default predicate: every held line may go. */
    struct AnyLine
    {
        bool operator()(BlockAddr, const LineT &) const { return true; }
    };

  public:
    explicit CacheArray(const CacheGeometry &geom)
        : geom_(geom), lines_(geom.numLines()),
          key_(geom.numLines(), 0), lru_(geom.numLines(), 0)
    {
        geom_.check();
    }

    /**
     * Look up a block.
     * @return pointer to the held matching line, or nullptr on miss.
     * Does not update LRU; call touch() on an actual access.
     */
    LineT *
    lookup(BlockAddr block)
    {
        auto [begin, end] = setRange(block);
        const std::uint64_t key = block + 1;
        for (auto i = begin; i != end; ++i) {
            if (key_[i] == key)
                return &lines_[i];
        }
        return nullptr;
    }

    /** Const lookup for inspection (no LRU effect). */
    const LineT *
    lookup(BlockAddr block) const
    {
        return const_cast<CacheArray *>(this)->lookup(block);
    }

    /**
     * @return the slot a fill of @p block would claim among the ways
     * whose bit is set in @p way_mask (QoS way partitioning; all ways
     * by default): the first empty way, else the least recently used
     * held line that eligible(held block, line) accepts, else
     * nullptr. The mask must cover at least one way of the set.
     */
    template <typename Eligible = AnyLine>
    LineT *
    victim(BlockAddr block, std::uint64_t way_mask = ~0ull,
           Eligible eligible = {})
    {
        auto [begin, end] = setRange(block);
        LineT *best = nullptr;
        std::uint64_t best_stamp = ~0ull;
        std::uint64_t way_bit = 1;
        for (auto i = begin; i != end; ++i, way_bit <<= 1) {
            if (!(way_mask & way_bit))
                continue;
            if (key_[i] == 0)
                return &lines_[i];
            if (lru_[i] < best_stamp && eligible(key_[i] - 1, lines_[i])) {
                best = &lines_[i];
                best_stamp = lru_[i];
            }
        }
        if (best == nullptr) {
            const std::uint64_t set_ways =
                geom_.assoc == 64 ? ~0ull : (1ull << geom_.assoc) - 1;
            CONSIM_ASSERT((way_mask & set_ways) != 0,
                          "victim: empty way mask for set of block ",
                          block);
        }
        return best;
    }

    /** @return the block @p slot holds, or nullopt when it is empty. */
    std::optional<BlockAddr>
    blockAt(const LineT *slot) const
    {
        const std::uint64_t key = key_[indexOf(slot)];
        if (key == 0)
            return std::nullopt;
        return key - 1;
    }

    /** @return the way index (0..assoc-1) a line of @p block's set
     *  occupies (QoS way-mask audits). */
    int
    wayOf(BlockAddr block, const LineT *line) const
    {
        return static_cast<int>(indexOf(line) -
                                setRange(block).first);
    }

    /**
     * Claim a (previously vacated) slot for a block. The caller must
     * have handled eviction of the old contents. Resets the payload
     * to a default-constructed LineT and makes the line the set's
     * most recently used.
     */
    void
    install(LineT *slot, BlockAddr block)
    {
        CONSIM_ASSERT(slot != nullptr, "install into null slot");
        *slot = LineT{};
        const std::uint64_t i = indexOf(slot);
        key_[i] = block + 1;
        lru_[i] = ++stamp_;
    }

    /** Record an access for replacement purposes. */
    void
    touch(LineT *line)
    {
        lru_[indexOf(line)] = ++stamp_;
    }

    /** Invalidate a line (slot becomes reusable). */
    void
    invalidate(LineT *line)
    {
        *line = LineT{};
        const std::uint64_t i = indexOf(line);
        key_[i] = 0;
        lru_[i] = 0;
    }

    /** @return number of held lines (walks the array; for stats). */
    std::uint64_t
    countValid() const
    {
        std::uint64_t n = 0;
        for (const std::uint64_t k : key_)
            n += k ? 1 : 0;
        return n;
    }

    /** Visit every held line as fn(block, line), in slot order
     *  (snapshots, invariants). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::uint64_t i = 0; i < key_.size(); ++i) {
            if (key_[i] != 0)
                fn(BlockAddr{key_[i] - 1}, lines_[i]);
        }
    }

    const CacheGeometry &geometry() const { return geom_; }

  private:
    /** Checkpoint layer saves and restores slots index-exact (the
     *  victim() choice depends on slot order and LRU stamps). */
    friend struct CkptAccess;

    /** [begin, end) line indices of the set holding @p block. */
    std::pair<std::uint64_t, std::uint64_t>
    setRange(BlockAddr block) const
    {
        const std::uint64_t set = block % geom_.numSets();
        const std::uint64_t begin = set * geom_.assoc;
        return {begin, begin + geom_.assoc};
    }

    std::uint64_t
    indexOf(const LineT *line) const
    {
        return static_cast<std::uint64_t>(line - lines_.data());
    }

    CacheGeometry geom_;
    /** Client payloads; default-constructed in empty slots. */
    std::vector<LineT> lines_;
    /** block + 1 of held slots, 0 of empty ones. */
    std::vector<std::uint64_t> key_;
    /** Stamp of each held slot's last install or touch (0 empty). */
    std::vector<std::uint64_t> lru_;
    std::uint64_t stamp_ = 0;
};

} // namespace consim

#endif // CONSIM_CACHE_CACHE_ARRAY_HH
