/**
 * @file
 * Open-addressing hash maps for the coherence hot path.
 *
 * The bank and directory transaction tables were std::unordered_map,
 * which costs one node allocation per insert and one free per erase —
 * pure steady-state malloc traffic, and pointer-chasing on every
 * probe. BlockMap replaces them with linear-probing open addressing
 * over two parallel arrays (SoA: a dense key array that probes touch,
 * and a value array only the final hit touches). Deletion uses
 * backward-shift (no tombstones), so load factor — and therefore
 * probe length — never degrades over a long run.
 *
 * WaitQueueMap is the companion container for the per-block waiting
 * queues: a BlockMap of list heads over one shared free-listed node
 * pool, replacing a map of std::deque<Msg> (each of which allocated
 * its chunk map on creation and freed it when the queue drained —
 * again per-transaction malloc churn).
 *
 * UnitTable and UnitQueues hold one kind of that state for every
 * unit of the machine in one map keyed by (unit, block), sized for
 * one machine-wide bound; each unit works through a View of its own
 * entries.
 *
 * Iteration order is unspecified, exactly like unordered_map; every
 * observable consumer (checkpoints, diag dumps) sorts keys first.
 */

#ifndef CONSIM_COMMON_BLOCK_MAP_HH
#define CONSIM_COMMON_BLOCK_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace consim
{

/** Linear-probing open-addressing map keyed by block address. */
template <typename V>
class BlockMap
{
  public:
    using key_type = BlockAddr;

    /** Keys are (vm << vmSpanBits) | offset, so all-ones is free to
     *  act as the empty-slot sentinel. */
    static constexpr BlockAddr kEmpty = ~BlockAddr(0);

    explicit BlockMap(std::size_t initial_capacity = 16)
    {
        rehash(roundUpPow2(initial_capacity < 8 ? 8
                                                : initial_capacity));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Pre-size so @p n entries fit without growing. */
    void
    reserve(std::size_t n)
    {
        const std::size_t want = roundUpPow2(n * 4 / 3 + 8);
        if (want > keys_.size())
            rehash(want);
    }

    V *
    find(BlockAddr k)
    {
        const std::size_t i = probe(k);
        return keys_[i] == k ? &vals_[i] : nullptr;
    }

    const V *
    find(BlockAddr k) const
    {
        const std::size_t i = probe(k);
        return keys_[i] == k ? &vals_[i] : nullptr;
    }

    bool contains(BlockAddr k) const { return find(k) != nullptr; }

    V &
    at(BlockAddr k)
    {
        V *v = find(k);
        CONSIM_ASSERT(v, "BlockMap::at: missing key ", k);
        return *v;
    }

    const V &
    at(BlockAddr k) const
    {
        const V *v = find(k);
        CONSIM_ASSERT(v, "BlockMap::at: missing key ", k);
        return *v;
    }

    /** Insert-or-find. References stay valid until the next insert
     *  or erase (open addressing moves entries), unlike
     *  unordered_map — callers must not hold them across mutations. */
    V &
    operator[](BlockAddr k)
    {
        CONSIM_ASSERT(k != kEmpty, "BlockMap: reserved key");
        std::size_t i = probe(k);
        if (keys_[i] == k)
            return vals_[i];
        if ((size_ + 1) * 4 > keys_.size() * 3) {
            rehash(keys_.size() * 2);
            i = probe(k);
        }
        keys_[i] = k;
        vals_[i] = V();
        ++size_;
        return vals_[i];
    }

    std::size_t
    erase(BlockAddr k)
    {
        const std::size_t i = probe(k);
        if (keys_[i] != k)
            return 0;
        eraseSlot(i);
        return 1;
    }

    /** Erase the entry @p v points at (a pointer find() or
     *  operator[] returned), without probing for its key again. */
    void
    eraseAt(const V *v)
    {
        const auto i = static_cast<std::size_t>(v - vals_.data());
        CONSIM_ASSERT(i < vals_.size() && keys_[i] != kEmpty,
                      "BlockMap::eraseAt: not a live entry");
        eraseSlot(i);
    }

    /** Call @p fn(BlockAddr, const V &) for every entry (unordered). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmpty)
                fn(keys_[i], vals_[i]);
        }
    }

    /** @return every key, unordered (callers sort for determinism). */
    std::vector<BlockAddr>
    keys() const
    {
        std::vector<BlockAddr> out;
        out.reserve(size_);
        forEach([&](BlockAddr k, const V &) { out.push_back(k); });
        return out;
    }

  private:
    static std::size_t
    roundUpPow2(std::size_t x)
    {
        return isPow2(x) ? x : std::size_t(1) << (floorLog2(x) + 1);
    }

    std::size_t homeOf(BlockAddr k) const { return mixBits(k) & mask_; }

    /** @return the slot holding @p k, or the empty slot where it
     *  would be inserted. */
    std::size_t
    probe(BlockAddr k) const
    {
        std::size_t i = homeOf(k);
        while (keys_[i] != k && keys_[i] != kEmpty)
            i = (i + 1) & mask_;
        return i;
    }

    /** Knuth backward-shift deletion: pull displaced entries back so
     *  probe chains never cross stale slots (no tombstones). */
    void
    eraseSlot(std::size_t i)
    {
        --size_;
        std::size_t j = i;
        for (;;) {
            std::size_t jn = j;
            for (;;) {
                jn = (jn + 1) & mask_;
                if (keys_[jn] == kEmpty) {
                    keys_[j] = kEmpty;
                    if constexpr (
                        !std::is_trivially_destructible_v<V>)
                        vals_[j] = V();
                    return;
                }
                const std::size_t h = homeOf(keys_[jn]);
                // Movable back to j iff its probe chain started at
                // or before j (cyclic distance test).
                if (((jn - h) & mask_) >= ((jn - j) & mask_))
                    break;
            }
            keys_[j] = keys_[jn];
            vals_[j] = std::move(vals_[jn]);
            j = jn;
        }
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<BlockAddr> old_keys = std::move(keys_);
        std::vector<V> old_vals = std::move(vals_);
        keys_.assign(cap, kEmpty);
        vals_.assign(cap, V());
        mask_ = cap - 1;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == kEmpty)
                continue;
            const std::size_t s = probe(old_keys[i]);
            keys_[s] = old_keys[i];
            vals_[s] = std::move(old_vals[i]);
        }
    }

    std::vector<BlockAddr> keys_;
    std::vector<V> vals_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

/**
 * Per-block FIFO queues of @p M over a shared free-listed node pool.
 * Empty queues do not exist: popFront() removes the key when the last
 * element leaves, matching how the protocol code managed its deque
 * map (every drain path erased emptied keys).
 */
template <typename M>
class WaitQueueMap
{
  public:
    /** @return true when @p block has a (non-empty) queue. */
    bool has(BlockAddr block) const { return refs_.contains(block); }

    std::size_t
    depth(BlockAddr block) const
    {
        const QueueRef *q = refs_.find(block);
        return q ? q->depth : 0;
    }

    const M &
    front(BlockAddr block) const
    {
        const QueueRef &q = refs_.at(block);
        return nodes_[static_cast<std::size_t>(q.head)].msg;
    }

    void
    pushBack(BlockAddr block, M m)
    {
        const std::int32_t n = allocNode(std::move(m));
        QueueRef &q = refs_[block];
        if (q.depth == 0) {
            q.head = q.tail = n;
        } else {
            nodes_[static_cast<std::size_t>(q.tail)].next = n;
            q.tail = n;
        }
        ++q.depth;
    }

    void
    pushFront(BlockAddr block, M m)
    {
        const std::int32_t n = allocNode(std::move(m));
        QueueRef &q = refs_[block];
        if (q.depth == 0) {
            q.head = q.tail = n;
        } else {
            nodes_[static_cast<std::size_t>(n)].next = q.head;
            q.head = n;
        }
        ++q.depth;
    }

    /** Pop the front message; drops the key when the queue empties. */
    M
    popFront(BlockAddr block)
    {
        QueueRef &q = refs_.at(block);
        const std::int32_t n = q.head;
        Node &node = nodes_[static_cast<std::size_t>(n)];
        M out = std::move(node.msg);
        q.head = node.next;
        if (--q.depth == 0)
            refs_.erase(block);
        freeNode(n);
        return out;
    }

    /** Walk @p block's messages front-to-back. */
    template <typename Fn>
    void
    forEachMsg(BlockAddr block, Fn &&fn) const
    {
        const QueueRef *q = refs_.find(block);
        if (!q)
            return;
        for (std::int32_t n = q->head; n != -1;
             n = nodes_[static_cast<std::size_t>(n)].next)
            fn(nodes_[static_cast<std::size_t>(n)].msg);
    }

    /** Call @p fn(BlockAddr, depth) for every queue (unordered). */
    template <typename Fn>
    void
    forEachQueue(Fn &&fn) const
    {
        refs_.forEach([&](BlockAddr k, const QueueRef &q) {
            fn(k, static_cast<std::size_t>(q.depth));
        });
    }

    /** Pre-size for @p blocks distinct queues over @p nodes queued
     *  messages total, so neither the ref table nor the node pool
     *  grows once the machine is warmed up. */
    void
    reserve(std::size_t blocks, std::size_t nodes)
    {
        refs_.reserve(blocks);
        nodes_.reserve(nodes);
    }

  private:
    struct QueueRef
    {
        std::int32_t head = -1;
        std::int32_t tail = -1;
        std::uint32_t depth = 0;
    };

    struct Node
    {
        M msg;
        std::int32_t next = -1;
    };

    std::int32_t
    allocNode(M m)
    {
        if (freeHead_ != -1) {
            const std::int32_t n = freeHead_;
            Node &node = nodes_[static_cast<std::size_t>(n)];
            freeHead_ = node.next;
            node.msg = std::move(m);
            node.next = -1;
            return n;
        }
        const auto n = static_cast<std::int32_t>(nodes_.size());
        nodes_.push_back(Node{std::move(m), -1});
        return n;
    }

    void
    freeNode(std::int32_t n)
    {
        nodes_[static_cast<std::size_t>(n)].next = freeHead_;
        freeHead_ = n;
    }

    BlockMap<QueueRef> refs_;
    std::vector<Node> nodes_;
    std::int32_t freeHead_ = -1;
};

/**
 * The (unit, block) keys of the machine-wide tables: a unit's tile
 * sits above the block address, which the VM windows keep far below
 * 2^46 blocks. 18 bits of unit cover a 256x256 mesh; the last unit
 * number is left out, so no key is BlockMap::kEmpty.
 */
struct UnitKey
{
    static constexpr int kShift = 46;
    static constexpr BlockAddr kBlockMask = (BlockAddr(1) << kShift) - 1;
    static constexpr int kMaxUnits = (1 << (64 - kShift)) - 1;

    static BlockAddr prefix(int unit) { return BlockAddr(unit) << kShift; }
    static int
    unitOf(BlockAddr key)
    {
        return static_cast<int>(key >> kShift);
    }
    static BlockAddr blockOf(BlockAddr key) { return key & kBlockMask; }
};

/**
 * The occupancy of one machine-wide table: its live count, its peak
 * since construction (one compare per insert) and its bound. An
 * insert past the bound is an invariant failure that names the table.
 */
class TableCensus
{
  public:
    TableCensus(const char *name, std::size_t bound, int units)
        : name_(name), bound_(bound),
          counts_(static_cast<std::size_t>(units), 0)
    {
        CONSIM_ASSERT(units >= 0 && units < UnitKey::kMaxUnits, name_,
                      " table: ", units, " units do not fit its key");
    }

    const char *name() const { return name_; }
    std::size_t live() const { return live_; }
    std::size_t peak() const { return peak_; }
    std::size_t bound() const { return bound_; }

    /** @return the entries unit @p unit holds. */
    std::size_t
    count(int unit) const
    {
        return counts_[static_cast<std::size_t>(unit)];
    }

    /** Count one more entry at @p unit; fails past the bound. */
    void
    add(int unit, BlockAddr block)
    {
        ++live_;
        CONSIM_ASSERT(live_ <= bound_, name_, " table outgrew its bound (",
                      live_, " > ", bound_, " entries)");
        CONSIM_ASSERT((block & ~UnitKey::kBlockMask) == 0, name_,
                      " table: block ", block, " does not fit its key");
        peak_ = std::max(peak_, live_);
        ++counts_[static_cast<std::size_t>(unit)];
    }

    void
    remove(int unit)
    {
        --live_;
        --counts_[static_cast<std::size_t>(unit)];
    }

    /**
     * Census: @p walk(fn) calls fn(key, entries) for every key of the
     * table; each unit's entries must equal its count. Panics naming
     * the table and the unit.
     */
    template <typename Walk>
    void
    check(Walk &&walk) const
    {
        std::vector<std::size_t> seen(counts_.size(), 0);
        std::size_t total = 0;
        walk([&](BlockAddr key, std::size_t entries) {
            const auto u = static_cast<std::size_t>(UnitKey::unitOf(key));
            CONSIM_ASSERT(u < seen.size(), name_, " table census: key of ",
                          "unit ", u, " past the last unit");
            seen[u] += entries;
            total += entries;
        });
        CONSIM_ASSERT(total == live_, name_, " table census: ", total,
                      " entries, counted ", live_);
        for (std::size_t u = 0; u < counts_.size(); ++u)
            CONSIM_ASSERT(seen[u] == counts_[u], name_,
                          " table census: unit ", u, " holds ", seen[u],
                          " entries, counted ", counts_[u]);
    }

  private:
    const char *name_;
    std::size_t bound_;
    std::size_t live_ = 0;
    std::size_t peak_ = 0;
    std::vector<std::uint32_t> counts_; ///< per unit
};

/**
 * One kind of per-block state of every unit of the machine (say, every
 * L2 bank's transactions) in one BlockMap keyed by (unit, block) and
 * sized for a machine-wide bound: sizing each of n units for the worst
 * case at that unit, every core's request parked there, would hold n²
 * slots. A unit works through its View, which has the BlockMap calls
 * and a count of the unit's own entries.
 *
 * An insert or erase may move any entry of the table, another unit's
 * included: no caller holds an entry across an insert or erase in the
 * same table (units reach each other only through events).
 */
template <typename V>
class UnitTable
{
  public:
    UnitTable(const char *name, std::size_t bound, int units)
        : census_(name, bound, units)
    {
        map_.reserve(bound);
    }

    // Views hold the table's address.
    UnitTable(const UnitTable &) = delete;
    UnitTable &operator=(const UnitTable &) = delete;

    const TableCensus &census() const { return census_; }

    /** Census: each view's count equals its unit's entries. */
    void
    checkCensus() const
    {
        census_.check([&](auto &&fn) {
            map_.forEach([&](BlockAddr k, const V &) { fn(k, 1); });
        });
    }

    /** One unit's entries, keyed by block. */
    class View
    {
      public:
        View(UnitTable &t, int unit)
            : t_(&t), unit_(unit), prefix_(UnitKey::prefix(unit))
        {
        }

        V *find(BlockAddr b) { return t_->map_.find(prefix_ | b); }
        const V *
        find(BlockAddr b) const
        {
            return t_->map_.find(prefix_ | b);
        }
        bool contains(BlockAddr b) const { return find(b) != nullptr; }
        std::size_t count(BlockAddr b) const { return contains(b) ? 1 : 0; }

        const V &
        at(BlockAddr b) const
        {
            const V *v = find(b);
            CONSIM_ASSERT(v, t_->census_.name(), " table: unit ", unit_,
                          " has no entry for block ", b);
            return *v;
        }

        /** Insert-or-find (see UnitTable on holding entries). */
        V &
        operator[](BlockAddr b)
        {
            BlockMap<V> &m = t_->map_;
            const std::size_t before = m.size();
            V &v = m[prefix_ | b];
            if (m.size() != before)
                t_->census_.add(unit_, b);
            return v;
        }

        std::size_t
        erase(BlockAddr b)
        {
            const V *v = find(b);
            if (v == nullptr)
                return 0;
            eraseAt(v);
            return 1;
        }

        /** Erase the entry @p v points at (from find() or operator[]). */
        void
        eraseAt(const V *v)
        {
            t_->map_.eraseAt(v);
            t_->census_.remove(unit_);
        }

        std::size_t size() const { return t_->census_.count(unit_); }
        bool empty() const { return size() == 0; }

        /** Call @p fn(BlockAddr, const V &) for this unit's entries. */
        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            if (empty())
                return;
            t_->map_.forEach([&](BlockAddr k, const V &v) {
                if (UnitKey::unitOf(k) == unit_)
                    fn(UnitKey::blockOf(k), v);
            });
        }

        /** @return this unit's blocks (unordered). */
        std::vector<BlockAddr>
        keys() const
        {
            std::vector<BlockAddr> out;
            out.reserve(size());
            forEach([&](BlockAddr b, const V &) { out.push_back(b); });
            return out;
        }

        const TableCensus &census() const { return t_->census_; }

      private:
        UnitTable *t_;
        int unit_;
        BlockAddr prefix_;
    };

    View view(int unit) { return View(*this, unit); }

  private:
    BlockMap<V> map_;
    TableCensus census_;
};

/**
 * Every unit's per-block waiting queues of one kind in one
 * WaitQueueMap keyed by (unit, block), bounded by the messages queued
 * machine-wide. A unit works through its View; its count is the
 * messages it has queued.
 */
template <typename M>
class UnitQueues
{
  public:
    UnitQueues(const char *name, std::size_t bound, int units)
        : census_(name, bound, units)
    {
        queues_.reserve(bound, bound);
    }

    // Views hold the table's address.
    UnitQueues(const UnitQueues &) = delete;
    UnitQueues &operator=(const UnitQueues &) = delete;

    /** Live, peak and bound count queued messages. */
    const TableCensus &census() const { return census_; }

    /** Census: each view's message count equals its unit's queues'. */
    void
    checkCensus() const
    {
        census_.check([&](auto &&fn) { queues_.forEachQueue(fn); });
    }

    /** One unit's queues, keyed by block. */
    class View
    {
      public:
        View(UnitQueues &q, int unit)
            : q_(&q), unit_(unit), prefix_(UnitKey::prefix(unit))
        {
        }

        bool has(BlockAddr b) const { return q_->queues_.has(prefix_ | b); }
        std::size_t depth(BlockAddr b) const
        {
            return q_->queues_.depth(prefix_ | b);
        }
        const M &front(BlockAddr b) const
        {
            return q_->queues_.front(prefix_ | b);
        }

        void
        pushBack(BlockAddr b, M m)
        {
            q_->census_.add(unit_, b);
            q_->queues_.pushBack(prefix_ | b, std::move(m));
        }

        void
        pushFront(BlockAddr b, M m)
        {
            q_->census_.add(unit_, b);
            q_->queues_.pushFront(prefix_ | b, std::move(m));
        }

        /** Pop the front message; the queue goes when it empties. */
        M
        popFront(BlockAddr b)
        {
            q_->census_.remove(unit_);
            return q_->queues_.popFront(prefix_ | b);
        }

        template <typename Fn>
        void
        forEachMsg(BlockAddr b, Fn &&fn) const
        {
            q_->queues_.forEachMsg(prefix_ | b, fn);
        }

        /** @return true when this unit has no queued message. */
        bool empty() const { return q_->census_.count(unit_) == 0; }

        /** @return the blocks this unit has queues on (unordered). */
        std::vector<BlockAddr>
        keys() const
        {
            std::vector<BlockAddr> out;
            if (empty())
                return out;
            q_->queues_.forEachQueue([&](BlockAddr k, std::size_t) {
                if (UnitKey::unitOf(k) == unit_)
                    out.push_back(UnitKey::blockOf(k));
            });
            return out;
        }

        const TableCensus &census() const { return q_->census_; }

      private:
        UnitQueues *q_;
        int unit_;
        BlockAddr prefix_;
    };

    View view(int unit) { return View(*this, unit); }

  private:
    WaitQueueMap<M> queues_;
    TableCensus census_;
};

} // namespace consim

#endif // CONSIM_COMMON_BLOCK_MAP_HH
