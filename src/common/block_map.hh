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
 * Iteration order is unspecified, exactly like unordered_map; every
 * observable consumer (checkpoints, diag dumps) sorts keys first.
 */

#ifndef CONSIM_COMMON_BLOCK_MAP_HH
#define CONSIM_COMMON_BLOCK_MAP_HH

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

    std::size_t count(BlockAddr k) const { return find(k) ? 1 : 0; }
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

    /** Drop every entry; capacity is retained. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i] != kEmpty) {
                keys_[i] = kEmpty;
                if constexpr (!std::is_trivially_destructible_v<V>)
                    vals_[i] = V();
            }
        }
        size_ = 0;
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
    explicit WaitQueueMap(std::size_t initial_capacity = 16)
        : refs_(initial_capacity)
    {
    }

    /** @return true when @p block has a (non-empty) queue. */
    bool has(BlockAddr block) const { return refs_.contains(block); }

    /** @return number of blocks with queued messages. */
    std::size_t size() const { return refs_.size(); }
    bool empty() const { return refs_.empty(); }

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

    /** @return blocks with queued messages (unordered). */
    std::vector<BlockAddr> keys() const { return refs_.keys(); }

    /** Drop everything; node pool capacity is retained. */
    void
    clear()
    {
        refs_.clear();
        nodes_.clear();
        freeHead_ = -1;
    }

    /** Pre-size the node pool. */
    void
    reserveNodes(std::size_t n)
    {
        nodes_.reserve(n);
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

} // namespace consim

#endif // CONSIM_COMMON_BLOCK_MAP_HH
