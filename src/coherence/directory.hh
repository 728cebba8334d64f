/**
 * @file
 * Global directory: SGI-Origin-style full-map directory tracking the
 * partition-level MESI state of every block, striped across the
 * tiles by block address (paper §IV-A). Each tile's DirectorySlice
 * serializes transactions per block (a blocking home) and owns a
 * directory cache; a directory-cache miss pays the off-chip latency
 * for the directory-state fetch, modelling the paper's per-core
 * directory caches that "reduce the number of off-chip references".
 */

#ifndef CONSIM_COHERENCE_DIRECTORY_HH
#define CONSIM_COHERENCE_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/cache_array.hh"
#include "coherence/fabric.hh"
#include "coherence/protocol.hh"
#include "common/block_map.hh"
#include "common/coreset.hh"
#include "common/json.hh"
#include "common/stats.hh"

namespace consim
{

/** Default width of each VM's block-address window (blocks =
 *  1 << bits). 16M blocks fits every VM up to ~72 threads; larger
 *  over-committed instances (the 128/256-core scale study) widen the
 *  whole run's windows via requiredVmSpanBits(). The width is per
 *  run, not per VM, so `block >> bits` stays a pure decode — and a
 *  run whose VMs all fit the default keeps byte-identical addresses
 *  to the fixed-width implementation (the home/MC hashes mix the
 *  full address, so the 16-core golden envelopes pin this). */
constexpr int vmSpanBits = 24;

/** @return the window width for a run whose largest VM touches
 *  @p max_blocks distinct blocks (never below the default). */
constexpr int
requiredVmSpanBits(std::uint64_t max_blocks)
{
    int bits = vmSpanBits;
    while ((1ull << bits) <= max_blocks)
        ++bits;
    return bits;
}

/** @return the base block address of a VM's window. */
constexpr BlockAddr
vmBaseBlock(VmId vm, int span_bits = vmSpanBits)
{
    return static_cast<BlockAddr>(vm) << span_bits;
}

/** One directory entry: partition-granular MESI + full sharer map.
 *  The default entry (Invalid, no owner, no sharers) is the only
 *  Invalid one: the protocol never leaves an owner or a sharer
 *  behind in state I. */
struct DirEntry
{
    L2State state = L2State::Invalid;
    std::int16_t owner = -1; ///< GroupId for E/M
    GroupSet sharers;        ///< set of sharing GroupIds
};

/**
 * Backing store for directory entries, holding only the non-default
 * ones. An entry is non-default only while an L2 partition caches
 * its block or a fill or Put on it is in flight, so the live set is
 * bounded by the aggregate L2 line count, not by the VMs' footprints
 * (System derives the bound and reserve()s it). An absent block
 * reads as the default entry, and the directory slice erases an
 * entry as soon as a Put returns it to default, so "absent" and
 * "default" are one state.
 *
 * reserve() fixes the live-set bound and sizes the map so it never
 * rehashes below it; an insert past the bound is an invariant
 * failure, so the steady state allocates nothing. Above 64 groups a
 * sharer set spills words to the heap; an erased entry hands its
 * spill storage to a free list that inserts take from, and reserve()
 * fills the list to the bound up front, so within the bound no
 * insert finds it empty.
 *
 * The storage is logically distributed across the tiles (each slice
 * only touches entries it is home for); one map keeps it simple.
 */
class DirectoryStorage
{
  public:
    DirectoryStorage() { map_.reserve(maxLive_); }

    /** Adopt the run's window width (see requiredVmSpanBits); must
     *  happen before any VM is registered. */
    void
    setSpanBits(int bits)
    {
        CONSIM_ASSERT(bits >= vmSpanBits, "window narrower than "
                      "default");
        CONSIM_ASSERT(windows_.empty(),
                      "span change after VM registration");
        spanBits_ = bits;
    }

    int spanBits() const { return spanBits_; }

    /** Declare a VM's address window before simulation starts. */
    void
    registerVm(VmId vm, std::uint64_t num_blocks)
    {
        CONSIM_ASSERT(vm >= 0, "bad vm");
        CONSIM_ASSERT(num_blocks <= (1ull << spanBits_),
                      "VM footprint exceeds its address window");
        if (static_cast<std::size_t>(vm) >= windows_.size())
            windows_.resize(vm + 1, 0);
        windows_[vm] = num_blocks;
    }

    /**
     * Pre-size for @p max_live entries on a chip of @p num_groups
     * groups. Must precede the first insert; inserts assert that the
     * store never holds more, so the map never grows after it.
     */
    void
    reserve(std::size_t max_live, int num_groups)
    {
        CONSIM_ASSERT(map_.empty(), "directory reserve after use");
        maxLive_ = max_live;
        map_.reserve(max_live);
        if (num_groups > 64) {
            GroupSet wide;
            wide.set(num_groups - 1);
            wide.reset();
            spares_.assign(max_live, wide);
        }
    }

    /** @return true when @p block lies inside a registered window. */
    bool
    inWindow(BlockAddr block) const
    {
        const auto vm = static_cast<std::size_t>(block >> spanBits_);
        const auto off = block & ((1ull << spanBits_) - 1);
        return vm < windows_.size() && off < windows_[vm];
    }

    /** @return a block's entry; the default entry when absent. */
    const DirEntry &
    entry(BlockAddr block) const
    {
        checkWindow(block);
        static const DirEntry none;
        const DirEntry *e = map_.find(block);
        return e ? *e : none;
    }

    /** @return a block's stored entry, or nullptr when default. The
     *  pointer is valid until the next insert or erase. */
    DirEntry *
    find(BlockAddr block)
    {
        checkWindow(block);
        return map_.find(block);
    }

    /** @return a block's entry, inserted as default when absent.
     *  The caller must leave it non-default or erase it. */
    DirEntry &
    insert(BlockAddr block)
    {
        checkWindow(block);
        const std::size_t before = map_.size();
        DirEntry &e = map_[block];
        if (map_.size() != before) {
            CONSIM_ASSERT(map_.size() <= maxLive_,
                          "directory store outgrew its live-set bound "
                          "(", map_.size(), " > ", maxLive_,
                          " entries)");
            if (!spares_.empty()) {
                e.sharers = std::move(spares_.back());
                spares_.pop_back();
            }
        }
        return e;
    }

    /** Drop the stored entry @p e (from find() or insert()); its
     *  block reads as default afterwards, and any spilled sharer
     *  storage goes back to the free list. */
    void
    erase(DirEntry &e)
    {
        if (e.sharers.spilled()) {
            e.sharers.reset();
            spares_.push_back(std::move(e.sharers));
        }
        map_.eraseAt(&e);
    }

    /** @return true when @p block has a stored entry. */
    bool contains(BlockAddr block) const { return map_.contains(block); }

    /** @return the blocks with stored entries, ascending. */
    std::vector<BlockAddr>
    blocks() const
    {
        std::vector<BlockAddr> out = map_.keys();
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    void
    checkWindow(BlockAddr block) const
    {
        CONSIM_ASSERT(inWindow(block),
                      "directory access outside registered windows: "
                      "block ", block);
    }

    /** Live-set bound of a store that is never reserve()d (the unit
     *  rigs drive a handful of blocks). */
    static constexpr std::size_t kUnreservedLive = 64;

    std::size_t maxLive_ = kUnreservedLive;
    BlockMap<DirEntry> map_;
    std::vector<GroupSet> spares_;       ///< empty, spilled sharer sets
    std::vector<std::uint64_t> windows_; ///< blocks per VM window
    int spanBits_ = vmSpanBits;
};

/** Per-slice statistic counters. */
struct DirSliceStats
{
    stats::Counter requests;
    stats::Counter forwards;      ///< FwdGetS/FwdGetM sent
    stats::Counter invalidations; ///< Inv sent
    stats::Counter memReads;
    stats::Counter memWrites;
    stats::Counter dirCacheHits;
    stats::Counter dirCacheMisses;
    stats::Counter queuedRequests; ///< arrived while block busy

    /** Register every member into @p g (hierarchical registry). */
    void
    registerIn(stats::Group &g)
    {
        g.add("requests", &requests);
        g.add("forwards", &forwards);
        g.add("invalidations", &invalidations);
        g.add("mem_reads", &memReads);
        g.add("mem_writes", &memWrites);
        g.add("dir_cache_hits", &dirCacheHits);
        g.add("dir_cache_misses", &dirCacheMisses);
        g.add("queued_requests", &queuedRequests);
    }
};

/** The home-node directory logic for one tile. */
class DirectorySlice
{
  public:
    DirectorySlice(Fabric &fabric, CoreId tile, DirectoryStorage &store);

    /** Handle any directory-bound message. */
    void handle(const Msg &msg);

    /** @return true when no transaction is in flight at this slice. */
    bool idle() const { return active_.empty(); }

    DirSliceStats &sliceStats() { return stats_; }
    const DirSliceStats &sliceStats() const { return stats_; }

    /** Registry node ("dir") holding this slice's stats. */
    stats::Group &statsGroup() { return statsGroup_; }

    /** Write active/waiting transaction state to stderr. */
    void debugDump() const;

    /**
     * Hardening audit: throw SimError for any transaction older than
     * @p limit cycles (a blocked home that will never unblock).
     */
    void auditStuckTxns(Cycle now, Cycle limit) const;

    /** @return true when @p block has any in-flight state here. */
    bool
    hasActivity(BlockAddr block) const
    {
        return active_.contains(block) || waiting_.has(block);
    }

    /** Active/waiting transaction snapshot for `consim.diag.v1`. */
    json::Value diagJson() const;

    /** DirProcess event entry point (System::execEvent and the mock
     *  fabric): serve @p block's active transaction once its
     *  directory-state access has completed. */
    void process(BlockAddr block);

  private:
    /** The checkpoint layer reads raw state. */
    friend struct CkptAccess;

    struct DirCacheLine : CacheLineBase
    {
    };

    struct Txn
    {
        Msg req;
        Cycle started = 0; ///< creation cycle (stuck audit)
        int acksPending = 0;
        bool fwdAckPending = false;
        bool grantSent = false;
        bool doneReceived = false;
        bool dirFetched = false; ///< paid the off-chip state fetch
    };

    void startTxn(Msg m);
    void processGetS(Txn &t, DirEntry &e);
    void processGetM(Txn &t, DirEntry &e);
    void processPut(Txn &t);
    void onInvAck(const Msg &m);
    void onFwdAck(const Msg &m);
    void onDone(const Msg &m);
    void tryFinish(BlockAddr block);
    void finishTxn(BlockAddr block);

    /** @return true on directory-cache hit; inserts on miss. */
    bool dirCacheAccess(BlockAddr block);

    /** Pick the sharer whose bank is closest to the requester. */
    GroupId closestSharer(const GroupSet &sharers, GroupId exclude,
                          BlockAddr block, CoreId req_bank) const;

    void sendMemRead(const Msg &req);
    void sendMemWrite(const Msg &req);
    void sendGrant(Txn &t, L2State grant, bool no_data);
    void sendToBank(MsgType type, GroupId g, const Msg &req);

    Fabric &fab_;
    CoreId tile_;
    DirectoryStorage &store_;
    CacheArray<DirCacheLine> dirCache_;
    BlockMap<Txn> active_{128};
    WaitQueueMap<Msg> waiting_{128};
    DirSliceStats stats_;
    stats::Group statsGroup_{"dir"};
};

} // namespace consim

#endif // CONSIM_COHERENCE_DIRECTORY_HH
