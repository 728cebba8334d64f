/**
 * @file
 * L2 partition bank: one tile's slice of its sharing group's last
 * level cache.
 *
 * A group's L2 partition is address-interleaved across the group's
 * member tiles (bank = block mod group size). Each bank:
 *
 *  - serves L1 misses from the group's member cores, maintaining
 *    intra-group L1 coherence through inclusive presence/owner
 *    tracking (the bank is a local directory over member L1s);
 *  - participates in the global directory protocol for blocks it
 *    caches: issuing GetS/GetM on partition misses, answering
 *    FwdGetS/FwdGetM/Inv from homes (the source of the paper's
 *    cache-to-cache transfers), and writing back evictions with
 *    explicit PutM/PutS handshakes (no silent partition evictions,
 *    which keeps the full-map directory exact).
 *
 * Concurrency discipline: operations serialize per block. Local L1
 * requests queue behind an active operation; inbound forwards jump
 * the queue (they complete without the home and would otherwise
 * deadlock the blocking home). A block being written back lives in
 * the writeback buffer until the home's PutAck; forwards are served
 * from the buffer, and new local requests for it wait for the ack.
 */

#ifndef CONSIM_COHERENCE_L2_BANK_HH
#define CONSIM_COHERENCE_L2_BANK_HH

#include <vector>

#include "cache/cache_array.hh"
#include "coherence/fabric.hh"
#include "coherence/protocol.hh"
#include "common/block_map.hh"
#include "common/json.hh"
#include "common/stats.hh"

namespace consim
{

/** Per-bank statistic counters. */
struct L2BankStats
{
    stats::Counter hits;          ///< local requests served in-group
    stats::Counter misses;        ///< partition misses (went to home)
    stats::Counter upgrades;      ///< S->M via home, no data moved
    stats::Counter evictDirty;
    stats::Counter evictClean;
    stats::Counter backInvals;    ///< L1 copies dropped on L2 events
    stats::Counter fwdsServed;    ///< FwdGetS/FwdGetM answered
    stats::Counter invsReceived;
    stats::Counter fillRetries;   ///< fills stalled on full sets
    stats::Counter staleWrites;   ///< dropped stale L1 writebacks

    /** Register every member into @p g (hierarchical registry). */
    void
    registerIn(stats::Group &g)
    {
        g.add("hits", &hits);
        g.add("misses", &misses);
        g.add("upgrades", &upgrades);
        g.add("evict_dirty", &evictDirty);
        g.add("evict_clean", &evictClean);
        g.add("back_invals", &backInvals);
        g.add("fwds_served", &fwdsServed);
        g.add("invs_received", &invsReceived);
        g.add("fill_retries", &fillRetries);
        g.add("stale_writes", &staleWrites);
    }
};

/** One bank of an L2 partition plus its share of protocol logic. */
class L2Bank
{
    /** The checkpoint layer reads raw state. */
    friend struct CkptAccess;

    enum class Phase
    {
        Lookup,        ///< paying the L2 access latency
        WaitHome,      ///< GetS/GetM outstanding at the home
        WaitL1Data,    ///< extracting owner data for a local grant
        WaitFwdL1Data, ///< extracting owner data to answer a forward
        WaitVictimL1,  ///< extracting victim data before a fill
    };

    struct BankTxn
    {
        Phase phase = Phase::Lookup;
        Msg req;                 ///< the local request or forward
        Cycle started = 0;       ///< creation cycle (stuck audit)
        bool dataArrived = false;
        bool grantArrived = false;
        Msg dataMsg;
        Msg grantMsg;
        BlockAddr victimBlock = 0; ///< valid in WaitVictimL1
        bool expectPutM = false;   ///< stale WbData seen; PutM coming
        CoreId extractTarget = invalidCore; ///< L1 being extracted
    };

    struct WbEntry
    {
        bool dirty = false;
        VmId vm = invalidVm;
        Cycle started = 0;       ///< creation cycle (stuck audit)
    };

  public:
    /**
     * Every bank's in-flight state, one machine-wide table per kind,
     * keyed by (bank tile, block) and bounded for the whole machine
     * (System owns them; each bank works through views of its own
     * entries). The bounds, for n cores:
     *
     *  - transactions, 2n: a local request (L1GetS/L1GetM) holds one
     *    while it is served, and an in-order core has one L1 miss
     *    outstanding (an L1 write-back, L1PutM, holds none), so n;
     *    a forward that extracts an L1 owner's data holds one until
     *    the data leaves for the requester, whose fill waits on it,
     *    and a directory Get forwards at most once, so n more;
     *  - queued messages, 2n: the same local requests and forwards,
     *    waiting behind an operation on their block (an Inv is never
     *    queued);
     *  - write-backs, 4n: a fill has one victim, and a write-back
     *    holds its entry until the home acks its one Put. The core
     *    does not wait for that ack, so no message count bounds the
     *    table; but a Put waits at its home only behind a
     *    transaction on its block, which forwards or invalidates to
     *    this buffer and so finishes without it. The measured peak
     *    is about one per core (17 on a 4x4 chip of private L2s,
     *    64 KB in all, with no directory cache), so four per core
     *    leaves over 3x;
     *  - victim extractions, n: one per fill waiting on its victim's
     *    L1 data, and each fill serves one core's miss.
     */
    struct Tables
    {
        explicit Tables(const MachineConfig &cfg);

        UnitTable<BankTxn> active;
        UnitQueues<Msg> waiting;
        UnitTable<WbEntry> wb;
        /** victim block -> fill block for WaitVictimL1 extractions. */
        UnitTable<BlockAddr> victimExtract;

        /** Census of each table (see UnitTable::checkCensus). */
        void
        checkCensus() const
        {
            active.checkCensus();
            waiting.checkCensus();
            wb.checkCensus();
            victimExtract.checkCensus();
        }
    };

    L2Bank(Fabric &fabric, CoreId tile, Tables &tables);

    /** Handle any bank-bound message. */
    void handle(const Msg &msg);

    /** @return true when no operation is in flight at this bank. */
    bool
    idle() const
    {
        return active_.empty() && waiting_.empty() && wb_.empty();
    }

    /** Walk the held lines (replication/occupancy snapshots,
     *  audits). The walker receives each line's global block
     *  address alongside the line. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        array_.forEachLine([&](BlockAddr local, const L2CacheLine &line) {
            fn(globalOf(local), line);
        });
    }

    /** @return @p block's line in this bank, or nullptr (audits; no
     *  LRU effect). @p block must map to this bank. */
    const L2CacheLine *
    lookup(BlockAddr block) const
    {
        return array_.lookup(localOf(block));
    }

    L2BankStats &bankStats() { return stats_; }
    const L2BankStats &bankStats() const { return stats_; }

    /** Registry node ("l2bank") holding this bank's stats. */
    stats::Group &statsGroup() { return statsGroup_; }
    GroupId group() const { return group_; }

    /** Protocol invariant checks (tests); panics on violation. */
    void checkInvariants() const;

    /**
     * Hardening audit: throw SimError for any transaction or
     * writeback entry older than @p limit cycles — a leaked MSHR
     * equivalent (an operation that will never complete keeps its
     * entry forever).
     */
    void auditStuckTxns(Cycle now, Cycle limit) const;

    /** @return true when @p block has any in-flight state here. */
    bool
    hasActivity(BlockAddr block) const
    {
        return active_.contains(block) || wb_.contains(block) ||
               waiting_.has(block);
    }

    /** Active/waiting/writeback snapshot for `consim.diag.v1`. */
    json::Value diagJson() const;

    // --- event entry points (System::execEvent and the mock fabric) ---

    /** BankDispatch: look up @p block's active L1 request once the
     *  L2 access latency has elapsed. */
    void dispatchLocal(BlockAddr block);

    /** BankFillRetry: retry @p block's fill, stalled because every
     *  victim candidate in its set was mid-operation. */
    void fillRetry(BlockAddr block);

  private:
    // --- address helpers ---
    BlockAddr localOf(BlockAddr block) const;
    BlockAddr globalOf(BlockAddr local) const;
    int idxOfCore(CoreId core) const;

    /**
     * @return why @p line cannot be this bank's line of local block
     * @p local, or nullptr when it can. A held line is Shared,
     * Exclusive or Modified; it marks only member cores present; an
     * L1 owner is a present member under an E or M line; and the line
     * belongs to its block's VM. checkInvariants() asserts this of
     * every line, and checkpoint restore refuses a line it rejects.
     */
    const char *lineFault(BlockAddr local, const L2CacheLine &line) const;

    // --- message handlers ---
    void onL1Request(const Msg &m);
    void onL1PutM(const Msg &m);
    void onL1WbData(const Msg &m);
    void onFwd(const Msg &m);
    void onInv(const Msg &m);
    void onData(const Msg &m);
    void onGrant(const Msg &m);
    void onPutAck(const Msg &m);

    // --- operation steps ---
    void startOp(Msg m);
    void pumpQueue(BlockAddr block);
    void drainGlobalOps(BlockAddr block);
    void processFwdOnLine(const Msg &m);
    void serveFwdFromLine(const Msg &m, L2CacheLine *line);
    void serveFwdFromWb(const Msg &m, WbEntry &wb);
    void handleExtractionData(BlockAddr txn_block);
    void tryCompleteFill(BlockAddr block);
    void installAndFinish(BlockAddr block);
    void grantLocal(const Msg &req, L2CacheLine *line);
    void finishLocal(BlockAddr block);

    /** Evict a victim line with no L1 owner (back-inval + Put). */
    void evictLineNow(L2CacheLine *line);

    /** @return a free or evictable slot for @p block, or nullptr. */
    L2CacheLine *pickVictim(BlockAddr block);

    // --- message constructors ---
    Msg makeMsg(MsgType t, BlockAddr block, CoreId dst_tile,
                Unit dst_unit) const;
    void sendToHome(MsgType t, const Msg &req);
    void sendDone(BlockAddr block);
    void sendL1(MsgType t, CoreId core, BlockAddr block,
                bool is_write, bool to_invalid = false);
    void sendFwdReply(const Msg &fwd, bool dirty);

    Fabric &fab_;
    CoreId tile_;
    GroupId group_;
    std::vector<CoreId> members_;
    int groupSize_;
    int myBankIdx_;

    CacheArray<L2CacheLine> array_;
    // This bank's entries in the machine-wide tables.
    UnitTable<BankTxn>::View active_;
    UnitQueues<Msg>::View waiting_;
    UnitTable<WbEntry>::View wb_;
    UnitTable<BlockAddr>::View victimExtract_;
    L2BankStats stats_;
    stats::Group statsGroup_{"l2bank"};
};

} // namespace consim

#endif // CONSIM_COHERENCE_L2_BANK_HH
