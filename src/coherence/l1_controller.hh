/**
 * @file
 * L1 controller: manages one core's private L0 and L1 caches (paper
 * Table III: 8KB/1-cycle L0 and 64KB/2-cycle L1) and speaks the
 * intra-group protocol with the core's L2 partition bank.
 *
 * The L0 is a small tag filter in front of the L1 (inclusion L0 c L1
 * is maintained); coherence state lives in the L1 (MSI: the partition
 * bank grants S or M). Cores are in-order and blocking, so at most
 * one demand miss is outstanding; dirty evictions are fire-and-forget
 * L1PutM messages.
 */

#ifndef CONSIM_COHERENCE_L1_CONTROLLER_HH
#define CONSIM_COHERENCE_L1_CONTROLLER_HH

#include <functional>

#include "cache/cache_array.hh"
#include "coherence/fabric.hh"
#include "coherence/protocol.hh"
#include "common/stats.hh"

namespace consim
{

/** Per-L1 statistic counters. */
struct L1Stats
{
    stats::Counter l0Hits;
    stats::Counter l1Hits;      ///< L0 miss, L1 hit
    stats::Counter misses;      ///< miss to the last private level
    stats::Counter writebacks;  ///< dirty L1 evictions
    stats::Counter invalsReceived;
    stats::Counter wbReqsServed;
    stats::Histogram missLatency{10, 100}; ///< 10-cycle buckets

    /** Register every member into @p g (hierarchical registry). */
    void
    registerIn(stats::Group &g)
    {
        g.add("l0_hits", &l0Hits);
        g.add("l1_hits", &l1Hits);
        g.add("misses", &misses);
        g.add("writebacks", &writebacks);
        g.add("invals_received", &invalsReceived);
        g.add("wb_reqs_served", &wbReqsServed);
        g.add("miss_latency", &missLatency);
    }
};

/** Result of a core-side cache access. */
struct AccessResult
{
    bool hit = false;
    int latency = 0; ///< valid when hit
};

/** Private-cache controller for one core. */
class L1Controller
{
  public:
    L1Controller(Fabric &fabric, CoreId tile);

    /**
     * Core-side access. On a hit, returns the access latency; on a
     * miss the controller takes ownership and invokes the miss
     * callback when the fill completes. At most one access may be
     * outstanding (in-order blocking core).
     */
    AccessResult access(BlockAddr block, bool is_write);

    /** Register the core's miss-completion callback. */
    void setMissCallback(std::function<void()> fn)
    {
        missDone_ = std::move(fn);
    }

    /** Handle a bank-to-L1 protocol message. */
    void handle(const Msg &msg);

    /** @return true when no miss is outstanding. */
    bool idle() const { return !pending_.active; }

    // --- hardening / diagnostics ---

    /** @return block of the outstanding miss (valid when !idle()). */
    BlockAddr pendingBlock() const { return pending_.block; }

    /** @return cycle the outstanding miss began (valid when !idle()). */
    Cycle pendingStart() const { return pending_.start; }

    /** @return true when the outstanding miss is a write. */
    bool pendingIsWrite() const { return pending_.isWrite; }

    /**
     * Hardening audit: throw SimError when the single outstanding
     * miss has been pending longer than @p limit cycles.
     */
    void auditStuckMiss(Cycle now, Cycle limit) const;

    L1Stats &l1Stats() { return stats_; }
    const L1Stats &l1Stats() const { return stats_; }

    /** Registry node ("l1") holding this controller's stats. */
    stats::Group &statsGroup() { return statsGroup_; }

    /** Inclusion and state invariants (tests); panics on violation. */
    void checkInvariants() const;

    /** Walk valid L1 lines (global coherence checks, tests). */
    template <typename Fn>
    void
    forEachL1Line(Fn &&fn) const
    {
        l1_.forEachLine([&](BlockAddr block, const PrivateCacheLine &line) {
            fn(block, line.state);
        });
    }

  private:
    /** Checkpoint layer reads raw state. */
    friend struct CkptAccess;

    void fillL0(BlockAddr block);
    void sendToBank(MsgType t, BlockAddr block);

    struct Pending
    {
        bool active = false;
        BlockAddr block = 0;
        bool isWrite = false;
        Cycle start = 0;
    };

    Fabric &fab_;
    CoreId tile_;
    GroupId group_;
    CacheArray<PrivateCacheLine> l0_;
    CacheArray<PrivateCacheLine> l1_;
    Pending pending_;
    std::function<void()> missDone_;
    L1Stats stats_;
    stats::Group statsGroup_{"l1"};
};

} // namespace consim

#endif // CONSIM_COHERENCE_L1_CONTROLLER_HH
