/**
 * @file
 * Per-VM quality-of-service (performance isolation) configuration.
 *
 * The consolidation study characterizes interference but offers only
 * the sharing degree as a knob; this layer adds enforcement at the
 * three shared resources a noisy neighbour can monopolize:
 *
 *   L2 ways — the protected VM owns an exclusive slice of every L2
 *             set (CAT-style way partitioning: masks govern fills and
 *             victim selection only; lines already resident stay
 *             valid wherever they are).
 *   NoC VCs — per-vnet virtual channels are reserved for the
 *             protected VM's packets, which also win switch
 *             allocation first (with a deterministic periodic yield
 *             cycle so unprotected traffic keeps forward progress).
 *   MC b/w  — unprotected VMs draw read tokens from a per-controller
 *             bucket refilled every window; an empty bucket defers
 *             the access to the next window boundary.
 *
 * Mode `dynamic` additionally re-sizes the protected way slice at
 * epoch boundaries from the stats registry's per-VM miss counters
 * (from the configured floor toward assoc-1, and back down once the
 * VM stops missing), so the partition adapts to observed pressure.
 * QosController is that enforcement state for one System.
 *
 * Spec grammar (CLI `--qos` / checkpoint context):
 *   off
 *   static:vm=V,ways=W[,vcs=N][,tokens=T][,refill=R]
 *   dynamic:vm=V,ways=W[,vcs=N][,tokens=T][,refill=R][,epoch=E]
 * e.g. "static:vm=0,ways=6,vcs=1,tokens=8,refill=64"
 */

#ifndef CONSIM_CORE_QOS_HH
#define CONSIM_CORE_QOS_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/json.hh"
#include "common/types.hh"

namespace consim
{

class System;

/** QoS enforcement mode. */
enum class QosMode
{
    Off,     ///< no enforcement (the paper's machine)
    Static,  ///< fixed way/VC/token allocations
    Dynamic, ///< static allocations + epoch way repartitioner
};

/** @return the grammar keyword for a mode. */
const char *toString(QosMode m);

/** Per-VM isolation knobs for one simulation point. */
struct QosConfig
{
    QosMode mode = QosMode::Off;

    /** The VM whose performance the mechanisms protect. */
    VmId protectedVm = 0;
    /** L2 ways per set reserved for the protected VM (the dynamic
     *  repartitioner's floor). Must leave at least one way for the
     *  other VMs, so valid values are 1..assoc-1. */
    int protectedWays = 4;
    /** Virtual channels per vnet reserved for protected packets
     *  (0 = no reservation; must leave one VC per vnet shared). */
    int reservedVcs = 1;
    /** Memory-controller read tokens an unprotected VM may spend per
     *  refill window, per controller. */
    std::uint64_t mcTokens = 8;
    /** Token-bucket refill window (cycles). */
    Cycle mcRefillCycles = 64;
    /** Dynamic mode: repartition at absolute multiples of this many
     *  cycles (ignored in static mode). */
    Cycle epochCycles = 100'000;

    bool enabled() const { return mode != QosMode::Off; }

    /**
     * Parse the spec grammar. On failure returns false and, when
     * @p err is non-null, stores a human-readable reason that names
     * the valid catalog (same style as FaultPlan::parse).
     */
    static bool parse(const std::string &text, QosConfig &out,
                      std::string *err = nullptr);

    /** @return the config in grammar form (round-trips parse). */
    std::string spec() const;

    /** @return JSON object for the run.v1 config echo. */
    json::Value toJson() const;
};

/**
 * The QoS state of one System: the validated config, the protected
 * VM's current way count and the L2 fill masks that enforce it, and
 * in dynamic mode the epoch repartitioner with its two miss-curve
 * samples. It reads the machine only through System's public API and
 * saves its own `machine.qos` checkpoint section.
 */
class QosController
{
  public:
    /**
     * Validate @p qos against machine @p m running @p num_vms VMs
     * (ways vs associativity, VCs vs vcsPerVnet, VM id range; throws
     * SimError on mismatch) and adopt it, the protected VM starting
     * at its configured way floor.
     */
    void configure(const QosConfig &qos, const MachineConfig &m,
                   int num_vms);

    bool enabled() const { return cfg_.enabled(); }

    /** Repartition epoch length (0 unless dynamic). */
    Cycle
    epochCycles() const
    {
        return cfg_.mode == QosMode::Dynamic ? cfg_.epochCycles : 0;
    }

    /**
     * L2 fill mask of @p vm (every way when QoS is off). CAT-style
     * exclusive partition: the protected VM fills only the low
     * ways_ ways of every set; everyone else fills only the
     * remaining high ways. Existing lines stay valid wherever they
     * are — the mask governs fills and victim choice, not lookups.
     */
    std::uint64_t
    wayMask(VmId vm) const
    {
        if (!cfg_.enabled())
            return ~0ull;
        const std::uint64_t prot = (1ull << ways_) - 1;
        return vm == cfg_.protectedVm ? prot : (allWays_ & ~prot);
    }

    /** Epoch boundary: re-size the protected way slice. */
    void repartition(System &sys);

    /** The miss counters the samples diff went back to zero. */
    void
    rebaseline()
    {
        lastMissTotal_ = 0;
        prevDelta_ = 0;
    }

    /** The `consim.diag.v1` dump's "qos" member. */
    json::Value diagJson() const;

  private:
    /** The checkpoint layer reads and restores the runtime state. */
    friend struct CkptAccess;

    QosConfig cfg_;
    std::uint64_t allWays_ = ~0ull; ///< mask of every way of a set
    int ways_ = 0;                  ///< protected VM's current ways
    /** Epoch-boundary miss-curve samples (dynamic repartitioner). */
    std::uint64_t lastMissTotal_ = 0; ///< protected-VM L2 misses
    std::uint64_t prevDelta_ = 0;     ///< last epoch's miss delta
};

} // namespace consim

#endif // CONSIM_CORE_QOS_HH
