/**
 * @file
 * Hypervisor scheduling policies (paper §III-D): static assignment of
 * workload threads to physical cores, which — because cores share
 * L2 partitions — also assigns threads to shared-N-way caches.
 *
 *  - round-robin: each workload's threads spread across partitions
 *    (load balancing, maximum aggregate capacity, most replication);
 *  - affinity: each workload's threads packed into as few partitions
 *    as possible (maximum sharing, minimum replication);
 *  - aff-rr: round robin of thread *pairs*, so at least two threads
 *    of a workload share each partition;
 *  - random: seeded random placement, modelling the steady state of
 *    an over-committed virtual machine system.
 *
 * On top of the static placement sits the *dynamic* scheduling layer:
 * at every epoch service point of System::run, DynScheduler samples
 * the stats registry and a MigrationPolicy proposes at most one
 * thread swap, applied through deferred rebinds (a migration
 * boundary, the same machinery checkpoints serialize). Every policy
 * is a deterministic pure function of the epoch-delta sample and the
 * run seed; the random policy hashes (seed, epoch index) instead of
 * keeping RNG state, so a checkpoint only needs the epoch baselines
 * to resume byte-identically.
 */

#ifndef CONSIM_CORE_SCHEDULER_HH
#define CONSIM_CORE_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "common/types.hh"

namespace consim
{

class System;

/** One thread-to-core binding. */
struct ThreadPlacement
{
    VmId vm = invalidVm;
    int thread = 0;
    CoreId core = invalidCore;
};

/**
 * Compute static thread placements for a set of VMs.
 *
 * @param cfg             machine (defines groups via sharing degree)
 * @param threads_per_vm  thread count of each VM, by VmId order
 * @param policy          scheduling policy
 * @param seed            used by SchedPolicy::Random only
 * @return one placement per thread. When the total thread count
 *         exceeds the core count the machine is over-committed in
 *         balanced layers: every core receives a first thread before
 *         any receives a second, and cores time-multiplex their
 *         queued contexts (Core::enqueueContext).
 */
std::vector<ThreadPlacement>
scheduleThreads(const MachineConfig &cfg,
                const std::vector<int> &threads_per_vm,
                SchedPolicy policy, std::uint64_t seed);

// ---------------------------------------------------------------- //
// Dynamic (runtime) scheduling.                                     //
// ---------------------------------------------------------------- //

/** Online thread-migration policy. */
enum class DynSchedPolicy
{
    Off,             ///< static placement only (the paper's machine)
    LoadBalance,     ///< equalize per-group aggregate retired load
    AffinityRepair,  ///< re-pack a c2c-heavy VM toward shared groups
    ContentionAware, ///< evict the worst thread from the most-
                     ///< contended L2 group toward the least-contended
    Random,          ///< hypervisor churn (paper SSVII): swap a random
                     ///< legal pair every epoch, never judged
};

/** @return the grammar keyword for a policy. */
const char *toString(DynSchedPolicy p);

/**
 * Dynamic-scheduling knobs for one simulation point.
 *
 * Spec grammar (CLI `--dyn-sched` / checkpoint context):
 *   off
 *   load-balance[,epoch=E]
 *   affinity-repair[,epoch=E]
 *   contention-aware[,epoch=E]
 *   random[,epoch=E]
 * e.g. "contention-aware,epoch=20000"
 */
struct DynSchedConfig
{
    DynSchedPolicy policy = DynSchedPolicy::Off;
    /** Re-evaluate at absolute multiples of this many cycles. */
    Cycle epochCycles = 100'000;

    bool enabled() const { return policy != DynSchedPolicy::Off; }

    /**
     * Parse the spec grammar. On failure returns false and, when
     * @p err is non-null, stores a human-readable reason that names
     * the valid catalog (same style as QosConfig::parse).
     */
    static bool parse(const std::string &text, DynSchedConfig &out,
                      std::string *err = nullptr);

    /** @return the config in grammar form (round-trips parse). */
    std::string spec() const;

    /** @return JSON object for the run.v1 config echo. */
    json::Value toJson() const;
};

/** One core's epoch-delta view, as sampled at the service point. */
struct DynCoreSample
{
    VmId vm = invalidVm;        ///< bound VM (invalidVm when idle)
    bool eligible = false;      ///< legal swap endpoint (not wedged,
                                ///< not time-multiplexed; mid-miss
                                ///< cores rebind at the fill return)
    bool idle = false;          ///< no stream bound
    std::uint64_t retired = 0;  ///< instructions retired this epoch
};

/** One VM's epoch-delta counters. */
struct DynVmSample
{
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t c2cTransfers = 0; ///< clean + dirty cache-to-cache
};

/** One sharing group's (L2 partition's) epoch-delta counters. */
struct DynGroupSample
{
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
};

/** The full epoch sample a policy decides from. */
struct DynSample
{
    std::uint64_t epoch = 0;            ///< now / epochCycles
    std::vector<DynCoreSample> cores;   ///< by CoreId
    std::vector<DynVmSample> vms;       ///< by VmId
    std::vector<DynGroupSample> groups; ///< by GroupId
};

/** A proposed swap of the threads bound to two cores. */
struct ThreadSwap
{
    CoreId a = invalidCore;
    CoreId b = invalidCore;

    bool decided() const { return a != invalidCore; }
};

/**
 * Interface of the dynamic policies. decide() must be a pure function
 * of its arguments and the run seed (deterministic, ties broken
 * toward the lowest id) so that an uninterrupted run and a resumed
 * checkpoint reach identical verdicts from identical samples.
 */
class MigrationPolicy
{
  public:
    virtual ~MigrationPolicy() = default;

    /** @return the grammar keyword of the concrete policy. */
    virtual const char *name() const = 0;

    /**
     * Propose at most one swap for this epoch. Only cores with
     * `eligible` set may appear in the result; ThreadSwap{} (not
     * decided) means "placement is fine, do nothing".
     */
    virtual ThreadSwap decide(const MachineConfig &cfg,
                              const DynSample &s) const = 0;
};

/** @return the policy object for @p p (never null; p != Off); only
 *  `random` reads the run @p seed. */
std::unique_ptr<MigrationPolicy> makeMigrationPolicy(DynSchedPolicy p,
                                                     std::uint64_t seed);

/**
 * The dynamic-scheduling controller of one System. At every epoch
 * boundary it reads the epoch's per-core / per-VM / per-group counter
 * deltas through System's public API, lets the policy propose at most
 * one swap, and exchanges the two cores' bindings through deferred
 * rebinds. It saves its own `machine.dyn_sched` checkpoint section.
 */
class DynScheduler
{
  public:
    /** Arm @p dyn, its policy seeded by the run @p seed, for machine
     *  @p m running @p num_vms VMs. */
    void configure(const DynSchedConfig &dyn, std::uint64_t seed,
                   const MachineConfig &m, int num_vms);

    bool enabled() const { return policy_ != nullptr; }

    /** Epoch length (0 when disabled). */
    Cycle epochCycles() const { return enabled() ? cfg_.epochCycles : 0; }

    /** Thread migrations performed so far. */
    std::uint64_t migrations() const { return migrations_; }

    /** Epoch boundary: sample, judge the last swap, decide, apply. */
    void epoch(System &sys);

    /** The counters the baselines diff went back to zero. */
    void rebaseline();

  private:
    /** The checkpoint layer reads and restores the runtime state. */
    friend struct CkptAccess;

    /** Read the epoch-delta sample and advance the baselines. */
    DynSample takeSample(System &sys);
    /** Exchange two cores' bindings via deferred rebinds. */
    void applySwap(System &sys, const ThreadSwap &swap);

    DynSchedConfig cfg_;
    std::unique_ptr<MigrationPolicy> policy_;
    std::uint64_t migrations_ = 0;
    /** Previous-epoch counter baselines (delta = now - baseline). */
    std::vector<std::uint64_t> lastRetired_; ///< per core
    /** Per VM: {l2Accesses, l2Misses, c2cClean + c2cDirty}. */
    std::vector<std::array<std::uint64_t, 3>> lastVm_;
    /** Per group: {l2Hits, l2Misses} summed over member banks. */
    std::vector<std::array<std::uint64_t, 2>> lastGroup_;
    /**
     * Migration feedback loop: every applied swap is evaluated two
     * epochs later against the chip miss rate it was supposed to
     * improve; a swap that did not help is reverted and the policy
     * backs off exponentially (steady workloads converge to almost
     * no churn, phase changes re-engage quickly).
     */
    std::uint32_t hold_ = 0;    ///< epochs left to sit out
    std::uint32_t backoff_ = 1; ///< next hold after a failed swap
    ThreadSwap eval_;           ///< applied swap awaiting verdict
    std::uint64_t preMiss_ = 0; ///< pre-swap epoch chip L2 misses
    std::uint64_t preAcc_ = 0;  ///< pre-swap epoch chip accesses
};

} // namespace consim

#endif // CONSIM_CORE_SCHEDULER_HH
