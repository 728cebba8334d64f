/**
 * @file
 * System: the whole tiled CMP. Owns the cores, private caches, L2
 * banks, directory slices, memory controllers, and the interconnect;
 * implements the Fabric interface the components talk through; binds
 * VM threads to cores per a schedule; and drives the global clock,
 * stopping on the exact cycle of each service point (QoS and
 * dyn-sched epochs, snapshots, the deadline, watchdog checks).
 *
 * The QoS repartitioner (QosController, core/qos.hh) and the
 * dyn-sched controller (DynScheduler, core/scheduler.hh) own their
 * state and read the machine through the public API below. The
 * hardening layer (watchdog, deadline, audits, diag dump) is defined
 * in system_audit.cc.
 */

#ifndef CONSIM_CORE_SYSTEM_HH
#define CONSIM_CORE_SYSTEM_HH

#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <vector>

#include "common/check.hh"
#include "common/json.hh"
#include "common/stats.hh"

#include "core/event_queue.hh"
#include "core/fault.hh"
#include "core/qos.hh"

#include "coherence/directory.hh"
#include "coherence/fabric.hh"
#include "coherence/l1_controller.hh"
#include "coherence/l2_bank.hh"
#include "coherence/memory_controller.hh"
#include "core/scheduler.hh"
#include "core/vm.hh"
#include "cpu/core.hh"
#include "noc/network.hh"

namespace consim
{

class Mesh;

/** Chip-wide replication snapshot (paper Fig. 12). */
struct ReplicationSnapshot
{
    std::uint64_t validLines = 0;      ///< valid L2 lines chip-wide
    std::uint64_t replicatedLines = 0; ///< lines whose block has >1 copy
    std::uint64_t distinctBlocks = 0;
    /** per-VM valid/replicated line counts. */
    std::vector<std::uint64_t> validPerVm;
    std::vector<std::uint64_t> replicatedPerVm;

    double
    replicatedFraction() const
    {
        return validLines ? static_cast<double>(replicatedLines) /
                                static_cast<double>(validLines)
                          : 0.0;
    }

    double
    replicatedFractionVm(VmId vm) const
    {
        const auto v = validPerVm.at(vm);
        return v ? static_cast<double>(replicatedPerVm.at(vm)) /
                       static_cast<double>(v)
                 : 0.0;
    }
};

/** Per-partition occupancy snapshot (paper Fig. 13). */
struct OccupancySnapshot
{
    /** lines[group][vm] = valid lines of that VM in that partition. */
    std::vector<std::vector<std::uint64_t>> lines;
    std::vector<std::uint64_t> capacity; ///< total lines per partition

    /** Fraction of partition @p g's valid+free capacity held by vm. */
    double share(GroupId g, VmId vm) const
    {
        return capacity.at(g)
                   ? static_cast<double>(lines.at(g).at(vm)) /
                         static_cast<double>(capacity.at(g))
                   : 0.0;
    }
};

/** The simulated chip. */
class System : public Fabric
{
  public:
    /**
     * @param cfg        machine configuration (validated here)
     * @param vms        consolidated workload instances (not owned);
     *                   vms[i]->id() must equal i
     * @param placements static thread-to-core bindings
     */
    System(const MachineConfig &cfg,
           std::vector<VirtualMachine *> vms,
           const std::vector<ThreadPlacement> &placements);
    ~System() override;

    // --- Fabric interface ---
    Cycle now() const override { return now_; }
    void send(Msg m) override;
    /** Queue @p ev in the calendar, keyed (src, seq) from its owning
     *  tile's sequence counter. */
    void scheduleEvent(SimEvent ev, Cycle delay) override;
    const MachineConfig &config() const override { return cfg_; }
    GroupId groupOfTile(CoreId tile) const override
    {
        return groupOf_[tile];
    }
    CoreId bankTileFor(GroupId g, BlockAddr block) const override;
    CoreId homeTileFor(BlockAddr block) const override;
    CoreId memTileFor(BlockAddr block) const override;
    VmId vmOfBlock(BlockAddr block) const override
    {
        return static_cast<VmId>(block >> spanBits_);
    }
    Cycle memFaultExtraLatency() const override;
    std::uint64_t
    qosWayMask(VmId vm) const override
    {
        return isolation_.wayMask(vm);
    }
    void qosRecordThrottleStall(VmId vm) override;
    void recordL2Access(VmId vm) override;
    void recordL2Miss(VmId vm, bool c2c, bool c2c_dirty) override;
    void recordL1Miss(VmId vm, Cycle latency) override;
    void recordTransaction(VmId vm) override;
    void recordInstructions(VmId vm, std::uint64_t n) override;

    // --- simulation control ---

    /** Advance one cycle. */
    void tick();

    /**
     * Run for @p cycles cycles, stopping on the exact cycle of each
     * service point in between (QoS and dyn-sched epochs, snapshots,
     * the deadline, watchdog checks).
     */
    void run(Cycle cycles);

    /**
     * Tests: run until every queue drains or @p max_cycles elapse.
     * @return true when the machine quiesced.
     */
    bool runUntilQuiescent(Cycle max_cycles);

    /** Reset all measurement state (end of warmup). */
    void resetStats();

    /**
     * Root of the hierarchical statistics registry: the whole
     * machine as one tree ("sys.tileNN.{core,l1,l2bank,dir,mc}",
     * "sys.net", "sys.vmNN"). RunResult extraction, dumpStats, and
     * JSON export all read this tree.
     */
    stats::Group &statsRoot() { return statsRoot_; }
    const stats::Group &statsRoot() const { return statsRoot_; }

    /** Dump the whole stats tree as "sys.path.stat value" lines. */
    void dumpStats(std::ostream &os) const;

    // --- component access (tests, benches, snapshots) ---
    Core &core(CoreId t) { return *cores_.at(t); }
    L2Bank &bank(CoreId t) { return *banks_.at(t); }
    DirectorySlice &dir(CoreId t) { return *dirs_.at(t); }
    DirectoryStorage &directoryStorage() { return dirStorage_; }
    int numVms() const { return static_cast<int>(vms_.size()); }
    VirtualMachine &vm(VmId v) { return *vms_.at(v); }

    /** Walk every L2 line on chip (snapshot building). */
    ReplicationSnapshot replicationSnapshot() const;
    OccupancySnapshot occupancySnapshot() const;

    /**
     * Run protocol invariant checks over all components, and the
     * binding audit: no instruction stream is held by two cores
     * (Core::forEachHeld).
     */
    void checkInvariants() const;

    /**
     * Strong cross-check, valid only when quiesced: the directory
     * audit auditWindow runs and L1 inclusion, over every block (none
     * is in flight). Throws SimError on violation.
     */
    void checkGlobalCoherence() const;

    /**
     * L1 inclusion on every block no transaction is working on and
     * @p moving (sorted: the blocks of the messages in flight) does
     * not name: each valid L1 line is backed by its partition's line,
     * whose owner is this core exactly when the L1 line is Modified.
     * Throws SimError on violation.
     */
    void auditInclusion(const std::vector<BlockAddr> &moving) const;

    /** @return true when nothing is in flight anywhere. */
    bool quiesced() const;

    // --- hardening layer ---

    /**
     * Install a deterministic fault plan (call before running).
     * Wedge events whose cycle already passed fire immediately;
     * drop/memburst events arm their respective hooks.
     */
    void setFaultPlan(const FaultPlan &plan);

    /**
     * Enable the forward-progress watchdog: every @p interval cycles
     * of run(), verify that (a) the machine as a whole made progress
     * (events executed, packets delivered, or instructions retired)
     * unless it is quiesced, and (b) no core with a bound thread sat
     * blocked across the whole interval without retiring anything.
     * Throws SimError(Watchdog) with a `consim.diag.v1` dump on
     * violation. 0 disables (the default; runExperiment turns it on).
     */
    void setWatchdogInterval(Cycle interval);

    /**
     * Preemption quantum for over-committed cores (those holding
     * more than one software context). 0 restores the built-in
     * default (Core::kDefaultTimesliceCycles). No effect on cores
     * with a single context.
     */
    void
    setTimeslice(Cycle interval)
    {
        for (auto &c : cores_)
            c->setTimeslice(interval);
    }

    /**
     * Abort run() with SimError(Deadline) when the simulated clock
     * reaches @p deadline (absolute cycle) with work still to do.
     * 0 disables. Sweep workers use this as a per-point budget.
     */
    void
    setCycleDeadline(Cycle deadline)
    {
        services_[Deadline].at = deadline != 0 ? deadline : kNever;
    }

    // --- per-VM QoS (isolation) ---

    /**
     * Install the per-VM QoS configuration (call before running):
     * the L2 way partition (QosController, which validates the
     * config against the machine), the reserved VCs in the network
     * and the token buckets in the memory controllers. Dynamic mode
     * arms the repartition epoch.
     */
    void setQosConfig(const QosConfig &qos);

    // --- dynamic scheduling (online thread migration) ---

    /**
     * Install the dynamic-scheduling policy (call before running),
     * seeded by the run @p seed, and arm its epoch (DynScheduler).
     */
    void setDynSched(const DynSchedConfig &dyn, std::uint64_t seed);

    /** Thread migrations performed by the dynamic scheduler. */
    std::uint64_t dynMigrations() const { return scheduler_.migrations(); }

    /**
     * Window-boundary audit (run under CONSIM_CHECK=full): NoC
     * credit/flit conservation, stuck-transaction (leaked MSHR
     * equivalent) detection in every L1/bank/directory, per-component
     * protocol invariants, and the directory audit: every block no
     * transaction is working on must agree exactly with the partition
     * caches (safe on a non-quiesced machine, unlike the inclusion
     * check of checkGlobalCoherence()). Throws SimError on violation.
     */
    void auditWindow() const;

    /**
     * Full machine snapshot as a `consim.diag.v1` JSON document:
     * per-core blocked state, outstanding L1 misses, active bank and
     * directory transactions, event-queue depth, and the router
     * credit map.
     */
    json::Value diagJson(const std::string &reason) const;

    // --- checkpoint / resume (`consim.ckpt.v5`) ---

    /**
     * Serialize the complete deterministic machine state (cycle,
     * event queue with per-source ordering keys, caches, transaction
     * tables, NoC, RNG streams, stats registry) as a
     * `consim.ckpt.v5` document. The embedded
     * experiment context (setCheckpointContext) rides along so the
     * experiment layer can resume its warmup/measure loop.
     */
    json::Value saveCheckpoint() const;

    /**
     * Restore state saved by saveCheckpoint() into this freshly
     * constructed System. The System must have been built from the
     * same MachineConfig, VM set, and placements as the saved one;
     * resuming then reproduces the uninterrupted run byte for byte.
     */
    void restoreCheckpoint(const json::Value &doc);

    /**
     * Periodic snapshotting: every @p interval cycles of run(), save
     * a checkpoint over the previous one; the latest is attached to
     * every watchdog/deadline SimError. 0 disables (the default;
     * `CONSIM_CKPT` / --ckpt-every turn it on).
     */
    void setCheckpointInterval(Cycle interval);

    /**
     * Experiment-layer context (run config echo, phase) embedded
     * verbatim in every snapshot.
     */
    void setCheckpointContext(json::Value ctx)
    {
        ckptCtx_ = std::move(ctx);
    }

  private:
    friend struct CkptAccess;

    /** The absolute cycle of a service point that is off. */
    static constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

    /**
     * run()'s service points, in the order they fire on one cycle.
     * The order is part of the byte-identity contract: a snapshot on
     * an epoch boundary holds the post-epoch way allocation and the
     * latched rebinds, so a resume does not redo them; a deadline
     * trip carries the snapshot of its own cycle; and the deadline
     * trips before the watchdog looks.
     */
    enum Service
    {
        QosEpoch,
        DynEpoch,
        Snapshot,
        Deadline,
        Watchdog,
        NumServices
    };

    /** One service point: when it is next due, and what it does. */
    struct ServicePoint
    {
        /** > 0: due at every multiple of it, read off the clock (so a
         *  restore that moves the clock moves the point with it). */
        Cycle epoch = 0;
        /** Otherwise: the absolute cycle it is next due at. */
        Cycle at = kNever;
        std::function<void()> fire;

        Cycle
        next(Cycle now) const
        {
            return epoch != 0 ? (now / epoch + 1) * epoch : at;
        }
    };

    /** Dispatch a due event into its owning component. */
    void execEvent(const SimEvent &ev);

    /** Key @p ev from source @p src's sequence counter and queue it
     *  @p delay cycles from now: the one place keys are assigned. */
    void enqueue(std::int32_t src, Cycle delay, SimEvent ev);

    /** Take a periodic snapshot into the ring; re-arm the next. */
    void takeSnapshot();

    /** Throw SimError(@p kind, @p msg) with a `consim.diag.v1` dump
     *  for @p reason and the latest snapshot attached. */
    [[noreturn]] void trip(SimErrorKind kind, const std::string &msg,
                           const std::string &reason) const;

    /**
     * Modelled NI->protocol latency: a packet the mesh ejects at cycle
     * e is handled by its destination unit at e + netHandoff_, as a
     * NET-keyed event. It scales with the mesh diameter
     * (max(3, (X+Y)/4), set in the constructor): 3 on the 4x4 and 8x4
     * chips, 4 on 8x8, 8 on 16x16. Every mesh result depends on it,
     * the golden envelopes included.
     */
    Cycle netHandoff_ = 3;

    /** Tile that owns @p ev: the source its (src, seq) key names. */
    CoreId ownerTileOf(const SimEvent &ev) const;

    /** Per-group bank lookup table with the modulo strength-reduced
     *  for power-of-two member counts (all standard sharing degrees). */
    struct GroupLut
    {
        std::vector<CoreId> tiles;
        std::uint64_t size = 0;
        std::uint64_t mask = 0; ///< size - 1 when pow2, else 0
        bool pow2 = false;
    };

    void deliver(const Msg &m);

    /** Trip when the deadline is reached with work left. */
    void deadlineCheck() const;
    /** Trip on a stall; else baseline the next interval. */
    void watchdogCheck();
    /** Record the progress counters the next check diffs against,
     *  and schedule that check. */
    void watchdogBaseline();

    /**
     * Directory-vs-cache agreement for every block no transaction is
     * working on (on a quiesced machine, every block). Throws
     * SimError on violation.
     */
    void auditDirectory() const;

    /** @return true when no transaction at @p block's home or at any
     *  of its partition banks is working on it: such a block
     *  legitimately disagrees mid-protocol. */
    bool quiet(BlockAddr block) const;

    MachineConfig cfg_;
    std::vector<VirtualMachine *> vms_;

    std::vector<GroupId> groupOf_;                 ///< per tile
    std::vector<GroupLut> membersOf_;              ///< per group
    std::vector<CoreId> mcTiles_;

    int spanBits_ = vmSpanBits; ///< run's VM-window width (decode)
    DirectoryStorage dirStorage_;
    NetworkStats netStats_;
    /** The interconnect; null on the ideal NoC, whose messages travel
     *  as NetDeliver events. */
    std::unique_ptr<Mesh> mesh_;
    std::vector<std::unique_ptr<L1Controller>> l1s_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<L2Bank>> banks_;
    std::vector<std::unique_ptr<DirectorySlice>> dirs_;
    std::vector<std::unique_ptr<MemoryController>> mcs_; ///< by index
    std::vector<int> mcIndexOfTile_; ///< tile -> mc index or -1

    Cycle now_ = 0;
    CalendarQueue events_;

    /**
     * Per-source sequence counters backing the (src, seq) event
     * ordering keys: one per tile, then the network (netSrc_) and
     * the system itself (sysSrc_). A cycle's events run sorted by
     * these keys, so their order is a pure function of machine state
     * and survives checkpoint/restore (snapshots carry the counters).
     */
    std::vector<std::uint64_t> seqBySrc_;
    std::int32_t netSrc_ = 0;
    std::int32_t sysSrc_ = 0;

    // --- hardening state ---
    FaultPlan faultPlan_;
    Cycle watchdogInterval_ = 0;   ///< 0 = watchdog off
    /** Watchdog snapshot at the previous interval boundary. */
    struct WatchdogSnap
    {
        std::uint64_t executed = 0;
        std::uint64_t ejected = 0;
        std::uint64_t retiredSum = 0;
        std::vector<std::uint64_t> retired; ///< per core
        std::vector<char> blocked;          ///< per core
    };
    WatchdogSnap wdSnap_;
    bool dropArmed_ = false;         ///< drop-nth-response fault live
    std::uint64_t dropCountdown_ = 0; ///< responses until the drop
    bool memBurstArmed_ = false;
    Cycle memBurstStart_ = 0;
    Cycle memBurstEnd_ = 0;
    Cycle memBurstExtra_ = 0;

    QosController isolation_;
    DynScheduler scheduler_;

    std::array<ServicePoint, NumServices> services_;
    Cycle runEnd_ = 0; ///< cycle the current run() call stops at

    // --- checkpoint state ---
    Cycle ckptInterval_ = 0;      ///< 0 = periodic snapshots off
    json::Value ckptCtx_;         ///< experiment context for snapshots
    std::string ckptLatest_;      ///< the latest snapshot's text

    stats::Group statsRoot_{"sys"};
    /** Per-tile registry nodes ("tileNN") under statsRoot_. */
    std::vector<std::unique_ptr<stats::Group>> tileGroups_;
};

} // namespace consim

#endif // CONSIM_CORE_SYSTEM_HH
