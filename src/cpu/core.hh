/**
 * @file
 * In-order, blocking, single-issue core model (paper Table III: 16
 * in-order cores mimicking Niagara). Non-memory instructions retire
 * at 1 IPC; memory references access the private hierarchy through
 * the L1 controller and stall the core until the fill returns.
 */

#ifndef CONSIM_CPU_CORE_HH
#define CONSIM_CPU_CORE_HH

#include <algorithm>
#include <vector>

#include "coherence/fabric.hh"
#include "coherence/l1_controller.hh"
#include "common/stats.hh"
#include "common/tile_set.hh"
#include "cpu/instr_stream.hh"

namespace consim
{

/** Per-core statistic counters. */
struct CoreStats
{
    stats::Counter instructions;
    stats::Counter memRefs;
    stats::Counter transactions;
    stats::Counter stallCycles; ///< cycles blocked on a miss

    /** Register every member into @p g (hierarchical registry). */
    void
    registerIn(stats::Group &g)
    {
        g.add("instructions", &instructions);
        g.add("mem_refs", &memRefs);
        g.add("transactions", &transactions);
        g.add("stall_cycles", &stallCycles);
    }
};

/**
 * One hardware context. Idle when no stream is bound.
 *
 * Over-commit: a core may hold several software contexts (more VM
 * threads than cores, as a consolidation hypervisor would schedule).
 * enqueueContext() appends to a run queue; the core round-robins
 * through it on fixed timeslice epochs, switching only at clean
 * instruction boundaries (never mid-miss, never mid-burst), so the
 * rotation is deterministic and checkpoint-exact.
 *
 * Wake calendar: the System ticks only the cores in the calendar's
 * slot for the cycle. A core can act at cycle t iff it is neither
 * blocked nor wedged, holds a stream or a pending rebind, and
 * t >= busyUntil; a tick at any other cycle returns before it touches
 * any state. So the core arms itself (arm()) wherever it may become
 * able to act: after each tick, when a fill unblocks it, and when it
 * is bound or given a rebind between cycles.
 */
class Core
{
  public:
    /** Default preemption quantum for over-committed cores. */
    static constexpr Cycle kDefaultTimesliceCycles = 10'000;

    /** @p wake: the calendar of cores to tick, indexed by cycle. */
    Core(Fabric &fabric, CoreId tile, L1Controller &l1, TileCalendar &wake);

    /**
     * Bind a thread to this core (static binding, as in the paper).
     * @param stream endless instruction supply; nullptr unbinds.
     * @param vm     the VM the thread belongs to.
     */
    void bindThread(InstrStream *stream, VmId vm);

    /**
     * Append a software context to the run queue and bind it when it
     * is the first. With more than one context the core time-slices
     * between them (see class comment).
     */
    void enqueueContext(InstrStream *stream, VmId vm);

    /**
     * Dynamic-scheduling migration: rebind this hardware context to
     * @p stream / @p vm at the next clean instruction boundary. A
     * core that is between instructions switches on its next tick; a
     * core blocked on an outstanding miss finishes the in-flight
     * reference first (the fill retires against the departing
     * thread's VM) and switches when the fill returns. Never legal on
     * wedged or time-multiplexed cores.
     */
    void scheduleRebind(InstrStream *stream, VmId vm);

    /** @return true while a deferred rebind awaits a boundary. */
    bool rebindPending() const { return rebindPending_; }

    /**
     * Call @p fn with every stream this core holds: each queued
     * context when time-sliced, else the latched rebind stream when
     * one is pending, else the bound stream (nothing when that is
     * null). The binding audit requires no stream be held twice.
     */
    template <typename Fn>
    void
    forEachHeld(Fn &&fn) const
    {
        if (multiplexed()) {
            for (const Context &ctx : contexts_)
                fn(ctx.stream);
            return;
        }
        const InstrStream *held = rebindPending_ ? rebindStream_ : stream_;
        if (held != nullptr)
            fn(held);
    }

    /** Set the preemption quantum; 0 restores the default. */
    void
    setTimeslice(Cycle interval)
    {
        timeslice_ = interval ? interval : kDefaultTimesliceCycles;
    }

    /** @return true when more than one context shares this core. */
    bool multiplexed() const { return contexts_.size() > 1; }

    /** @return number of queued software contexts. */
    int numContexts() const
    {
        return static_cast<int>(contexts_.size());
    }

    /** Advance through cycle @p now, then arm for the next. */
    void
    tick(Cycle now)
    {
        step(now);
        arm(now + 1);
    }

    /** @return true when the core can act once its busy time is over
     *  (see class comment). */
    bool
    canAct() const
    {
        return !blocked_ && !wedged_ &&
               (stream_ != nullptr || rebindPending_);
    }

    /** @return the first cycle an in-flight burst or hit leaves free. */
    Cycle busyUntil() const { return busyUntil_; }

    /**
     * Put this core in the wake calendar at the first cycle from
     * @p from on at which it can act, or at from + span - 1 if that
     * is later (its tick then is a no-op that re-arms it). Does
     * nothing when the core cannot act.
     */
    void
    arm(Cycle from)
    {
        if (canAct())
            wake_.insert(std::min(std::max(busyUntil_, from),
                                  from + wake_.span() - 1),
                         tile_);
    }

    /** @return true when no thread is bound. */
    bool idle() const { return stream_ == nullptr; }

    /** @return true while a miss is outstanding (or wedged). */
    bool blocked() const { return blocked_ || wedged_; }

    /**
     * Fault injection: stop retiring forever (a wedged hardware
     * context). The core reports blocked() from here on, so the
     * watchdog's per-core progress audit flags it.
     */
    void wedge() { wedged_ = true; }

    /** @return true when the core was wedged by fault injection. */
    bool wedged() const { return wedged_; }

    /** Monotonic retired-instruction count (never reset; watchdog). */
    std::uint64_t retiredTotal() const { return retiredTotal_; }

    /** Cycle the current miss began (diagnostics; valid if blocked). */
    Cycle blockStart() const { return blockStart_; }

    VmId vm() const { return vm_; }
    CoreId tile() const { return tile_; }
    InstrStream *stream() const { return stream_; }

    CoreStats &coreStats() { return stats_; }
    const CoreStats &coreStats() const { return stats_; }

    /** Registry node ("core") holding this core's stats. */
    stats::Group &statsGroup() { return statsGroup_; }

  private:
    /** Checkpoint layer restores raw fields (bindThread would reset
     *  the in-flight slice and blocked state). */
    friend struct CkptAccess;

    /** The tick proper: a no-op unless the core can act at @p now. */
    void step(Cycle now);
    /** bindThread() without the arm: the tick's own binds (rotation,
     *  a rebind's install) leave the arming to the tick. */
    void bind(InstrStream *stream, VmId vm);
    void missComplete();
    void rotateContext(Cycle now);
    void installRebind(Cycle now);

    /** One schedulable software context (over-committed cores). */
    struct Context
    {
        InstrStream *stream = nullptr;
        VmId vm = invalidVm;
    };

    Fabric &fab_;
    CoreId tile_;
    L1Controller &l1_;
    TileCalendar &wake_;
    InstrStream *stream_ = nullptr;
    VmId vm_ = invalidVm;

    bool blocked_ = false;
    bool wedged_ = false;
    bool rebindPending_ = false;
    InstrStream *rebindStream_ = nullptr;
    VmId rebindVm_ = invalidVm;
    std::uint64_t retiredTotal_ = 0;
    bool haveSlice_ = false;
    WorkSlice slice_;
    Cycle busyUntil_ = 0;
    Cycle blockStart_ = 0;

    // Over-commit run queue. Empty or single-entry on dedicated
    // cores; rotation state is checkpointed so a resume continues
    // the same schedule.
    std::vector<Context> contexts_;
    std::size_t ctxPos_ = 0;
    Cycle timeslice_ = kDefaultTimesliceCycles;
    Cycle nextSlice_ = 0; ///< next rotation boundary (absolute)

    CoreStats stats_;
    stats::Group statsGroup_{"core"};
};

} // namespace consim

#endif // CONSIM_CPU_CORE_HH
