/**
 * @file
 * Steady-state allocation audit: once a System is warmed up —
 * transaction tables sized, ring buffers grown, sharer sets spilled,
 * event calendar settled — the measure window must perform ZERO
 * heap allocations. The global operator-new hook
 * (common/alloc_hook.hh) counts every allocation in the process, so
 * a nonzero delta pinpoints a hot-path regression (a std::deque
 * sneaking back in, a map rehash mid-window, a calendar bucket
 * outgrowing its reservation).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/alloc_hook.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/system.hh"
#include "system_rig.hh"

using namespace consim;

namespace
{

/** Warm @p cfg up, then require an allocation-free measure window. */
void
expectZeroAllocWindow(const RunConfig &cfg, Cycle warmup,
                      Cycle window)
{
    Rig rig = buildRig(cfg);
    System sys(cfg.machine, rig.vms, rig.placements);
    // Warmup sizes every pool to its steady state: BlockMap tables,
    // WaitQueueMap node pools, router/NI rings, calendar buckets,
    // spilled CoreSet words.
    sys.run(warmup);
    // CONSIM_ALLOC_TRAP=1 turns the first in-window allocation into
    // a trap instruction: run under a debugger to see the call site.
    const bool trap = std::getenv("CONSIM_ALLOC_TRAP") != nullptr;
    const std::uint64_t before = allocCount();
    if (trap)
        allocTrap(true);
    sys.run(window);
    if (trap)
        allocTrap(false);
    const std::uint64_t delta = allocCount() - before;
    EXPECT_EQ(delta, 0u)
        << delta << " heap allocations leaked into a " << window
        << "-cycle measure window after " << warmup
        << " warmup cycles";
}

} // namespace

TEST(AllocSteadyState, SixteenCoreMixWindowIsAllocationFree)
{
    const RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                                    SchedPolicy::Affinity,
                                    SharingDegree::Shared4);
    expectZeroAllocWindow(cfg, 60'000, 30'000);
}

TEST(AllocSteadyState, PrivateSharingWindowIsAllocationFree)
{
    // Private partitions exercise the directory's 3-hop paths and
    // the c2c forwarding machinery hardest.
    const RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                                    SchedPolicy::RoundRobin,
                                    SharingDegree::Private);
    expectZeroAllocWindow(cfg, 60'000, 30'000);
}

TEST(AllocSteadyState, IdealNocWindowIsAllocationFree)
{
    // Ideal NoC: every cross-tile message becomes a NetDeliver
    // calendar event instead of mesh flits, so the event core carries
    // the whole message load.
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::Affinity,
                              SharingDegree::Shared4);
    cfg.machine.idealNoc = true;
    expectZeroAllocWindow(cfg, 60'000, 30'000);
}

TEST(AllocSteadyState, SixtyFourCoreWindowIsAllocationFree)
{
    // Scaled-up mesh: spilled CoreSets (64 cores > one word after
    // group math), longer wormhole routes, more routers — the paths
    // the 256-core sweeps lean on.
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::Affinity,
                              SharingDegree::Shared8);
    cfg.machine.meshX = 8;
    cfg.machine.meshY = 8;
    cfg.vmThreads = {16, 16, 16, 16};
    expectZeroAllocWindow(cfg, 60'000, 30'000);
}

TEST(AllocSteadyState, OverCommittedWindowIsAllocationFree)
{
    // Over-committed: 32 threads on 16 cores. Context rotation
    // (bindThread) must not allocate either.
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::Affinity,
                              SharingDegree::Shared4);
    cfg.vmThreads = {8, 8, 8, 8};
    expectZeroAllocWindow(cfg, 60'000, 30'000);
}

TEST(AllocSteadyState, OverSixtyFourGroupWindowIsAllocationFree)
{
    // 128 private groups on a 16x8 mesh: every sharer set spills
    // past its inline word. Directory entries come and go as blocks
    // are cached and evicted, so their spill storage must be
    // recycled, not freed and re-allocated.
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::RoundRobin,
                              SharingDegree::Private);
    cfg.machine.meshX = 16;
    cfg.machine.meshY = 8;
    cfg.vmThreads = {32, 32, 32, 32};
    expectZeroAllocWindow(cfg, 60'000, 30'000);
}
