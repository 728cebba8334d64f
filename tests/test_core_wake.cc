/**
 * @file
 * The core wake calendar (Core::arm, System::tick): a machine that
 * ticks only the armed cores must keep every core that can act armed
 * no later than the first cycle it can act at. Each case runs the
 * machine's own wake audit (System::checkInvariants) after every
 * cycle, over the paths that arm a core: hits longer than the
 * calendar's span, fills, time-slice rotation, dyn-sched rebinds of
 * idle cores, a wedged core and a restore.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/system.hh"
#include "system_rig.hh"

using namespace consim;

namespace
{

/** Run @p sys for @p cycles, one service-point-aware cycle at a time,
 *  auditing the machine after each. */
void
runChecked(System &sys, Cycle cycles)
{
    for (Cycle c = 0; c < cycles; ++c) {
        sys.run(1);
        sys.checkInvariants();
    }
}

std::string
statsText(const System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

} // namespace

TEST(CoreWake, HitsLongerThanTheSpanKeepTheirCoresArmed)
{
    // A 100-cycle L1 hit outlasts the 64-slot calendar, so a core
    // that hits is armed at the span's last slot and re-armed by that
    // slot's no-op tick. (A 1 MB L2 keeps the per-cycle audit cheap.)
    RunConfig cfg = mixConfig(Mix::byName("Mix 5"), SchedPolicy::Affinity,
                              SharingDegree::Shared4);
    cfg.machine.l1Latency = 100;
    cfg.machine.l2TotalBytes = 1024 * 1024;
    Rig rig = buildRig(cfg);
    System sys(cfg.machine, rig.vms, rig.placements);
    runChecked(sys, 20'000);
    for (CoreId c = 0; c < cfg.machine.numCores(); ++c) {
        EXPECT_GT(sys.core(c).retiredTotal(), 0u) << "core " << c;
        EXPECT_GT(sys.core(c).coreStats().memRefs.value(), 0u)
            << "core " << c;
    }
}

TEST(CoreWake, OverCommittedMigratingRunResumesArmed)
{
    // 80 threads on cores 0-55: cores 0-23 time-slice two threads
    // each, cores 56-63 start idle for random dyn-sched to rebind, and
    // core 5 is wedged mid-run. A snapshot taken mid-run restores into
    // a fresh machine, which re-arms every core from the restored
    // clock; both machines are audited every cycle and end identical.
    RunConfig cfg = mixConfig(Mix::byName("Mix 5"), SchedPolicy::Affinity,
                              SharingDegree::Shared8);
    cfg.machine.meshX = cfg.machine.meshY = 8;
    cfg.machine.l2TotalBytes = 2 * 1024 * 1024;
    cfg.vmThreads = {40, 24, 8, 8};
    cfg.dynSched = {DynSchedPolicy::Random, 1'000};
    ASSERT_TRUE(FaultPlan::parse("wedge:core=5,at=2500", cfg.faults));
    const Cycle timeslice = 700;
    std::vector<ThreadPlacement> placements;
    for (VmId vm = 0; vm < 4; ++vm) {
        for (int t = 0; t < cfg.vmThreads[vm]; ++t) {
            const auto i = static_cast<CoreId>(placements.size());
            placements.push_back({vm, t, i % 56});
        }
    }

    Rig rig = buildRig(cfg);
    System sys(cfg.machine, rig.vms, placements);
    sys.setDynSched(cfg.dynSched, cfg.seed);
    sys.setFaultPlan(cfg.faults);
    sys.setTimeslice(timeslice);
    int idle = 0, multiplexed = 0;
    for (CoreId c = 0; c < cfg.machine.numCores(); ++c) {
        idle += sys.core(c).idle();
        multiplexed += sys.core(c).multiplexed();
    }
    ASSERT_GT(idle, 0);
    ASSERT_GT(multiplexed, 0);
    runChecked(sys, 4'500);
    const json::Value snapshot = sys.saveCheckpoint();
    runChecked(sys, 4'500);
    EXPECT_TRUE(sys.core(5).wedged());
    EXPECT_GT(sys.dynMigrations(), 0u);
    int woken = 0; // idle cores a rebind gave a thread
    for (CoreId c = 56; c < 64; ++c)
        woken += !sys.core(c).idle();
    EXPECT_GT(woken, 0);

    Rig fresh = buildRig(cfg);
    System resumed(cfg.machine, fresh.vms, placements);
    resumed.setDynSched(cfg.dynSched, cfg.seed);
    resumed.restoreCheckpoint(snapshot);
    resumed.setTimeslice(timeslice);
    resumed.checkInvariants();
    runChecked(resumed, 4'500);
    EXPECT_EQ(statsText(resumed), statsText(sys));
}
