/**
 * @file
 * Tests for the metrics layer: VmStats derived quantities, RunResult
 * aggregation helpers, multi-seed averaging, snapshot math, and the
 * experiment-level config helpers.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/system.hh"
#include "exec/sweep.hh"

namespace consim
{
namespace
{

TEST(VmStatsTest, MissRate)
{
    VmStats s;
    EXPECT_DOUBLE_EQ(s.missRate(), 0.0);
    s.l2Accesses += 100;
    s.l2Misses += 25;
    EXPECT_DOUBLE_EQ(s.missRate(), 0.25);
}

TEST(VmStatsTest, C2cFractions)
{
    VmStats s;
    EXPECT_DOUBLE_EQ(s.c2cFraction(), 0.0);
    EXPECT_DOUBLE_EQ(s.c2cDirtyShare(), 0.0);
    s.l2Misses += 100;
    s.c2cClean += 30;
    s.c2cDirty += 10;
    EXPECT_DOUBLE_EQ(s.c2cFraction(), 0.4);
    EXPECT_DOUBLE_EQ(s.c2cDirtyShare(), 0.25);
}

TEST(VmStatsTest, ResetClearsEverything)
{
    VmStats s;
    s.instructions += 5;
    s.l2Misses += 5;
    s.missLatency.sample(10.0);
    s.reset();
    EXPECT_EQ(s.instructions.value(), 0u);
    EXPECT_EQ(s.l2Misses.value(), 0u);
    EXPECT_EQ(s.missLatency.count(), 0u);
}

TEST(RunResultTest, MeansPerKind)
{
    RunResult r;
    VmResult a;
    a.kind = WorkloadKind::TpcH;
    a.cyclesPerTransaction = 100;
    a.missRate = 0.1;
    a.avgMissLatency = 50;
    VmResult b = a;
    b.cyclesPerTransaction = 300;
    b.missRate = 0.3;
    b.avgMissLatency = 150;
    VmResult c;
    c.kind = WorkloadKind::TpcW;
    c.cyclesPerTransaction = 999;
    r.vms = {a, b, c};

    EXPECT_DOUBLE_EQ(r.meanCyclesPerTxn(WorkloadKind::TpcH), 200.0);
    EXPECT_DOUBLE_EQ(r.meanMissRate(WorkloadKind::TpcH), 0.2);
    EXPECT_DOUBLE_EQ(r.meanMissLatency(WorkloadKind::TpcH), 100.0);
    EXPECT_DOUBLE_EQ(r.meanCyclesPerTxn(WorkloadKind::TpcW), 999.0);
    EXPECT_DOUBLE_EQ(r.meanCyclesPerTxn(WorkloadKind::SpecJbb), 0.0);
}

TEST(ReplicationSnapshotTest, Fractions)
{
    ReplicationSnapshot s;
    s.validLines = 100;
    s.replicatedLines = 40;
    s.validPerVm = {50, 50};
    s.replicatedPerVm = {40, 0};
    EXPECT_DOUBLE_EQ(s.replicatedFraction(), 0.4);
    EXPECT_DOUBLE_EQ(s.replicatedFractionVm(0), 0.8);
    EXPECT_DOUBLE_EQ(s.replicatedFractionVm(1), 0.0);
}

TEST(OccupancySnapshotTest, Shares)
{
    OccupancySnapshot s;
    s.lines = {{30, 10}, {0, 20}};
    s.capacity = {100, 100};
    EXPECT_DOUBLE_EQ(s.share(0, 0), 0.3);
    EXPECT_DOUBLE_EQ(s.share(0, 1), 0.1);
    EXPECT_DOUBLE_EQ(s.share(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(s.share(1, 1), 0.2);
}

TEST(ConfigHelpers, IsolationConfig)
{
    const RunConfig cfg =
        isolationConfig(WorkloadKind::TpcH, SchedPolicy::RoundRobin,
                        SharingDegree::Private);
    EXPECT_EQ(cfg.workloads.size(), 1u);
    EXPECT_EQ(cfg.workloads[0], WorkloadKind::TpcH);
    EXPECT_EQ(cfg.policy, SchedPolicy::RoundRobin);
    EXPECT_EQ(cfg.machine.sharing, SharingDegree::Private);
}

TEST(ConfigHelpers, MixConfig)
{
    const RunConfig cfg = mixConfig(Mix::byName("Mix 2"),
                                    SchedPolicy::Affinity,
                                    SharingDegree::Shared8);
    EXPECT_EQ(cfg.workloads.size(), 4u);
    EXPECT_EQ(cfg.machine.sharing, SharingDegree::Shared8);
}

TEST(ConfigHelpers, DefaultWindowsArePositive)
{
    EXPECT_GT(RunConfig{}.warmupCycles, 0u);
    EXPECT_GT(RunConfig{}.measureCycles, 0u);
}

TEST(Averaging, MultiSeedAveragesMetrics)
{
    RunConfig cfg = isolationConfig(WorkloadKind::TpcH,
                                    SchedPolicy::Affinity,
                                    SharingDegree::Shared4);
    cfg.warmupCycles = 3'000;
    cfg.measureCycles = 10'000;
    const RunResult one = runExperiment(cfg);
    std::vector<RunConfig> seeds(3, cfg);
    for (std::size_t s = 0; s < seeds.size(); ++s)
        seeds[s].seed = 1 + s;
    std::vector<RunResult> group;
    for (SweepRun &run : runSweep(seeds)) {
        ASSERT_TRUE(run.ok) << run.errorMessage;
        group.push_back(std::move(run.result));
    }
    const RunResult avg = averageRunResults(std::move(group));
    ASSERT_EQ(avg.vms.size(), 1u);
    // Counters accumulate; rates average. The averaged rate must be
    // in the convex hull of per-seed rates, so just sanity-check it
    // is positive and the accumulation exceeded the single run.
    EXPECT_GT(avg.vms[0].l2Accesses, one.vms[0].l2Accesses);
    EXPECT_GT(avg.vms[0].avgMissLatency, 0.0);
}

TEST(Snapshots, EndToEndOccupancySumsBelowCapacity)
{
    RunConfig cfg = mixConfig(Mix::byName("Mix 5"),
                              SchedPolicy::RoundRobin,
                              SharingDegree::Shared4);
    cfg.warmupCycles = 20'000;
    cfg.measureCycles = 20'000;
    const RunResult r = runExperiment(cfg);
    ASSERT_EQ(r.occupancy.capacity.size(), 4u);
    for (std::size_t g = 0; g < r.occupancy.lines.size(); ++g) {
        double total = 0.0;
        for (std::size_t vm = 0; vm < r.vms.size(); ++vm)
            total += r.occupancy.share(static_cast<GroupId>(g),
                                       static_cast<VmId>(vm));
        EXPECT_LE(total, 1.0 + 1e-9);
        EXPECT_GT(total, 0.0);
    }
}

TEST(Snapshots, ReplicationBoundedByValidLines)
{
    RunConfig cfg = mixConfig(Mix::byName("Mix C"),
                              SchedPolicy::RoundRobin,
                              SharingDegree::Shared4);
    cfg.warmupCycles = 20'000;
    cfg.measureCycles = 20'000;
    const RunResult r = runExperiment(cfg);
    EXPECT_LE(r.replication.replicatedLines, r.replication.validLines);
    EXPECT_LE(r.replication.distinctBlocks, r.replication.validLines);
    EXPECT_GE(r.replication.replicatedFraction(), 0.0);
    EXPECT_LE(r.replication.replicatedFraction(), 1.0);
}

TEST(Snapshots, FullySharedNeverReplicates)
{
    RunConfig cfg = mixConfig(Mix::byName("Mix C"),
                              SchedPolicy::RoundRobin,
                              SharingDegree::Shared16);
    cfg.warmupCycles = 15'000;
    cfg.measureCycles = 15'000;
    const RunResult r = runExperiment(cfg);
    // One partition: a block can have at most one copy.
    EXPECT_EQ(r.replication.replicatedLines, 0u);
}

} // namespace
} // namespace consim
