/**
 * @file
 * Determinism contract of the simulator and the sweep engine:
 *  (a) the same RunConfig + seed always produces bit-identical
 *      RunResults, and
 *  (b) the parallel sweep engine (runSweep, and averageRunResults
 *      over its outcomes) is bit-identical to serial runExperiment /
 *      averaging, regardless of worker count.
 * This is what makes the paper figures reproducible and lets the
 * benches fan out over host threads without changing any number.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/report.hh"
#include "exec/sweep.hh"

namespace consim
{
namespace
{

/** Short windows: determinism does not need a warmed-up cache. */
RunConfig
quickConfig(SchedPolicy policy, SharingDegree sharing,
            std::uint64_t seed)
{
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"), policy, sharing);
    cfg.seed = seed;
    cfg.warmupCycles = 10'000;
    cfg.measureCycles = 20'000;
    return cfg;
}

/** Run @p cfg under each of @p seeds on a @p jobs-thread sweep and
 *  average the outcomes. */
RunResult
sweepAveraged(const RunConfig &cfg,
              const std::vector<std::uint64_t> &seeds, int jobs = 0)
{
    std::vector<RunConfig> configs(seeds.size(), cfg);
    for (std::size_t s = 0; s < seeds.size(); ++s)
        configs[s].seed = seeds[s];
    std::vector<RunResult> group;
    for (SweepRun &run : runSweep(configs, jobs)) {
        EXPECT_TRUE(run.ok) << run.errorMessage;
        group.push_back(std::move(run.result));
    }
    return averageRunResults(std::move(group));
}

::testing::AssertionResult
identical(const RunResult &a, const RunResult &b)
{
    if (a.vms.size() != b.vms.size())
        return ::testing::AssertionFailure() << "vm count differs";
    for (std::size_t i = 0; i < a.vms.size(); ++i) {
        const VmResult &x = a.vms[i];
        const VmResult &y = b.vms[i];
        if (x.kind != y.kind || x.transactions != y.transactions ||
            x.instructions != y.instructions ||
            x.l1Misses != y.l1Misses ||
            x.l2Accesses != y.l2Accesses ||
            x.l2Misses != y.l2Misses || x.c2cClean != y.c2cClean ||
            x.c2cDirty != y.c2cDirty ||
            x.distinctBlocks != y.distinctBlocks ||
            x.cyclesPerTransaction != y.cyclesPerTransaction ||
            x.missRate != y.missRate ||
            x.avgMissLatency != y.avgMissLatency ||
            x.c2cFraction != y.c2cFraction ||
            x.c2cDirtyShare != y.c2cDirtyShare) {
            return ::testing::AssertionFailure()
                   << "vm " << i << " metrics differ";
        }
    }
    if (a.measuredCycles != b.measuredCycles ||
        a.netAvgLatency != b.netAvgLatency ||
        a.netPackets != b.netPackets)
        return ::testing::AssertionFailure() << "net metrics differ";
    if (a.replication.validLines != b.replication.validLines ||
        a.replication.replicatedLines !=
            b.replication.replicatedLines ||
        a.replication.distinctBlocks !=
            b.replication.distinctBlocks ||
        a.replication.validPerVm != b.replication.validPerVm ||
        a.replication.replicatedPerVm != b.replication.replicatedPerVm)
        return ::testing::AssertionFailure()
               << "replication snapshot differs";
    if (a.occupancy.lines != b.occupancy.lines ||
        a.occupancy.capacity != b.occupancy.capacity)
        return ::testing::AssertionFailure()
               << "occupancy snapshot differs";
    return ::testing::AssertionSuccess();
}

TEST(Determinism, SerialRerunIsBitIdentical)
{
    const RunConfig cfg =
        quickConfig(SchedPolicy::Affinity, SharingDegree::Shared4, 7);
    const RunResult a = runExperiment(cfg);
    const RunResult b = runExperiment(cfg);
    EXPECT_TRUE(identical(a, b));
}

TEST(Determinism, ParallelSweepMatchesSerialRuns)
{
    std::vector<RunConfig> configs = {
        quickConfig(SchedPolicy::Affinity, SharingDegree::Shared4, 1),
        quickConfig(SchedPolicy::RoundRobin, SharingDegree::Shared4,
                    2),
        quickConfig(SchedPolicy::Affinity, SharingDegree::Private, 3),
        quickConfig(SchedPolicy::Random, SharingDegree::Shared8, 4),
    };

    // Force real thread parallelism even on a single-core host.
    const auto parallel = runSweep(configs, 4);

    ASSERT_EQ(parallel.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        ASSERT_TRUE(parallel[i].ok) << parallel[i].errorMessage;
        const RunResult serial = runExperiment(configs[i]);
        EXPECT_TRUE(identical(serial, parallel[i].result))
            << "config " << i;
    }
}

TEST(Determinism, SweepAveragedMatchesSerialAveraging)
{
    const std::vector<std::uint64_t> seeds = {1, 2, 3};
    const RunConfig cfg = quickConfig(SchedPolicy::Affinity,
                                      SharingDegree::Shared4, 999);

    const RunResult parallel = sweepAveraged(cfg, seeds, 3);

    std::vector<RunResult> runs;
    for (const auto seed : seeds) {
        RunConfig c = cfg;
        c.seed = seed;
        runs.push_back(runExperiment(c));
    }
    const RunResult serial = averageRunResults(std::move(runs));
    EXPECT_TRUE(identical(serial, parallel));
}

TEST(Determinism, ParallelAndSerialSweepJsonIsByteIdentical)
{
    // The JSON writer formats numbers with shortest-round-trip
    // std::to_chars and objects keep insertion order, so bit-identical
    // sweep results must serialize to byte-identical run.v1 envelopes.
    std::vector<RunConfig> configs = {
        quickConfig(SchedPolicy::Affinity, SharingDegree::Shared4, 5),
        quickConfig(SchedPolicy::RoundRobin, SharingDegree::Shared2,
                    6),
        quickConfig(SchedPolicy::Random, SharingDegree::Shared16, 7),
    };

    const auto parallel = runSweep(configs, 3);
    const auto serial = runSweep(configs, 1);
    ASSERT_EQ(parallel.size(), configs.size());
    ASSERT_EQ(serial.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        ASSERT_TRUE(parallel[i].ok) << parallel[i].errorMessage;
        ASSERT_TRUE(serial[i].ok) << serial[i].errorMessage;
        const std::string doc =
            runResultJson(configs[i], parallel[i].result).dump(2);
        EXPECT_EQ(doc,
                  runResultJson(configs[i], serial[i].result).dump(2))
            << "config " << i;

        // And each envelope is valid JSON with the run.v1 tag.
        json::Value parsed;
        std::string err;
        ASSERT_TRUE(json::parse(doc, parsed, &err)) << err;
        ASSERT_NE(parsed.find("schema"), nullptr);
        EXPECT_EQ(parsed.find("schema")->str(), "consim.run.v1");
    }
}

TEST(Determinism, AveragedNetPacketsIsAMeanNotASum)
{
    const std::vector<std::uint64_t> seeds = {1, 2};
    const RunConfig cfg = quickConfig(SchedPolicy::Affinity,
                                      SharingDegree::Shared4, 1);
    RunConfig c1 = cfg;
    c1.seed = 1;
    RunConfig c2 = cfg;
    c2.seed = 2;
    const RunResult a = runExperiment(c1);
    const RunResult b = runExperiment(c2);
    const RunResult avg = sweepAveraged(cfg, seeds);
    const std::uint64_t expected = static_cast<std::uint64_t>(
        (static_cast<double>(a.netPackets) +
         static_cast<double>(b.netPackets)) /
            2.0 +
        0.5);
    EXPECT_EQ(avg.netPackets, expected);
    EXPECT_LE(avg.netPackets,
              std::max(a.netPackets, b.netPackets));
    // Raw counters stay sums (totals over all seeds' windows).
    EXPECT_EQ(avg.vms[0].l2Accesses,
              a.vms[0].l2Accesses + b.vms[0].l2Accesses);
}

} // namespace
} // namespace consim
