/**
 * @file
 * Hardening-layer tests: check levels, SimError, the deterministic
 * fault catalog tripping its matching checker/watchdog, the
 * directory audits catching a cached block with no directory entry,
 * and the crash-isolated sweep engine salvaging poisoned batches.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/json.hh"
#include "core/experiment.hh"
#include "core/fault.hh"
#include "core/mix.hh"
#include "exec/sweep.hh"
#include "system_rig.hh"

using namespace consim;

namespace
{

/** Restore the ambient check level on scope exit. */
class ScopedLevel
{
  public:
    explicit ScopedLevel(check::Level l) : old_(check::level())
    {
        check::setLevel(l);
    }
    ~ScopedLevel() { check::setLevel(old_); }

  private:
    check::Level old_;
};

RunConfig
quickConfig(std::uint64_t seed)
{
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::Affinity,
                              SharingDegree::Shared4);
    cfg.seed = seed;
    cfg.warmupCycles = 10'000;
    cfg.measureCycles = 20'000;
    return cfg;
}

/** quickConfig plus a wedge that reliably stalls core 0 mid-measure. */
RunConfig
poisonedConfig(std::uint64_t seed)
{
    RunConfig cfg = quickConfig(seed);
    EXPECT_TRUE(FaultPlan::parse("wedge:core=0,at=15000", cfg.faults));
    cfg.watchdogIntervalCycles = 2'000;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------- //
// Check levels and SimError plumbing.                               //
// ---------------------------------------------------------------- //

TEST(CheckLevel, ParseAcceptsNamesAndNumbers)
{
    check::Level l;
    EXPECT_TRUE(check::parseLevel("off", l));
    EXPECT_EQ(l, check::Level::Off);
    EXPECT_TRUE(check::parseLevel("basic", l));
    EXPECT_EQ(l, check::Level::Basic);
    EXPECT_TRUE(check::parseLevel("full", l));
    EXPECT_EQ(l, check::Level::Full);
    EXPECT_TRUE(check::parseLevel("0", l));
    EXPECT_EQ(l, check::Level::Off);
    EXPECT_TRUE(check::parseLevel("2", l));
    EXPECT_EQ(l, check::Level::Full);
}

TEST(CheckLevel, ParseRejectsGarbage)
{
    check::Level l;
    EXPECT_FALSE(check::parseLevel("", l));
    EXPECT_FALSE(check::parseLevel("fulll", l));
    EXPECT_FALSE(check::parseLevel("3", l));
    EXPECT_FALSE(check::parseLevel("-1", l));
}

TEST(CheckLevel, AssertThrowsSimErrorUnderBasic)
{
    ScopedLevel guard(check::Level::Basic);
    try {
        CONSIM_ASSERT(false, "synthetic failure ", 42);
        FAIL() << "CONSIM_ASSERT did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Invariant);
        EXPECT_NE(std::string(e.what()).find("synthetic failure 42"),
                  std::string::npos);
    }
}

TEST(SimErrorTest, KindTagsAreStable)
{
    EXPECT_STREQ(toString(SimErrorKind::Invariant), "invariant");
    EXPECT_STREQ(toString(SimErrorKind::Watchdog), "watchdog");
    EXPECT_STREQ(toString(SimErrorKind::Deadline), "deadline");
}

// ---------------------------------------------------------------- //
// Fault-plan grammar.                                               //
// ---------------------------------------------------------------- //

TEST(FaultPlanTest, GrammarRoundTrips)
{
    const std::string text = "wedge:core=3,at=250000;drop:nth=1200;"
                             "memburst:at=5,len=10,extra=100";
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse(text, plan, &err)) << err;
    ASSERT_EQ(plan.events.size(), 3u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::WedgeCore);
    EXPECT_EQ(plan.events[0].core, 3);
    EXPECT_EQ(plan.events[0].at, 250000u);
    EXPECT_EQ(plan.events[1].kind, FaultKind::DropResponse);
    EXPECT_EQ(plan.events[1].nth, 1200u);
    EXPECT_EQ(plan.events[2].kind, FaultKind::MemBurst);
    EXPECT_EQ(plan.spec(), text);

    // And the round trip is a fixed point.
    FaultPlan again;
    ASSERT_TRUE(FaultPlan::parse(plan.spec(), again, &err)) << err;
    EXPECT_EQ(again.spec(), text);
}

TEST(FaultPlanTest, RejectsGarbage)
{
    FaultPlan plan;
    std::string err;
    EXPECT_FALSE(FaultPlan::parse("bogus:x=1", plan, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(FaultPlan::parse("wedge:core=banana", plan, &err));
    EXPECT_FALSE(FaultPlan::parse("drop:nth=0", plan, &err));
    EXPECT_FALSE(FaultPlan::parse("memburst:at=1,len=0,extra=5",
                                  plan, &err));
    EXPECT_FALSE(FaultPlan::parse("wedge:core=1,at=5,junk=9", plan,
                                  &err));
}

// ---------------------------------------------------------------- //
// Fault catalog: every fault is caught deterministically — no       //
// silent hang, no abort, a parseable diag on every trip.            //
// ---------------------------------------------------------------- //

namespace
{

/** Run @p cfg expecting a SimError; validate its diag envelope. */
SimErrorKind
expectTrip(const RunConfig &cfg)
{
    try {
        runExperiment(cfg);
    } catch (const SimError &e) {
        EXPECT_FALSE(e.diag().empty());
        json::Value d;
        EXPECT_TRUE(json::parse(e.diag(), d));
        EXPECT_NE(d.find("schema"), nullptr);
        EXPECT_EQ(d.find("schema")->str(), "consim.diag.v1");
        EXPECT_NE(d.find("cycle"), nullptr);
        EXPECT_NE(d.find("cores"), nullptr);
        return e.kind();
    }
    ADD_FAILURE() << "expected the fault to trip";
    return SimErrorKind::Invariant;
}

} // namespace

TEST(FaultCatalog, WedgedCoreTripsWatchdog)
{
    EXPECT_EQ(expectTrip(poisonedConfig(1)), SimErrorKind::Watchdog);
}

TEST(FaultCatalog, DroppedResponseTripsWatchdog)
{
    RunConfig cfg = quickConfig(1);
    ASSERT_TRUE(FaultPlan::parse("drop:nth=100", cfg.faults));
    cfg.watchdogIntervalCycles = 2'000;
    EXPECT_EQ(expectTrip(cfg), SimErrorKind::Watchdog);
}

TEST(FaultCatalog, DroppedResponseTripsStuckTxnAudit)
{
    // With the watchdog out of the picture, the wedged transaction is
    // instead caught by the stuck-transaction audit at the next
    // measurement-window boundary (CONSIM_CHECK=full).
    ScopedLevel guard(check::Level::Full);
    RunConfig cfg = quickConfig(1);
    ASSERT_TRUE(FaultPlan::parse("drop:nth=100", cfg.faults));
    // Default 1M-cycle watchdog interval: never fires in 30k cycles.
    EXPECT_EQ(expectTrip(cfg), SimErrorKind::Invariant);
}

TEST(FaultCatalog, MemoryBurstTripsWatchdog)
{
    RunConfig cfg = quickConfig(1);
    ASSERT_TRUE(FaultPlan::parse(
        "memburst:at=12000,len=18000,extra=100000", cfg.faults));
    cfg.watchdogIntervalCycles = 2'000;
    EXPECT_EQ(expectTrip(cfg), SimErrorKind::Watchdog);
}

TEST(FaultCatalog, CycleDeadlineTrips)
{
    RunConfig cfg = quickConfig(1);
    cfg.cycleDeadline = 5'000;
    EXPECT_EQ(expectTrip(cfg), SimErrorKind::Deadline);
}

TEST(FaultCatalog, CleanRunPassesFullChecks)
{
    ScopedLevel guard(check::Level::Full);
    RunConfig cfg = quickConfig(1);
    cfg.watchdogIntervalCycles = 2'000;
    const RunResult r = runExperiment(cfg);
    ASSERT_FALSE(r.vms.empty());
    EXPECT_GT(r.vms[0].instructions, 0u);
}

// ---------------------------------------------------------------- //
// Directory audits: a cached block must have a directory entry.     //
// ---------------------------------------------------------------- //

namespace
{

/**
 * A short Mix 1 run brought to quiescence (every core stopped, every
 * transaction drained), after which the directory entry of the
 * lowest block some L2 partition holds is removed through the
 * store's own API. The directory then reads that block as Invalid
 * while a partition caches it.
 */
class DirectoryAudit : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const RunConfig cfg = quickConfig(1);
        rig_ = buildRig(cfg);
        sys_ = std::make_unique<System>(cfg.machine, rig_.vms,
                                        rig_.placements);
        sys_->run(20'000);
        for (CoreId c = 0; c < cfg.machine.numCores(); ++c)
            sys_->core(c).wedge();
        ASSERT_TRUE(sys_->runUntilQuiescent(100'000));
        sys_->auditWindow();
        sys_->checkGlobalCoherence();

        DirectoryStorage &dir = sys_->directoryStorage();
        const std::vector<BlockAddr> stored = dir.blocks();
        ASSERT_FALSE(stored.empty());
        std::ostringstream os;
        os << "0x" << std::hex << stored.front();
        block_ = os.str();
        dir.erase(*dir.find(stored.front()));
    }

    Rig rig_;
    std::unique_ptr<System> sys_;
    std::string block_; ///< the stripped block, as the audits print it
};

using DirectoryAuditDeathTest = DirectoryAudit;

} // namespace

TEST_F(DirectoryAudit, WindowAuditNamesCachedBlockWithoutEntry)
{
    try {
        sys_->auditWindow();
        FAIL() << "window audit passed with block " << block_
               << " cached but absent from the directory";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find(block_ + " cached in"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(DirectoryAuditDeathTest, GlobalCheckNamesCachedBlockWithoutEntry)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(sys_->checkGlobalCoherence(),
                 "cached block directory thinks invalid: " + block_);
}

// ---------------------------------------------------------------- //
// Crash-isolated sweeps.                                            //
// ---------------------------------------------------------------- //

TEST(SweepHardening, PoisonedPointIsIsolatedAndRetried)
{
    std::vector<RunConfig> configs = {quickConfig(1), quickConfig(2),
                                      poisonedConfig(3),
                                      quickConfig(4)};
    SweepOptions opts;
    opts.jobs = 2;
    opts.maxRetries = 1;
    const std::vector<SweepRun> runs = runSweepEx(configs, opts);
    ASSERT_EQ(runs.size(), 4u);
    for (const std::size_t i : {0u, 1u, 3u}) {
        EXPECT_TRUE(runs[i].ok) << "point " << i;
        EXPECT_EQ(runs[i].retries, 0) << "point " << i;
    }
    EXPECT_FALSE(runs[2].ok);
    EXPECT_EQ(runs[2].retries, opts.maxRetries);
    EXPECT_EQ(runs[2].errorKind, "watchdog");
    EXPECT_FALSE(runs[2].errorMessage.empty());
    EXPECT_FALSE(runs[2].diag.empty());

    // runSweep salvages the batch: good points keep their results.
    const std::vector<RunResult> salvaged = runSweep(configs, opts);
    ASSERT_EQ(salvaged.size(), 4u);
    EXPECT_GT(salvaged[0].vms.size(), 0u);
    EXPECT_EQ(salvaged[2].vms.size(), 0u); // default-constructed
    EXPECT_GT(salvaged[3].vms.size(), 0u);
}

TEST(SweepHardening, PointDeadlineAppliesToConfigsWithoutOne)
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.maxRetries = 0;
    opts.pointDeadlineCycles = 5'000;
    const auto runs = runSweepEx({quickConfig(1)}, opts);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_FALSE(runs[0].ok);
    EXPECT_EQ(runs[0].errorKind, "deadline");
}

TEST(SweepHardening, PoisonedSweepJsonIsByteIdenticalSerialVsParallel)
{
    std::vector<RunConfig> configs = {quickConfig(5), poisonedConfig(6),
                                      quickConfig(7), quickConfig(8)};

    SweepOptions parallel_opts;
    parallel_opts.jobs = 3;
    parallel_opts.maxRetries = 1;
    const std::string parallel_doc =
        sweepResultsJson(configs, runSweepEx(configs, parallel_opts))
            .dump(2);

    SweepOptions serial_opts;
    serial_opts.jobs = 1;
    serial_opts.maxRetries = 1;
    const std::string serial_doc =
        sweepResultsJson(configs, runSweepEx(configs, serial_opts))
            .dump(2);

    EXPECT_EQ(parallel_doc, serial_doc);

    json::Value parsed;
    std::string err;
    ASSERT_TRUE(json::parse(parallel_doc, parsed, &err)) << err;
    EXPECT_EQ(parsed.find("schema")->str(), "consim.sweep.v2");
    const json::Value *points = parsed.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->size(), configs.size());

    // The poisoned point carries a structured error with the parsed
    // consim.diag.v1 dump; the good points inline consim.run.v1.
    const json::Value &bad = points->at(1);
    EXPECT_FALSE(bad.find("ok")->boolean());
    const json::Value *error = bad.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->find("kind")->str(), "watchdog");
    const json::Value *diag = error->find("diag");
    ASSERT_NE(diag, nullptr);
    EXPECT_EQ(diag->find("schema")->str(), "consim.diag.v1");
    const json::Value &good = points->at(0);
    EXPECT_TRUE(good.find("ok")->boolean());
    EXPECT_EQ(good.find("schema")->str(), "consim.run.v1");
}

TEST(SweepHardening, SixteenPointSweepWithTwoFaultsSalvagesFourteen)
{
    std::vector<RunConfig> configs;
    for (std::uint64_t s = 1; s <= 16; ++s)
        configs.push_back(s == 4 || s == 11 ? poisonedConfig(s)
                                            : quickConfig(s));
    SweepOptions opts;
    opts.maxRetries = 1;
    const std::vector<SweepRun> runs = runSweepEx(configs, opts);
    ASSERT_EQ(runs.size(), 16u);
    int good = 0, bad = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].ok) {
            ++good;
        } else {
            ++bad;
            EXPECT_TRUE(i == 3 || i == 10) << "unexpected failure at "
                                           << i;
            EXPECT_EQ(runs[i].retries, opts.maxRetries);
            EXPECT_EQ(runs[i].errorKind, "watchdog");
        }
    }
    EXPECT_EQ(good, 14);
    EXPECT_EQ(bad, 2);
}

TEST(SweepHardening, AveragedSweepDropsFailedSeeds)
{
    // One config whose faults only fire under its own plan: averaging
    // over seeds where every seed fails yields a default result, and
    // a mixed batch drops only the failing config's seeds.
    std::vector<RunConfig> configs = {quickConfig(0),
                                      poisonedConfig(0)};
    const std::vector<std::uint64_t> seeds = {1, 2};
    SweepOptions opts;
    opts.jobs = 2;
    opts.maxRetries = 0;
    const auto results = runSweepAveraged(configs, seeds, opts);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_GT(results[0].vms.size(), 0u);
    EXPECT_EQ(results[1].vms.size(), 0u);
}
