/**
 * @file
 * Hardening-layer tests: check levels, SimError, the deterministic
 * fault catalog tripping its matching checker/watchdog, the
 * directory audit catching a cached block with no directory entry
 * through both its entry points, and the crash-isolated sweep engine
 * running each point once and isolating its failure.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/json.hh"
#include "core/experiment.hh"
#include "core/fault.hh"
#include "core/mix.hh"
#include "core/report.hh"
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
// Machine-wide transaction tables: peaks stay well inside bounds.   //
// ---------------------------------------------------------------- //

namespace
{

/** Run Mix 5 on private L2s of @p l2_bytes with no directory cache
 *  (the setting that fills the tables fastest), then require every
 *  table's peak, as `consim.diag.v1` reports it, at or below 3/4 of
 *  its bound, and the census to hold. */
void
expectTablePeaksInsideBounds(int mesh, std::uint64_t l2_bytes,
                             int threads_per_vm, Cycle warmup,
                             Cycle measure)
{
    RunConfig cfg = mixConfig(Mix::byName("Mix 5"), SchedPolicy::Affinity,
                              SharingDegree::Private);
    cfg.machine.meshX = cfg.machine.meshY = mesh;
    cfg.machine.l2TotalBytes = l2_bytes;
    cfg.machine.dirCacheEnabled = false;
    cfg.vmThreads.assign(4, threads_per_vm);
    Rig rig = buildRig(cfg);
    System sys(cfg.machine, rig.vms, rig.placements);
    sys.run(warmup + measure);
    sys.checkInvariants();

    const json::Value diag = sys.diagJson("table census");
    const json::Value &tables = *diag.find("tables");
    ASSERT_EQ(tables.size(), 6u);
    std::uint64_t writeback_peak = 0;
    for (std::size_t i = 0; i < tables.size(); ++i) {
        const json::Value &t = tables.at(i);
        const std::string name = t.find("table")->str();
        const std::uint64_t peak = t.find("peak")->asUint();
        const std::uint64_t bound = t.find("bound")->asUint();
        EXPECT_LE(4 * peak, 3 * bound)
            << mesh << "x" << mesh << " " << name << ": peak " << peak
            << " of " << bound;
        EXPECT_LE(t.find("live")->asUint(), peak) << name;
        if (name == "write-backs")
            writeback_peak = peak;
    }
    // The small L2s evict constantly.
    EXPECT_GT(writeback_peak, 0u);
}

} // namespace

TEST(TableCensus, FourByFourStressPeaksStayInsideBounds)
{
    expectTablePeaksInsideBounds(4, 64 * 1024, 4, 20'000, 40'000);
}

TEST(TableCensus, EightByEightStressPeaksStayInsideBounds)
{
    expectTablePeaksInsideBounds(8, 256 * 1024, 16, 10'000, 20'000);
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

    /** @p audit must throw SimError naming the stripped block. */
    void
    expectNamesBlock(const char *name, const std::function<void()> &audit)
    {
        try {
            audit();
            ADD_FAILURE() << name << " passed with block " << block_
                          << " cached but absent from the directory";
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find(block_ + " cached in"),
                      std::string::npos)
                << name << ": " << e.what();
        }
    }

    Rig rig_;
    std::unique_ptr<System> sys_;
    std::string block_; ///< the stripped block, as the audits print it
};

// The quiesced-only global check throws SimError like the window
// audit; its test keeps the suite name it has always had.
using DirectoryAuditDeathTest = DirectoryAudit;

} // namespace

TEST_F(DirectoryAudit, WindowAuditNamesCachedBlockWithoutEntry)
{
    expectNamesBlock("auditWindow", [this] { sys_->auditWindow(); });
}

TEST_F(DirectoryAuditDeathTest, GlobalCheckNamesCachedBlockWithoutEntry)
{
    // Both entry points run the one directory audit.
    expectNamesBlock("checkGlobalCoherence",
                     [this] { sys_->checkGlobalCoherence(); });
}

// ---------------------------------------------------------------- //
// Crash-isolated sweeps: each point runs once, under its own seed.  //
// ---------------------------------------------------------------- //

namespace
{

/** Expect @p run to be exactly what one direct run of @p cfg throws:
 *  the same error under the configured seed, with no second try. */
void
expectFailsOnce(const SweepRun &run, const RunConfig &cfg)
{
    EXPECT_FALSE(run.ok);
    try {
        runExperiment(cfg);
        ADD_FAILURE() << "expected the point to trip";
    } catch (const SimError &e) {
        EXPECT_EQ(run.errorKind, toString(e.kind()));
        EXPECT_EQ(run.errorMessage, e.what());
        EXPECT_EQ(run.diag, e.diag());
        EXPECT_EQ(run.ckpt, e.ckpt());
    }
}

} // namespace

TEST(SweepHardening, PoisonedPointIsIsolatedAndFailsOnce)
{
    const std::vector<RunConfig> configs = {quickConfig(1), quickConfig(2),
                                            poisonedConfig(3),
                                            quickConfig(4)};
    const std::vector<SweepRun> runs = runSweep(configs, 2);
    ASSERT_EQ(runs.size(), 4u);
    for (const std::size_t i : {0u, 1u, 3u}) {
        EXPECT_TRUE(runs[i].ok) << "point " << i;
        EXPECT_GT(runs[i].result.vms.size(), 0u) << "point " << i;
    }
    EXPECT_EQ(runs[2].errorKind, "watchdog");
    EXPECT_FALSE(runs[2].errorMessage.empty());
    EXPECT_FALSE(runs[2].diag.empty());
    expectFailsOnce(runs[2], configs[2]);
}

TEST(SweepHardening, ConfigDeadlineFailsItsPoint)
{
    // RunConfig::cycleDeadline is the per-point budget; it fails its
    // own point and no other.
    RunConfig late = quickConfig(1);
    late.cycleDeadline = 5'000;
    const auto runs = runSweep({late, quickConfig(2)}, 1);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_FALSE(runs[0].ok);
    EXPECT_EQ(runs[0].errorKind, "deadline");
    EXPECT_TRUE(runs[1].ok);
}

TEST(SweepHardening, PoisonedSweepJsonIsByteIdenticalSerialVsParallel)
{
    std::vector<RunConfig> configs = {quickConfig(5), poisonedConfig(6),
                                      quickConfig(7), quickConfig(8)};
    const auto parallel = runSweep(configs, 3);
    const auto serial = runSweep(configs, 1);
    ASSERT_EQ(parallel.size(), configs.size());
    ASSERT_EQ(serial.size(), configs.size());

    // Outcome by outcome, field by field; a good point by the bytes
    // of its consim.run.v1 envelope.
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const SweepRun &p = parallel[i];
        const SweepRun &s = serial[i];
        EXPECT_EQ(p.ok, s.ok) << "point " << i;
        EXPECT_EQ(p.errorKind, s.errorKind) << "point " << i;
        EXPECT_EQ(p.errorMessage, s.errorMessage) << "point " << i;
        EXPECT_EQ(p.diag, s.diag) << "point " << i;
        EXPECT_EQ(p.ckpt, s.ckpt) << "point " << i;
        EXPECT_EQ(runResultJson(configs[i], p.result).dump(2),
                  runResultJson(configs[i], s.result).dump(2))
            << "point " << i;
    }

    // The poisoned point carries its kind and the consim.diag.v1
    // dump; the good points succeed.
    EXPECT_FALSE(parallel[1].ok);
    EXPECT_EQ(parallel[1].errorKind, "watchdog");
    json::Value diag;
    std::string err;
    ASSERT_TRUE(json::parse(parallel[1].diag, diag, &err)) << err;
    EXPECT_EQ(diag.find("schema")->str(), "consim.diag.v1");
    for (const std::size_t i : {0u, 2u, 3u})
        EXPECT_TRUE(parallel[i].ok) << "point " << i;
}

TEST(SweepHardening, SixteenPointSweepWithTwoFaultsSalvagesFourteen)
{
    std::vector<RunConfig> configs;
    for (std::uint64_t s = 1; s <= 16; ++s)
        configs.push_back(s == 4 || s == 11 ? poisonedConfig(s)
                                            : quickConfig(s));
    const std::vector<SweepRun> runs = runSweep(configs);
    ASSERT_EQ(runs.size(), 16u);
    int good = 0, bad = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].ok) {
            ++good;
        } else {
            ++bad;
            EXPECT_TRUE(i == 3 || i == 10) << "unexpected failure at "
                                           << i;
            EXPECT_EQ(runs[i].errorKind, "watchdog");
        }
    }
    EXPECT_EQ(good, 14);
    EXPECT_EQ(bad, 2);
}

// ---------------------------------------------------------------- //
// Retrying a failed point is its caller's call: resume its snapshot. //
// ---------------------------------------------------------------- //

TEST(SweepRetry, ResumesFromPreTripSnapshotUnderConfiguredSeed)
{
    // The sweep runs a tripped point once and hands back its pre-trip
    // snapshot; resuming that snapshot finishes the configured run.
    RunConfig cfg = quickConfig(7);
    cfg.watchdogIntervalCycles = 5'000;
    const RunResult full = runExperiment(cfg);

    RunConfig trip = cfg;
    trip.cycleDeadline = 18'000;
    trip.ckptEveryCycles = 6'000;
    const std::vector<SweepRun> runs = runSweep({trip}, 1);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_FALSE(runs[0].ok);
    EXPECT_EQ(runs[0].errorKind, "deadline");
    ASSERT_FALSE(runs[0].ckpt.empty());
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(runs[0].ckpt, doc, &err)) << err;
    // The snapshot carries the configured seed...
    EXPECT_EQ(configFromCheckpoint(doc).seed, trip.seed);
    // ...and resuming it reproduces the uninterrupted run bit for bit.
    EXPECT_EQ(runResultJson(cfg, resumeExperiment(doc)).dump(2),
              runResultJson(cfg, full).dump(2));
}

TEST(SweepRetry, WithoutSnapshotsFailsOnceUnderItsOwnSeed)
{
    // No periodic snapshots: the wedged point fails exactly as one
    // direct run of its own config does, and carries no snapshot.
    const RunConfig cfg = poisonedConfig(7);
    const std::vector<SweepRun> runs = runSweep({cfg}, 1);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].errorKind, "watchdog");
    EXPECT_TRUE(runs[0].ckpt.empty());
    expectFailsOnce(runs[0], cfg);
}
