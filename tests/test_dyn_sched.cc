/**
 * @file
 * Dynamic hypervisor scheduling tests: strict `--dyn-sched` spec
 * parsing, the four MigrationPolicy decision functions on synthetic
 * epoch samples (including their no-churn guards and tie-breaks, and
 * the random policy's legal, seeded pairs), forced-migration and
 * random-migration bursty runs under CONSIM_CHECK=full, envelope
 * stability of the conditional dyn-sched fields, and
 * `consim.ckpt.v5` round-tripping of the migration-policy runtime
 * state.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hh"
#include "common/json.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/scheduler.hh"
#include "workload/profile.hh"

using namespace consim;

namespace
{

/** Pin the check level for one scope, restoring the old level. */
class ScopedCheckLevel
{
  public:
    explicit ScopedCheckLevel(check::Level l) : old_(check::level())
    {
        check::setLevel(l);
    }
    ~ScopedCheckLevel() { check::setLevel(old_); }

  private:
    check::Level old_;
};

/**
 * The dynamic-scheduling scenario the fig17 bench uses, shrunk for
 * test speed: three 4-thread Bursty VMs affinity-packed onto a
 * sharing-2 chip with a 2 MB L2 (256 KB partitions), four cores left
 * idle. VM 0 holds the burst slot from the first reference, so its
 * packed partitions overflow and show a contention signal a
 * migration policy can act on within a short window.
 */
RunConfig
burstyConfig(const std::string &dyn_spec)
{
    RunConfig cfg;
    cfg.machine.sharing = sharingDegree(2);
    cfg.machine.l2TotalBytes = 2ull << 20; // 256 KB partitions
    cfg.workloads = {WorkloadKind::Bursty, WorkloadKind::Bursty,
                     WorkloadKind::Bursty};
    cfg.vmThreads = {4, 4, 4};
    cfg.seed = 7;
    cfg.warmupCycles = 20'000;
    cfg.measureCycles = 60'000;
    if (!dyn_spec.empty()) {
        DynSchedConfig d;
        std::string err;
        EXPECT_TRUE(DynSchedConfig::parse(dyn_spec, d, &err)) << err;
        cfg.dynSched = d;
    }
    return cfg;
}

/** A 16-core sharing-4 machine (4 groups of 4 cores). */
MachineConfig
quadMachine()
{
    MachineConfig cfg;
    cfg.sharing = sharingDegree(4);
    return cfg;
}

/** An all-idle, all-eligible sample sized for @p cfg. */
DynSample
emptySample(const MachineConfig &cfg, std::size_t num_vms)
{
    DynSample s;
    s.cores.resize(static_cast<std::size_t>(cfg.numCores()));
    for (auto &c : s.cores) {
        c.eligible = true;
        c.idle = true;
    }
    s.vms.resize(num_vms);
    s.groups.resize(static_cast<std::size_t>(cfg.numGroups()));
    return s;
}

/** Bind @p core to @p vm with @p retired instructions this epoch. */
void
bind(DynSample &s, CoreId core, VmId vm, std::uint64_t retired)
{
    s.cores[core].vm = vm;
    s.cores[core].idle = false;
    s.cores[core].retired = retired;
}

} // namespace

// ---------------------------------------------------------------- //
// Spec parsing: strict grammar, catalog-style errors.               //
// ---------------------------------------------------------------- //

TEST(DynSchedParse, DefaultsAndRoundTrip)
{
    DynSchedConfig d;
    EXPECT_FALSE(d.enabled());
    EXPECT_EQ(d.spec(), "off");

    std::string err;
    ASSERT_TRUE(DynSchedConfig::parse("load-balance", d, &err)) << err;
    EXPECT_TRUE(d.enabled());
    EXPECT_EQ(d.policy, DynSchedPolicy::LoadBalance);
    EXPECT_EQ(d.epochCycles, 100'000u); // default epoch

    // spec() is parseable back to an identical config.
    DynSchedConfig d2;
    ASSERT_TRUE(DynSchedConfig::parse("contention-aware,epoch=5000", d,
                                      &err))
        << err;
    ASSERT_TRUE(DynSchedConfig::parse(d.spec(), d2, &err)) << err;
    EXPECT_EQ(d.spec(), d2.spec());
    EXPECT_EQ(d.toJson().dump(), d2.toJson().dump());
    EXPECT_EQ(d2.policy, DynSchedPolicy::ContentionAware);
    EXPECT_EQ(d2.epochCycles, 5000u);

    ASSERT_TRUE(DynSchedConfig::parse("affinity-repair", d, &err))
        << err;
    EXPECT_EQ(d.policy, DynSchedPolicy::AffinityRepair);

    ASSERT_TRUE(DynSchedConfig::parse("random,epoch=25000", d, &err))
        << err;
    EXPECT_EQ(d.policy, DynSchedPolicy::Random);
    EXPECT_EQ(d.epochCycles, 25'000u);
    ASSERT_TRUE(DynSchedConfig::parse(d.spec(), d2, &err)) << err;
    EXPECT_EQ(d2.spec(), "random,epoch=25000");

    ASSERT_TRUE(DynSchedConfig::parse("off", d, &err)) << err;
    EXPECT_FALSE(d.enabled());

    // Whitespace is cosmetic, as in the QoS grammar.
    ASSERT_TRUE(DynSchedConfig::parse(" load-balance , epoch = 42 ", d,
                                      &err))
        << err;
    EXPECT_EQ(d.epochCycles, 42u);
}

TEST(DynSchedParse, RejectsMalformedSpecsWithGrammar)
{
    const struct
    {
        const char *spec;
        const char *expect;
    } bad[] = {
        {"", "empty dyn-sched spec"},
        {"banana", "unknown dyn-sched policy 'banana'"},
        {"off,epoch=5", "'off' takes no parameters"},
        {"load-balance,epoch=0", "epoch must be >= 1"},
        {"load-balance,epoch=x", "bad number 'x' for epoch"},
        {"load-balance,epoch=5q", "bad number '5q' for epoch"},
        {"load-balance,epoch=-1", "bad number '-1' for epoch"},
        {"contention-aware,foo=1",
         "unknown dyn-sched parameter 'foo'"},
        {"contention-aware,epoch", "expected key=value, got 'epoch'"},
        {"random,seed=3", "unknown dyn-sched parameter 'seed'"},
        {"load-balance;epoch=5",
         "unknown dyn-sched policy 'load-balance;epoch=5'"},
    };
    for (const auto &b : bad) {
        SCOPED_TRACE(b.spec);
        DynSchedConfig d;
        std::string err;
        EXPECT_FALSE(DynSchedConfig::parse(b.spec, d, &err));
        EXPECT_NE(err.find(b.expect), std::string::npos) << err;
        // Every rejection teaches the full grammar.
        EXPECT_NE(err.find("valid:"), std::string::npos) << err;
        EXPECT_NE(err.find("affinity-repair[,epoch=E]"),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("random[,epoch=E]"), std::string::npos)
            << err;
    }
}

// ---------------------------------------------------------------- //
// Policy decision functions on synthetic epoch samples.             //
// ---------------------------------------------------------------- //

TEST(DynSchedPolicies, LoadBalanceMovesBusiestTowardLightest)
{
    // Note groups on the 4x4 mesh are 2x2 quadrants, not consecutive
    // core-id ranges, so every binding goes through coresOfGroup().
    const MachineConfig cfg = quadMachine();
    const auto policy =
        makeMigrationPolicy(DynSchedPolicy::LoadBalance, 1);
    DynSample s = emptySample(cfg, 4);
    // Group 0 heavy (3400), group 1 light (400), groups 2/3 middling.
    const std::uint64_t heavy[] = {1000, 900, 800, 700};
    for (int i = 0; i < 4; ++i)
        bind(s, cfg.coresOfGroup(0)[i], 0, heavy[i]);
    for (const CoreId c : cfg.coresOfGroup(1))
        bind(s, c, 1, 100);
    for (const GroupId g : {2, 3})
        for (const CoreId c : cfg.coresOfGroup(g))
            bind(s, c, g, 500);

    const ThreadSwap swap = policy->decide(cfg, s);
    ASSERT_TRUE(swap.decided());
    // Busiest thread of the heaviest group swaps with the lightest
    // partner in the lightest group; ties break toward lowest id.
    EXPECT_EQ(swap.a, cfg.coresOfGroup(0)[0]);
    EXPECT_EQ(swap.b, cfg.coresOfGroup(1)[0]);

    // Balanced loads: no churn.
    DynSample flat = emptySample(cfg, 4);
    for (CoreId c = 0; c < 16; ++c)
        bind(flat, c, cfg.groupOfCore(c), 500);
    EXPECT_FALSE(policy->decide(cfg, flat).decided());

    // Spread under 1/8 of the heavy load: still no churn.
    DynSample close = flat;
    close.cores[cfg.coresOfGroup(0)[0]].retired = 540;
    EXPECT_FALSE(policy->decide(cfg, close).decided());
}

TEST(DynSchedPolicies, ContentionAwareEvictsFromHotPartition)
{
    const MachineConfig cfg = quadMachine();
    const auto policy =
        makeMigrationPolicy(DynSchedPolicy::ContentionAware, 1);
    DynSample s = emptySample(cfg, 2);
    // Group 0: vm 0, thrashing (50% miss rate). Group 1: vm 1, quiet.
    // Groups 2/3: idle (group 2 is the first zero-rate target).
    for (const CoreId c : cfg.coresOfGroup(0))
        bind(s, c, 0, 500);
    for (const CoreId c : cfg.coresOfGroup(1))
        bind(s, c, 1, 500);
    s.vms[0] = {1000, 500, 0};
    s.vms[1] = {1000, 100, 0};
    s.groups[0] = {500, 500};
    s.groups[1] = {900, 100};

    const ThreadSwap swap = policy->decide(cfg, s);
    ASSERT_TRUE(swap.decided());
    // Worst-miss-rate VM's thread, lowest id in the hot group, moves
    // to the lowest-id idle core of the coolest group.
    EXPECT_EQ(swap.a, cfg.coresOfGroup(0)[0]);
    EXPECT_EQ(swap.b, cfg.coresOfGroup(2)[0]);

    // Source gate: a tiny partition with a terrible rate is not a
    // meaningful eviction source; with every gated-in group equal
    // there is no margin and the policy must sit still.
    DynSample gated = emptySample(cfg, 2);
    for (const CoreId c : cfg.coresOfGroup(0))
        bind(gated, c, 0, 500);
    for (const CoreId c : cfg.coresOfGroup(1))
        bind(gated, c, 1, 500);
    bind(gated, cfg.coresOfGroup(3)[0], 1, 10);
    gated.vms[0] = {1000, 10, 0};
    gated.vms[1] = {1000, 10, 0};
    gated.groups[0] = {990, 10};
    gated.groups[1] = {990, 10};
    // 90% missing, but 100 accesses is under a quarter of the mean
    // per-group traffic (2100/4 groups) — gated out as a source.
    gated.groups[3] = {10, 90};
    EXPECT_FALSE(policy->decide(cfg, gated).decided());
}

TEST(DynSchedPolicies, AffinityRepairRePacksSplitVm)
{
    const MachineConfig cfg = quadMachine();
    const auto policy =
        makeMigrationPolicy(DynSchedPolicy::AffinityRepair, 1);
    DynSample s = emptySample(cfg, 2);
    // VM 0: three threads at home in group 0, one stray in group 1,
    // paying a 40% c2c fraction. Group 0's last slot stays idle.
    for (int i = 0; i < 3; ++i)
        bind(s, cfg.coresOfGroup(0)[i], 0, 500);
    bind(s, cfg.coresOfGroup(1)[0], 0, 500); // the stray
    s.vms[0] = {2000, 1000, 400};

    const ThreadSwap swap = policy->decide(cfg, s);
    ASSERT_TRUE(swap.decided());
    EXPECT_EQ(swap.a, cfg.coresOfGroup(1)[0]); // the stray
    EXPECT_EQ(swap.b, cfg.coresOfGroup(0)[3]); // idle home slot

    // Already packed: nothing to repair.
    DynSample packed = emptySample(cfg, 1);
    for (const CoreId c : cfg.coresOfGroup(0))
        bind(packed, c, 0, 500);
    packed.vms[0] = {2000, 1000, 400};
    EXPECT_FALSE(policy->decide(cfg, packed).decided());

    // Low c2c fraction: splitting is fine, leave it alone.
    DynSample cheap = s;
    cheap.vms[0] = {2000, 1000, 50}; // 5% c2c
    EXPECT_FALSE(policy->decide(cfg, cheap).decided());
}

TEST(DynSchedPolicies, RandomPicksLegalSeededPairs)
{
    const MachineConfig cfg = quadMachine();
    // Busy cores 0-5 (core 5 wedged or time-sliced: not eligible),
    // idle cores 6-15 (core 15 not eligible either).
    DynSample s = emptySample(cfg, 2);
    for (CoreId c = 0; c < 6; ++c)
        bind(s, c, c % 2, 100);
    s.cores[5].eligible = false;
    s.cores[15].eligible = false;
    const auto policy = makeMigrationPolicy(DynSchedPolicy::Random, 7);
    std::set<std::pair<CoreId, CoreId>> seen;
    for (std::uint64_t epoch = 0; epoch < 64; ++epoch) {
        SCOPED_TRACE(epoch);
        s.epoch = epoch;
        const ThreadSwap swap = policy->decide(cfg, s);
        ASSERT_TRUE(swap.decided());
        EXPECT_NE(swap.a, swap.b);
        EXPECT_TRUE(s.cores[swap.a].eligible && s.cores[swap.b].eligible);
        EXPECT_FALSE(s.cores[swap.a].idle && s.cores[swap.b].idle);
        // A pure function of (seed, epoch): the same draw again.
        const ThreadSwap again = policy->decide(cfg, s);
        EXPECT_EQ(again.a, swap.a);
        EXPECT_EQ(again.b, swap.b);
        seen.insert({std::min(swap.a, swap.b), std::max(swap.a, swap.b)});
    }
    // 5 busy x 13 others, less the 10 busy-busy pairs counted twice:
    // 55 legal pairs. 64 draws must spread over many of them.
    EXPECT_GE(seen.size(), 30u);
    // Another seed draws another sequence.
    const auto other = makeMigrationPolicy(DynSchedPolicy::Random, 8);
    int same = 0;
    for (std::uint64_t epoch = 0; epoch < 64; ++epoch) {
        s.epoch = epoch;
        const ThreadSwap a = policy->decide(cfg, s);
        const ThreadSwap b = other->decide(cfg, s);
        same += a.a == b.a && a.b == b.b;
    }
    EXPECT_LT(same, 16);
    // No busy eligible core: nothing to move.
    DynSample quiet = emptySample(cfg, 2);
    EXPECT_FALSE(policy->decide(cfg, quiet).decided());
}

// ---------------------------------------------------------------- //
// Forced migrations under CONSIM_CHECK=full.                        //
// ---------------------------------------------------------------- //

TEST(DynSchedRun, FullCheckBurstyRunMigrates)
{
    // The bursting VM thrashes its 2 MB partitions while four cores
    // sit idle; contention-aware must move at least one thread, and
    // the full-check audits (window boundary coherence, post-run
    // audit) must hold across the rebind.
    ScopedCheckLevel lvl(check::Level::Full);
    const RunConfig cfg = burstyConfig("contention-aware,epoch=5000");
    const RunResult r = runExperiment(cfg);
    ASSERT_EQ(r.vms.size(), 3u);
    EXPECT_GT(r.dynMigrations, 0u);
    for (std::size_t v = 0; v < r.vms.size(); ++v) {
        SCOPED_TRACE(v);
        EXPECT_GT(r.vms[v].instructions, 0u);
    }
}

TEST(DynSchedRun, RandomMigratesAtEveryEpochBoundary)
{
    // Random swaps are never judged, so none is reverted and no
    // backoff idles an epoch: every boundary from 5000 to the run's
    // last cycle (80000) migrates, and the binding audit holds.
    ScopedCheckLevel lvl(check::Level::Full);
    const RunConfig cfg = burstyConfig("random,epoch=5000");
    const RunResult r = runExperiment(cfg);
    EXPECT_EQ(r.dynMigrations,
              (cfg.warmupCycles + cfg.measureCycles) / 5'000);
    const json::Value doc = runResultJson(cfg, r);
    EXPECT_EQ(doc.find("config")->find("migration_interval_cycles")
                  ->asUint(),
              5'000u);
}

// ---------------------------------------------------------------- //
// Envelope stability and conditional dyn-sched reporting.           //
// ---------------------------------------------------------------- //

TEST(DynSchedEnvelope, FieldsAppearOnlyWhenEnabled)
{
    const RunConfig off = burstyConfig("");
    const json::Value doc_off =
        runResultJson(off, runExperiment(off));
    EXPECT_EQ(doc_off.find("config")->find("dyn_sched"), nullptr);
    EXPECT_EQ(doc_off.find("result")->find("dyn_migrations"), nullptr);

    const RunConfig on = burstyConfig("contention-aware,epoch=5000");
    const json::Value doc_on = runResultJson(on, runExperiment(on));
    const json::Value *dyn = doc_on.find("config")->find("dyn_sched");
    ASSERT_NE(dyn, nullptr);
    EXPECT_EQ(dyn->find("policy")->str(), "contention-aware");
    EXPECT_EQ(dyn->find("epoch_cycles")->asUint(), 5000u);
    ASSERT_NE(doc_on.find("result")->find("dyn_migrations"), nullptr);
    EXPECT_GT(doc_on.find("result")->find("dyn_migrations")->asUint(),
              0u);
}

// ---------------------------------------------------------------- //
// consim.ckpt.v5: migration-policy runtime state round-trips.       //
// ---------------------------------------------------------------- //

TEST(DynSchedCheckpoint, V5RoundTripsEpochBaselinesAndCount)
{
    // Trip a migrating bursty run mid-measurement and resume the
    // attached snapshot: the restored run re-creates the policy's
    // epoch baselines and migration count, so the envelope must be
    // byte-identical to the uninterrupted run — including migrations
    // decided after the resume point.
    const RunConfig cfg = burstyConfig("contention-aware,epoch=5000");
    const std::string full =
        runResultJson(cfg, runExperiment(cfg)).dump(2);

    RunConfig trip = cfg;
    trip.cycleDeadline = 60'000; // mid-measure (warmup 20k of 80k)
    trip.ckptEveryCycles = 15'000;
    try {
        runExperiment(trip);
        FAIL() << "deadline did not trip";
    } catch (const SimError &e) {
        ASSERT_EQ(e.kind(), SimErrorKind::Deadline);
        ASSERT_FALSE(e.ckpt().empty());
        json::Value doc;
        std::string err;
        ASSERT_TRUE(json::parse(e.ckpt(), doc, &err)) << err;
        EXPECT_EQ(doc.find("schema")->str(), "consim.ckpt.v5");
        // The snapshot carries the dyn-sched machine section with
        // the per-core/VM/group epoch baselines.
        ASSERT_NE(doc.find("machine"), nullptr);
        const json::Value *dyn =
            doc.find("machine")->find("dyn_sched");
        ASSERT_NE(dyn, nullptr);
        EXPECT_NE(dyn->find("last_retired"), nullptr);
        // The embedded config echoes the dyn-sched spec.
        const RunConfig echoed = configFromCheckpoint(doc);
        EXPECT_EQ(echoed.dynSched.spec(), cfg.dynSched.spec());
        const RunResult resumed = resumeExperiment(doc);
        EXPECT_EQ(runResultJson(cfg, resumed).dump(2), full);
    }
}

TEST(DynSchedCheckpointDeathTest, V4RefusedWithDynSchedExplanation)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // v4 snapshots predate the migration-policy runtime state (epoch
    // baselines, migration count); the refusal must say so.
    json::Value v4 = json::Value::object();
    v4.set("schema", "consim.ckpt.v4");
    EXPECT_DEATH(resumeExperiment(v4),
                 "lack the migration-policy runtime state");
}
