/**
 * @file
 * Checkpoint/resume (`consim.ckpt.v5`) tests: resume byte-identity
 * across every sharing degree and scheduling policy (including the
 * migration-boundary corner), FNV-1a pins of the snapshot text,
 * strict decoding of event, directory and footprint records,
 * watchdog-trip checkpoints under fault injection, the sweep
 * engine's resume-before-reseed retry ladder and its seed-honesty
 * reporting, the strict env parsing of RunConfig::fromEnv, and a
 * run that reads no env at all.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "coherence/fabric.hh"
#include "common/check.hh"
#include "common/json.hh"
#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "core/fault.hh"
#include "core/mix.hh"
#include "core/report.hh"
#include "exec/sweep.hh"

using namespace consim;

namespace
{

/** A small two-VM point: fast, yet exercises sharing and the NoC. */
RunConfig
smallConfig(SharingDegree sharing, SchedPolicy policy)
{
    RunConfig cfg =
        mixConfig(Mix::byName("Mix 1"), policy, sharing);
    cfg.seed = 7;
    cfg.warmupCycles = 10'000;
    cfg.measureCycles = 20'000;
    cfg.watchdogIntervalCycles = 5'000;
    return cfg;
}

/**
 * Trip @p cfg with a mid-run cycle deadline while snapshotting every
 * @p every cycles, resume the attached pre-trip checkpoint, and
 * require the resumed run's `consim.run.v1` envelope to be
 * byte-identical to the uninterrupted run's.
 */
void
expectResumeByteIdentity(const RunConfig &cfg, Cycle deadline,
                         Cycle every)
{
    const RunResult full = runExperiment(cfg);
    const std::string full_doc = runResultJson(cfg, full).dump(2);

    RunConfig trip = cfg;
    trip.cycleDeadline = deadline;
    trip.ckptEveryCycles = every;
    try {
        runExperiment(trip);
        FAIL() << "deadline did not trip";
    } catch (const SimError &e) {
        ASSERT_EQ(e.kind(), SimErrorKind::Deadline);
        ASSERT_FALSE(e.ckpt().empty())
            << "no pre-trip checkpoint attached";
        json::Value doc;
        std::string err;
        ASSERT_TRUE(json::parse(e.ckpt(), doc, &err)) << err;

        // The embedded config echo round-trips to the original.
        const RunConfig echoed = configFromCheckpoint(doc);
        EXPECT_EQ(toJson(echoed).dump(), toJson(trip).dump());

        const RunResult resumed = resumeExperiment(doc);
        // Same (deadline-free) config echo on both sides: equality
        // holds iff every result bit matches.
        EXPECT_EQ(runResultJson(cfg, resumed).dump(2), full_doc);
    }
}

} // namespace

// ---------------------------------------------------------------- //
// Resume byte-identity across the paper's configuration axes.       //
// ---------------------------------------------------------------- //

TEST(CheckpointResume, ByteIdenticalAcrossSharingDegrees)
{
    for (const SharingDegree d :
         {SharingDegree::Private, SharingDegree::Shared2,
          SharingDegree::Shared4, SharingDegree::Shared8,
          SharingDegree::Shared16}) {
        SCOPED_TRACE(toString(d));
        // Latest snapshot lands mid-measure (cycle 18000).
        expectResumeByteIdentity(
            smallConfig(d, SchedPolicy::Affinity), 20'000, 6'000);
    }
}

TEST(CheckpointResume, ByteIdenticalAcrossSchedulingPolicies)
{
    for (const SchedPolicy p :
         {SchedPolicy::RoundRobin, SchedPolicy::Affinity,
          SchedPolicy::AffinityRR, SchedPolicy::Random}) {
        SCOPED_TRACE(toString(p));
        expectResumeByteIdentity(
            smallConfig(SharingDegree::Shared4, p), 20'000, 6'000);
    }
}

TEST(CheckpointResume, ByteIdenticalWhenSnapshotLandsInWarmup)
{
    // Deadline 8000 < warmup 10000: the latest snapshot (6000) sits
    // in the warmup phase, so the resume finishes warmup, resets
    // stats, and runs the whole measurement window.
    expectResumeByteIdentity(
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity),
        8'000, 3'000);
}

TEST(CheckpointResume, ByteIdenticalUnderMigration)
{
    RunConfig cfg =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    cfg.migrationIntervalCycles = 6'000;
    // Snapshot at absolute 22000 = 12000 cycles into the measurement
    // phase — exactly an interior migration boundary. The snapshot is
    // taken before the swap, so the resume must redo it with the
    // pre-swap RNG state carried in the context.
    expectResumeByteIdentity(cfg, 23'000, 11'000);
}

TEST(CheckpointResume, ByteIdenticalAt64Cores)
{
    // The scale model's word-array snapshots (CoreSets instead of the
    // old fixed 16-bit masks) must uphold the same byte-identity
    // contract beyond the paper's chip: 64 cores, 8-way sharing.
    RunConfig cfg = smallConfig(SharingDegree::Shared8,
                                SchedPolicy::Affinity);
    cfg.machine.meshX = 8;
    cfg.machine.meshY = 8;
    expectResumeByteIdentity(cfg, 20'000, 6'000);
}

TEST(CheckpointResume, HeterogeneousVmThreadsSurviveTheContext)
{
    // vm_threads rides in the checkpoint context: the resumed rig
    // must rebuild the same 2/4/8-thread VMs, and configFromCheckpoint
    // must echo the override (checked inside the helper via the
    // config-echo dump comparison).
    RunConfig cfg = smallConfig(SharingDegree::Shared4,
                                SchedPolicy::Affinity);
    cfg.machine.meshX = 8;
    cfg.machine.meshY = 4;
    cfg.workloads = {WorkloadKind::SpecJbb, WorkloadKind::TpcW,
                     WorkloadKind::TpcH};
    cfg.vmThreads = {2, 4, 8};
    expectResumeByteIdentity(cfg, 20'000, 6'000);
}

// ---------------------------------------------------------------- //
// consim.ckpt.v5 bytes pinned across builds.                        //
// ---------------------------------------------------------------- //

namespace
{

/** FNV-1a 64-bit over a snapshot's exact text. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Mix 1, seed 7, with a core-3 wedge due at cycle 19000. */
RunConfig
wedgedConfig(bool ideal_noc)
{
    RunConfig cfg =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    cfg.machine.idealNoc = ideal_noc;
    EXPECT_TRUE(FaultPlan::parse("wedge:core=3,at=19000", cfg.faults));
    return cfg;
}

/**
 * The snapshot a deadline trip of @p cfg at 12000 attaches: the one
 * taken at cycle 11001, with the wedge still pending. That cycle
 * catches messages in flight on both interconnects (the machine is
 * mostly waiting on DRAM this early, so many cycles hold none).
 */
std::string
tripSnapshot(RunConfig cfg)
{
    cfg.cycleDeadline = 12'000;
    cfg.ckptEveryCycles = 11'001;
    try {
        runExperiment(cfg);
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Deadline);
        return e.ckpt();
    }
    ADD_FAILURE() << "deadline did not trip";
    return {};
}

} // namespace

TEST(CheckpointPin, DeadlineTripSnapshotsByteIdentical)
{
    // Hashes of the snapshot text. Event kinds are stored as
    // integers, so any renumbering (or any other change to the
    // document) shows here.
    struct SnapshotPin
    {
        const char *name;
        bool idealNoc;
        std::uint64_t hash;
    };
    const SnapshotPin pins[] = {
        {"mesh", false, 0x258d875a5210ee24ull},
        {"ideal NoC", true, 0x835cab467e996b7dull},
    };
    std::set<SimEventKind> kinds;
    for (const SnapshotPin &pin : pins) {
        const std::string text = tripSnapshot(wedgedConfig(pin.idealNoc));
        const std::uint64_t h = fnv1a(text);
        EXPECT_EQ(h, pin.hash) << pin.name
                               << ": consim.ckpt.v5 text changed (now 0x"
                               << std::hex << h << ")";
        json::Value doc;
        ASSERT_TRUE(json::parse(text, doc));
        for (const json::Value &rec : doc.find("machine")
                                          ->find("events")
                                          ->find("pending")
                                          ->items())
            kinds.insert(static_cast<SimEventKind>(rec.at(3).asUint()));
    }
    // Together the pins hold every kind but the rare fill retry.
    for (const SimEventKind k :
         {SimEventKind::Deliver, SimEventKind::BankDispatch,
          SimEventKind::DirProcess, SimEventKind::MemDone,
          SimEventKind::WedgeCore, SimEventKind::NetDeliver})
        EXPECT_EQ(kinds.count(k), 1u)
            << "no pending event of kind " << static_cast<int>(k);
}

namespace
{

/** @return array @p arr with element @p i replaced by @p v. */
json::Value
replaced(const json::Value &arr, std::size_t i, json::Value v)
{
    json::Value out = json::Value::array();
    for (std::size_t j = 0; j < arr.size(); ++j)
        out.push(j == i ? v : arr.at(j));
    return out;
}

/** @p doc with its first pending event of @p kind replaced by
 *  edit(record). */
json::Value
withEditedEvent(const json::Value &doc, SimEventKind kind,
                const std::function<json::Value(const json::Value &)> &edit)
{
    json::Value out = doc;
    json::Value *events = out.find("machine")->find("events");
    const json::Value &pending = *events->find("pending");
    for (std::size_t i = 0; i < pending.size(); ++i) {
        if (pending.at(i).at(3).asUint() == static_cast<unsigned>(kind)) {
            events->set("pending",
                        replaced(pending, i, edit(pending.at(i))));
            return out;
        }
    }
    ADD_FAILURE() << "no pending event of kind " << static_cast<int>(kind);
    return out;
}

} // namespace

TEST(CheckpointRestoreDeathTest, BadEventRecordsRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A real snapshot with pending Deliver, BankDispatch, DirProcess,
    // MemDone and WedgeCore events; each case corrupts one record.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const auto resumeEdited =
        [&](SimEventKind kind,
            const std::function<json::Value(const json::Value &)> &edit) {
            resumeExperiment(withEditedEvent(doc, kind, edit));
        };
    const char *refusal = "checkpoint: bad event record";
    // Kinds outside Deliver..NetDeliver.
    for (const int bad : {0, 9})
        EXPECT_DEATH(resumeEdited(SimEventKind::DirProcess,
                                  [&](const json::Value &rec) {
                                      return replaced(rec, 3, bad);
                                  }),
                     refusal);
    // A message missing where the kind carries one...
    EXPECT_DEATH(resumeEdited(SimEventKind::Deliver,
                              [](const json::Value &rec) {
                                  json::Value cut = json::Value::array();
                                  for (std::size_t j = 0; j < 6; ++j)
                                      cut.push(rec.at(j));
                                  return cut;
                              }),
                 refusal);
    // ...or present where it does not.
    EXPECT_DEATH(resumeEdited(SimEventKind::BankDispatch,
                              [](json::Value rec) {
                                  rec.push(msgToJson(Msg{}));
                                  return rec;
                              }),
                 refusal);
    // A tile outside the 16-core chip, in the record or in the
    // message the executor routes by.
    EXPECT_DEATH(resumeEdited(SimEventKind::DirProcess,
                              [](const json::Value &rec) {
                                  return replaced(rec, 4, 999);
                              }),
                 refusal);
    EXPECT_DEATH(resumeEdited(SimEventKind::Deliver,
                              [](const json::Value &rec) {
                                  return replaced(
                                      rec, 6, replaced(rec.at(6), 3, 999));
                              }),
                 refusal);
    // A source outside seq_by_src.
    EXPECT_DEATH(resumeEdited(SimEventKind::WedgeCore,
                              [](const json::Value &rec) {
                                  return replaced(rec, 1, 18);
                              }),
                 refusal);
}

namespace
{

/** @p doc with its machine.dir_entries replaced by edit(entries). */
json::Value
withEditedDirEntries(
    const json::Value &doc,
    const std::function<json::Value(const json::Value &)> &edit)
{
    json::Value out = doc;
    json::Value *machine = out.find("machine");
    machine->set("dir_entries", edit(*machine->find("dir_entries")));
    return out;
}

/** @p doc with VM 0's footprint replaced by edit(footprint). */
json::Value
withEditedFootprint(
    const json::Value &doc,
    const std::function<json::Value(const json::Value &)> &edit)
{
    json::Value out = doc;
    const json::Value &vms = *out.find("vms");
    json::Value vm = vms.at(0);
    vm.set("footprint", edit(*vm.find("footprint")));
    out.set("vms", replaced(vms, 0, vm));
    return out;
}

/** @return the index of the first Modified dir_entries record. */
std::size_t
firstModified(const json::Value &entries)
{
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries.at(i).at(1).asUint() ==
            static_cast<unsigned>(L2State::Modified))
            return i;
    }
    ADD_FAILURE() << "no Modified directory entry";
    return 0;
}

} // namespace

TEST(CheckpointRestoreDeathTest, BadDirEntriesRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A real Mix 1 snapshot on a 4-group chip; each case corrupts one
    // directory record or VM 0's footprint.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const json::Value &entries =
        *doc.find("machine")->find("dir_entries");
    ASSERT_GE(entries.size(), 2u);
    const std::size_t m = firstModified(entries);
    const auto resumeEdited =
        [&](const std::function<json::Value(const json::Value &)> &edit) {
            resumeExperiment(withEditedDirEntries(doc, edit));
        };
    const auto editRecord =
        [&](std::size_t i, std::size_t field, json::Value v) {
            resumeEdited([=](const json::Value &es) {
                return replaced(es, i, replaced(es.at(i), field, v));
            });
        };
    const char *refusal = "checkpoint: bad directory entry";
    // A state outside I/S/E/M.
    EXPECT_DEATH(editRecord(m, 1, 9), refusal);
    // An owner outside the chip.
    EXPECT_DEATH(editRecord(m, 3, 99), refusal);
    // A sharer outside the chip.
    json::Value wide = json::Value::array();
    wide.push(static_cast<std::uint64_t>(
        entries.at(m).at(2).at(0).asUint() | (std::uint64_t(1) << 40)));
    EXPECT_DEATH(editRecord(m, 2, wide), refusal);
    // A Shared entry with no sharers.
    EXPECT_DEATH(resumeEdited([&](const json::Value &es) {
                     json::Value rec = json::Value::array();
                     rec.push(es.at(m).at(0));
                     rec.push(static_cast<int>(L2State::Shared));
                     rec.push(json::Value::array());
                     rec.push(-1);
                     return replaced(es, m, rec);
                 }),
                 refusal);
    // An all-default record: the store holds non-default entries only.
    EXPECT_DEATH(resumeEdited([](const json::Value &es) {
                     json::Value rec = json::Value::array();
                     rec.push(es.at(0).at(0));
                     rec.push(0);
                     rec.push(json::Value::array());
                     rec.push(-1);
                     return replaced(es, 0, rec);
                 }),
                 refusal);
    // A duplicated record.
    EXPECT_DEATH(resumeEdited([](const json::Value &es) {
                     json::Value out = json::Value::array();
                     out.push(es.at(0));
                     for (const json::Value &rec : es.items())
                         out.push(rec);
                     return out;
                 }),
                 refusal);
    // A block in no VM's window (the snapshot has four VMs).
    EXPECT_DEATH(resumeEdited([](const json::Value &es) {
                     json::Value out = es;
                     out.push(replaced(es.at(es.size() - 1), 0,
                                       vmBaseBlock(7)));
                     return out;
                 }),
                 refusal);

    // VM 0's footprint: offsets ascend strictly inside the footprint,
    // and the count is theirs.
    const json::Value &touched =
        *doc.find("vms")->at(0).find("footprint")->find("touched");
    ASSERT_GE(touched.size(), 2u);
    const auto editFootprint = [&](const char *key, json::Value v) {
        resumeExperiment(
            withEditedFootprint(doc, [=](json::Value fp) {
                fp.set(key, v);
                return fp;
            }));
    };
    const json::Value swapped =
        replaced(replaced(touched, 0, touched.at(1)), 1, touched.at(0));
    EXPECT_DEATH(editFootprint("touched", swapped), "not ascending");
    EXPECT_DEATH(editFootprint("touched",
                               replaced(touched, 1, touched.at(0))),
                 "not ascending");
    EXPECT_DEATH(editFootprint("touched",
                               replaced(touched, touched.size() - 1,
                                        std::uint64_t(1) << 40)),
                 "outside");
    EXPECT_DEATH(editFootprint("count", std::uint64_t(123456789)),
                 "count 123456789");
}

TEST(CheckpointSchemaDeathTest, OldSnapshotsRefusedWithExplanation)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Pre-scale-model snapshots encode sharers as fixed 16-bit masks
    // and cannot be widened faithfully; the refusal must say so
    // rather than die decoding the machine section.
    json::Value v2 = json::Value::object();
    v2.set("schema", "consim.ckpt.v2");
    EXPECT_DEATH(resumeExperiment(v2), "fixed 16-bit masks");
    json::Value v1 = json::Value::object();
    v1.set("schema", "consim.ckpt.v1");
    EXPECT_DEATH(resumeExperiment(v1), "re-run the original");
    EXPECT_DEATH(resumeExperiment(json::Value::object()),
                 "not a consim.ckpt.v5 document");
}

// ---------------------------------------------------------------- //
// Watchdog trips under fault injection carry a resumable snapshot.  //
// ---------------------------------------------------------------- //

TEST(CheckpointResume, WatchdogTripCheckpointIsRestorable)
{
    RunConfig cfg =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    ASSERT_TRUE(
        FaultPlan::parse("wedge:core=0,at=15000", cfg.faults));
    cfg.watchdogIntervalCycles = 2'000;
    cfg.ckptEveryCycles = 5'000;
    try {
        runExperiment(cfg);
        FAIL() << "wedge did not trip the watchdog";
    } catch (const SimError &e) {
        ASSERT_EQ(e.kind(), SimErrorKind::Watchdog);
        ASSERT_FALSE(e.ckpt().empty());
        json::Value doc;
        ASSERT_TRUE(json::parse(e.ckpt(), doc));
        // The wedge is part of the machine state (fired flag or
        // pending event, not a re-armed plan), so a resume faithfully
        // reproduces the stall and trips the watchdog again instead
        // of silently dropping the fault.
        try {
            resumeExperiment(doc);
            FAIL() << "resumed run lost the wedge fault";
        } catch (const SimError &again) {
            EXPECT_EQ(again.kind(), SimErrorKind::Watchdog);
        }
    }
}

// ---------------------------------------------------------------- //
// Sweep retry ladder: resume first, reseed only after.              //
// ---------------------------------------------------------------- //

TEST(SweepRetry, ResumesFromPreTripSnapshotUnderConfiguredSeed)
{
    RunConfig cfg =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    const RunResult full = runExperiment(cfg);

    RunConfig trip = cfg;
    trip.cycleDeadline = 18'000;
    trip.ckptEveryCycles = 6'000;
    SweepOptions opts;
    opts.jobs = 1;
    opts.maxRetries = 1;
    const std::vector<SweepRun> runs = runSweepEx({trip}, opts);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_TRUE(runs[0].ok);
    EXPECT_EQ(runs[0].retries, 1);
    EXPECT_TRUE(runs[0].resumed);
    // Seed honesty: the resume kept the configured seed, so the
    // result answers the configured question...
    EXPECT_EQ(runs[0].effectiveSeed, trip.seed);
    // ...bit-for-bit: the salvaged point equals the uninterrupted
    // run of the same seed.
    EXPECT_EQ(runResultJson(cfg, runs[0].result).dump(2),
              runResultJson(cfg, full).dump(2));

    // And consim.sweep.v2 reports the recovery.
    const json::Value doc = sweepResultsJson({trip}, runs);
    const json::Value &p = doc.find("points")->at(0);
    EXPECT_TRUE(p.find("ok")->boolean());
    ASSERT_NE(p.find("effective_seed"), nullptr);
    EXPECT_EQ(p.find("effective_seed")->asUint(), trip.seed);
    ASSERT_NE(p.find("resumed"), nullptr);
    EXPECT_TRUE(p.find("resumed")->boolean());
}

TEST(SweepRetry, WithoutSnapshotsFallsBackToMutatedSeed)
{
    // No periodic snapshots: the deterministic wedge fails every
    // attempt, and the ladder's later rungs run under mutated seeds
    // (recorded faithfully even though they also fail).
    RunConfig cfg =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    ASSERT_TRUE(
        FaultPlan::parse("wedge:core=0,at=15000", cfg.faults));
    cfg.watchdogIntervalCycles = 2'000;
    SweepOptions opts;
    opts.jobs = 1;
    opts.maxRetries = 1;
    const std::vector<SweepRun> runs = runSweepEx({cfg}, opts);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_FALSE(runs[0].ok);
    EXPECT_FALSE(runs[0].resumed);
    EXPECT_EQ(runs[0].retries, opts.maxRetries);
    EXPECT_EQ(runs[0].errorKind, "watchdog");
    EXPECT_TRUE(runs[0].ckpt.empty());
}

// ---------------------------------------------------------------- //
// Averaged sweeps disclose how many seeds survived.                 //
// ---------------------------------------------------------------- //

TEST(SweepAveraged, PoisonedSeedGroupYieldsEmptyResultNotNan)
{
    RunConfig clean =
        smallConfig(SharingDegree::Shared4, SchedPolicy::Affinity);
    RunConfig poisoned = clean;
    ASSERT_TRUE(FaultPlan::parse("wedge:core=0,at=15000",
                                 poisoned.faults));
    poisoned.watchdogIntervalCycles = 2'000;

    const std::vector<std::uint64_t> seeds = {1, 2};
    SweepOptions opts;
    opts.jobs = 2;
    opts.maxRetries = 0;
    const auto results =
        runSweepAveraged({clean, poisoned}, seeds, opts);
    ASSERT_EQ(results.size(), 2u);

    // Clean config: both seeds averaged in, and the result says so.
    EXPECT_GT(results[0].vms.size(), 0u);
    EXPECT_EQ(results[0].seedsUsed, 2);
    for (const auto &vm : results[0].vms) {
        EXPECT_EQ(vm.cyclesPerTransaction, vm.cyclesPerTransaction)
            << "NaN leaked into an averaged metric";
    }

    // Fault-poisoned config: every seed failed; the salvage result is
    // a well-formed empty (no division by zero), marked as covering
    // zero seeds.
    EXPECT_EQ(results[1].vms.size(), 0u);
    EXPECT_EQ(results[1].seedsUsed, 0);
    EXPECT_EQ(results[1].netPackets, 0u);
    EXPECT_EQ(results[1].netAvgLatency, 0.0);

    // seeds_used reaches the JSON envelope only for averaged results.
    const json::Value ok_doc = runResultJson(clean, results[0]);
    ASSERT_NE(ok_doc.find("result")->find("seeds_used"), nullptr);
    EXPECT_EQ(
        ok_doc.find("result")->find("seeds_used")->asUint(), 2u);
    const RunResult single = runExperiment(clean);
    const json::Value single_doc = runResultJson(clean, single);
    EXPECT_EQ(single_doc.find("result")->find("seeds_used"), nullptr);
}

// ---------------------------------------------------------------- //
// Protocol-message codec.                                           //
// ---------------------------------------------------------------- //

TEST(CheckpointCodec, MsgRoundTrips)
{
    Msg m;
    m.type = MsgType::GetS;
    m.block = 0x12345678u;
    m.srcTile = 3;
    m.dstTile = 14;
    m.srcUnit = Unit::L1;
    m.dstUnit = Unit::Dir;
    m.reqCore = 3;
    m.reqBankTile = 9;
    m.reqGroup = 2;
    m.vm = 1;
    m.isWrite = true;
    m.dirtyData = true;
    m.c2cTransfer = true;
    m.ackCount = -2;
    m.injectCycle = 987654321u;
    const Msg back = msgFromJson(msgToJson(m));
    EXPECT_EQ(back.type, m.type);
    EXPECT_EQ(back.block, m.block);
    EXPECT_EQ(back.srcTile, m.srcTile);
    EXPECT_EQ(back.dstTile, m.dstTile);
    EXPECT_EQ(back.srcUnit, m.srcUnit);
    EXPECT_EQ(back.dstUnit, m.dstUnit);
    EXPECT_EQ(back.reqCore, m.reqCore);
    EXPECT_EQ(back.reqBankTile, m.reqBankTile);
    EXPECT_EQ(back.reqGroup, m.reqGroup);
    EXPECT_EQ(back.vm, m.vm);
    EXPECT_EQ(back.isWrite, m.isWrite);
    EXPECT_EQ(back.dirtyData, m.dirtyData);
    EXPECT_EQ(back.c2cTransfer, m.c2cTransfer);
    EXPECT_EQ(back.ackCount, m.ackCount);
    EXPECT_EQ(back.injectCycle, m.injectCycle);
}

// ---------------------------------------------------------------- //
// Run knobs: strict env parsing, in RunConfig::fromEnv alone.      //
// ---------------------------------------------------------------- //

namespace
{

/** Set an env var for one scope, restoring the old value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (old_.empty())
            ::unsetenv(name_);
        else
            ::setenv(name_, old_.c_str(), 1);
    }

  private:
    const char *name_;
    std::string old_;
};

} // namespace

TEST(EnvDefaults, WellFormedValuesApply)
{
    {
        ScopedEnv e("CONSIM_WARMUP", "123456");
        EXPECT_EQ(RunConfig::fromEnv().warmupCycles, 123456u);
    }
    {
        // Explicit 0 means "use the built-in default" for windows...
        ScopedEnv e("CONSIM_MEASURE", "0");
        EXPECT_EQ(RunConfig::fromEnv().measureCycles, 3'000'000u);
    }
    {
        // ...but is meaningful (disable) for the watchdog.
        ScopedEnv e("CONSIM_WATCHDOG", "0");
        EXPECT_EQ(RunConfig::fromEnv().watchdogIntervalCycles, 0u);
    }
    {
        ScopedEnv e("CONSIM_CKPT", "250000");
        EXPECT_EQ(RunConfig::fromEnv().ckptEveryCycles, 250000u);
    }
    {
        ScopedEnv e("CONSIM_TIMESLICE", "4000");
        EXPECT_EQ(RunConfig::fromEnv().timesliceCycles, 4000u);
    }
    EXPECT_EQ(RunConfig::fromEnv().ckptEveryCycles, 0u);
}

TEST(EnvDefaultsDeathTest, MalformedValuesAreFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    {
        ScopedEnv e("CONSIM_WARMUP", "4m");
        EXPECT_EXIT(RunConfig::fromEnv(),
                    ::testing::ExitedWithCode(1), "CONSIM_WARMUP");
    }
    {
        ScopedEnv e("CONSIM_MEASURE", "");
        EXPECT_EXIT(RunConfig::fromEnv(),
                    ::testing::ExitedWithCode(1), "CONSIM_MEASURE");
    }
    {
        ScopedEnv e("CONSIM_WATCHDOG", "-5");
        EXPECT_EXIT(RunConfig::fromEnv(),
                    ::testing::ExitedWithCode(1), "CONSIM_WATCHDOG");
    }
    {
        ScopedEnv e("CONSIM_CKPT", "1e6");
        EXPECT_EXIT(RunConfig::fromEnv(),
                    ::testing::ExitedWithCode(1), "CONSIM_CKPT");
    }
    {
        ScopedEnv e("CONSIM_TIMESLICE", "10k");
        EXPECT_EXIT(RunConfig::fromEnv(),
                    ::testing::ExitedWithCode(1), "CONSIM_TIMESLICE");
    }
}

TEST(EnvDefaults, RunExperimentReadsNoEnv)
{
    // Junk the run would die on and a watchdog the wedge would trip,
    // were the env read past RunConfig::fromEnv: a config built by
    // hand must run exactly as written.
    ScopedEnv ckpt("CONSIM_CKPT", "junk");
    ScopedEnv slice("CONSIM_TIMESLICE", "junk");
    ScopedEnv wd("CONSIM_WATCHDOG", "2000");
    RunConfig cfg;
    cfg.workloads = Mix::byName("Mix 1").vms;
    cfg.seed = 7;
    cfg.warmupCycles = 10'000;
    cfg.measureCycles = 20'000;
    cfg.watchdogIntervalCycles = 0;
    cfg.ckptEveryCycles = 0;
    cfg.cycleDeadline = 25'000;
    ASSERT_TRUE(FaultPlan::parse("wedge:core=0,at=15000", cfg.faults));
    try {
        runExperiment(cfg);
        FAIL() << "deadline did not trip";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Deadline);
        EXPECT_TRUE(e.ckpt().empty()) << "a snapshot was attached";
    }
}
