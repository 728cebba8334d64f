/**
 * @file
 * Checkpoint/resume (`consim.ckpt.v5`) tests: resume byte-identity
 * across every sharing degree and scheduling policy (including the
 * migration-boundary corner), FNV-1a pins of the snapshot text,
 * refusals of corrupt records by name (events, directory entries,
 * cache lines, the machine context, routers and NIs, messages, bank
 * transactions, cores, the dyn-sched feedback loop, the statistics
 * registry) and by the restore
 * audit, a fixed-seed slice of one-leaf mutants, watchdog-trip
 * checkpoints under fault injection, the strict env parsing of
 * RunConfig::fromEnv, and a run that reads no env at all. (A sweep
 * point's snapshot is tested with the sweep, in test_hardening.cc.)
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <regex>
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
#include "../tools/ckpt_mutation.hh"

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
 * byte-identical to the uninterrupted run's. @p inspect, when set,
 * sees the snapshot first.
 */
void
expectResumeByteIdentity(
    const RunConfig &cfg, Cycle deadline, Cycle every,
    const std::function<void(const json::Value &)> &inspect = {})
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
        if (inspect)
            inspect(doc);

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
    cfg.dynSched = {DynSchedPolicy::Random, 6'000};
    // The latest snapshot (absolute 24000, mid-measure) lands exactly
    // on an epoch boundary. The epoch's swap is latched before the
    // snapshot, so its two rebinds ride in the snapshot and the
    // resume installs them without drawing the pair again.
    expectResumeByteIdentity(
        cfg, 25'000, 12'000, [](const json::Value &doc) {
            int latched = 0;
            for (const json::Value &core :
                 doc.find("machine")->find("cores")->items())
                latched += core.find("rebind_vm") != nullptr;
            EXPECT_EQ(latched, 2);
        });
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
        {"mesh", false, 0x056da5fb58ab60daull},
        {"ideal NoC", true, 0x1add590080b460d9ull},
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

namespace
{

/** @p doc with the line records of machine.<@p units>[@p i].<@p key>
 *  (a cache array) replaced by edit(lines). */
json::Value
withEditedCacheLines(
    const json::Value &doc, const char *units, std::size_t i,
    const char *key,
    const std::function<json::Value(const json::Value &)> &edit)
{
    json::Value out = doc;
    json::Value *machine = out.find("machine");
    const json::Value &all = *machine->find(units);
    json::Value unit = all.at(i);
    json::Value array = *unit.find(key);
    array.set("lines", edit(*array.find("lines")));
    unit.set(key, array);
    machine->set(units, replaced(all, i, unit));
    return out;
}

} // namespace

TEST(CheckpointRestoreDeathTest, BadCacheLinesRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A real Mix 1 snapshot; each case corrupts the first line record
    // of a core's L1, of an L2 bank's array or of a directory slice's
    // cache.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const char *refusal = "checkpoint: bad cache line record";
    struct Target
    {
        const char *units;
        const char *key;
    };
    for (const Target target : {Target{"l1s", "l1"}, Target{"banks", "array"},
                                Target{"dirs", "cache"}}) {
        SCOPED_TRACE(target.key);
        // The first unit whose array holds a line.
        const json::Value &units = *doc.find("machine")->find(target.units);
        std::size_t u = 0;
        while (u < units.size() &&
               units.at(u).find(target.key)->find("lines")->size() == 0)
            ++u;
        ASSERT_LT(u, units.size());
        const json::Value &array = *units.at(u).find(target.key);
        const json::Value &rec = array.find("lines")->at(0);
        const auto resumeEdited =
            [&](const std::function<json::Value(const json::Value &)>
                    &edit) {
                resumeExperiment(withEditedCacheLines(
                    doc, target.units, u, target.key, edit));
            };
        const auto editRecord = [&](std::size_t field, json::Value v) {
            resumeEdited([=](const json::Value &lines) {
                return replaced(lines, 0, replaced(lines.at(0), field, v));
            });
        };
        // A slot outside its block's set: the next block maps to the
        // next set.
        EXPECT_DEATH(editRecord(1, rec.at(1).asUint() + 1), refusal);
        // A slot listed twice.
        EXPECT_DEATH(resumeEdited([](json::Value lines) {
                         lines.push(lines.at(0));
                         return lines;
                     }),
                     refusal);
        // A stamp the array never handed out.
        EXPECT_DEATH(editRecord(2, std::uint64_t{0}), refusal);
        EXPECT_DEATH(editRecord(2, array.find("stamp")->asUint() + 1),
                     refusal);
    }

    // Payloads. An edit replaces fields of the first line record of
    // the first L1 (or L2 bank) holding one; the groups have 4 cores.
    const auto resumePayload = [&](const char *units, const char *key,
                                   std::vector<std::pair<std::size_t,
                                                         json::Value>>
                                       fields) {
        const json::Value &all = *doc.find("machine")->find(units);
        std::size_t u = 0;
        while (all.at(u).find(key)->find("lines")->size() == 0)
            ++u;
        resumeExperiment(withEditedCacheLines(
            doc, units, u, key, [&](const json::Value &lines) {
                json::Value rec = lines.at(0);
                for (const auto &[field, v] : fields)
                    rec = replaced(rec, field, v);
                return replaced(lines, 0, rec);
            }));
    };
    // An L1 line is Shared or Modified; an L0 line holds no state of
    // its own.
    EXPECT_DEATH(resumePayload("l1s", "l1", {{3, 0}}), refusal);
    EXPECT_DEATH(resumePayload("l1s", "l1", {{3, 3}}), refusal);
    EXPECT_DEATH(resumePayload("l1s", "l0", {{3, 1}}), refusal);
    // An L2 line is S, E or M.
    EXPECT_DEATH(resumePayload("banks", "array", {{3, 9}}), refusal);
    EXPECT_DEATH(resumePayload("banks", "array", {{3, 0}}), refusal);
    // Its owner is a member core, or -1 for none.
    EXPECT_DEATH(resumePayload("banks", "array", {{7, 40}}), refusal);
    EXPECT_DEATH(resumePayload("banks", "array", {{7, -2}}), refusal);
    // A presence bit outside the group, an owner not present, and an
    // owner under a Shared line (the fields are state, presence and
    // owner).
    const auto presence = [](std::uint64_t word) {
        json::Value v = json::Value::array();
        v.push(word);
        return v;
    };
    EXPECT_DEATH(resumePayload("banks", "array",
                               {{3, 2}, {6, presence(1u << 4)}, {7, -1}}),
                 refusal);
    EXPECT_DEATH(resumePayload("banks", "array",
                               {{3, 3}, {6, presence(1)}, {7, 1}}),
                 refusal);
    EXPECT_DEATH(resumePayload("banks", "array",
                               {{3, 1}, {6, presence(1)}, {7, 0}}),
                 refusal);
    // Another VM's line.
    const json::Value &banks = *doc.find("machine")->find("banks");
    std::size_t b = 0;
    while (banks.at(b).find("array")->find("lines")->size() == 0)
        ++b;
    const std::int64_t vm = static_cast<std::int64_t>(
        banks.at(b).find("array")->find("lines")->at(0).at(8).number());
    EXPECT_DEATH(resumePayload("banks", "array", {{8, vm + 1}}), refusal);
}

TEST(CheckpointRestoreDeathTest, BadMachineContextRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Each edit of a real snapshot's machine context is refused by
    // name before any component is built. Unchecked, these died of
    // SIGFPE, panicked in a constructor, at a zero-delay event or in
    // the placement, or resumed with a negative latency.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const auto resumeWith = [&](const char *key, json::Value v) {
        json::Value out = doc;
        out.find("context")->find("config")->find("machine")->set(key, v);
        resumeExperiment(out);
    };
    struct Edit
    {
        const char *key;
        int value;
        const char *refusal;
    };
    const Edit edits[] = {
        {"flit_bytes", 0, "flit_bytes 0"},
        {"l2_assoc", 0, "l2_assoc 0"},
        {"l2_assoc", 65, "l2_assoc 65"},
        {"l2_assoc", 3, "l2_assoc 3 does not split"},
        {"l0_assoc", 0, "l0_assoc 0"},
        {"l1_assoc", 0, "l1_assoc 0"},
        {"dir_cache_assoc", 0, "dir_cache_assoc 0"},
        {"dir_cache_entries", 100, "dir_cache_assoc 8 does not split"},
        {"l0_latency", -5, "l0_latency -5"},
        {"l1_latency", 0, "l1_latency 0"},
        {"l2_latency", 0, "l2_latency 0"},
        {"mem_latency", -1, "mem_latency -1"},
        {"mem_issue_interval", -4, "mem_issue_interval -4 is negative"},
        {"mem_overlap_latency", 0, "mem_overlap_latency 0"},
        {"dir_latency", -3, "dir_latency -3"},
        {"ideal_noc_latency", 0, "ideal_noc_latency 0"},
        {"intra_group_latency", 0, "intra_group_latency 0"},
        {"vcs_per_vnet", 0, "vcs_per_vnet 0"},
        {"vcs_per_vnet", 5, "vcs_per_vnet 5"},
        {"vc_buffer_flits", 300, "vc_buffer_flits 300"},
        {"num_vnets", 2, "num_vnets 2"},
        {"num_vnets", 4, "num_vnets 4"},
        // Checked before the placement reads the group shape.
        {"sharing", 3, "cores not divisible into groups"},
        {"sharing", 0, "sharing degree 0 out of range"},
        {"mesh_x", 0, "at least 2x2"},
    };
    for (const Edit &e : edits) {
        SCOPED_TRACE(e.key);
        EXPECT_DEATH(resumeWith(e.key, e.value), e.refusal);
    }
}

namespace
{

/** @p doc with machine.net.<key>[@p i] replaced by edit(record). */
json::Value
withEditedNet(const json::Value &doc, const char *key, std::size_t i,
              const std::function<json::Value(json::Value)> &edit)
{
    json::Value out = doc;
    json::Value *net = out.find("machine")->find("net");
    const json::Value &arr = *net->find(key);
    net->set(key, replaced(arr, i, edit(arr.at(i))));
    return out;
}

/** @return @p rec with @p key replaced by edit(rec[key]). */
json::Value
editKey(json::Value rec, const char *key,
        const std::function<json::Value(const json::Value &)> &edit)
{
    rec.set(key, edit(*rec.find(key)));
    return rec;
}

} // namespace

TEST(CheckpointRestoreDeathTest, BadRouterRecordsRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A real Mix 1 snapshot on the 16-core mesh (3 VNs x 2 VCs on 5
    // ports): some router holds a queued packet in a local input VC
    // and a busy output. Each case corrupts one field of its record,
    // or of an NI record built from it.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const json::Value &routers =
        *doc.find("machine")->find("net")->find("routers");
    std::size_t r = routers.size(), vc = 0, port = 0;
    for (std::size_t i = 0; i < routers.size() && r == routers.size();
         ++i) {
        const json::Value &rec = routers.at(i);
        for (std::size_t v = 0; v < 6 && r == routers.size(); ++v) {
            if (rec.find("inputs")->at(v).find("q")->size() == 0)
                continue;
            for (std::size_t p = 0; p < 5; ++p) {
                if (rec.find("outputs")->at(p).find("busy")->boolean()) {
                    r = i;
                    vc = v;
                    port = p;
                    break;
                }
            }
        }
    }
    ASSERT_LT(r, routers.size()) << "no router with a local packet "
                                    "and a busy output";
    const json::Value &rec = routers.at(r);
    const json::Value &pkt = rec.find("inputs")->at(vc).find("q")->at(0);
    const json::Value &out = rec.find("outputs")->at(port);
    const int len = static_cast<int>(pkt.at(1).asUint());
    const int outLen = static_cast<int>(out.find("pkt")->at(1).asUint());

    const auto resumeRouter = [&](const std::function<json::Value(
                                      json::Value)> &edit) {
        resumeExperiment(withEditedNet(doc, "routers", r, edit));
    };
    const auto setField = [&](const char *key, json::Value v) {
        resumeRouter([=](json::Value x) {
            x.set(key, v);
            return x;
        });
    };
    // Replace field @p f of the queued packet.
    const auto setPacket = [&](std::size_t f, json::Value v) {
        resumeRouter([=](const json::Value &x) {
            return editKey(x, "inputs", [=](const json::Value &ins) {
                return replaced(
                    ins, vc,
                    editKey(ins.at(vc), "q", [=](const json::Value &q) {
                        return replaced(q, 0, replaced(q.at(0), f, v));
                    }));
            });
        });
    };
    // Replace key @p key of the busy output.
    const auto setOutput = [&](const char *key, json::Value v) {
        resumeRouter([=](const json::Value &x) {
            return editKey(x, "outputs", [=](const json::Value &outs) {
                json::Value o = outs.at(port);
                o.set(key, v);
                return replaced(outs, port, o);
            });
        });
    };
    const auto setFree = [&](std::int64_t v) {
        resumeRouter([=](const json::Value &x) {
            return editKey(x, "inputs", [=](const json::Value &ins) {
                json::Value e = ins.at(vc);
                e.set("free", v);
                return replaced(ins, vc, e);
            });
        });
    };
    const char *refusal = "checkpoint: bad router record";

    // The round-robin pointer outside the 30 input VCs.
    EXPECT_DEATH(setField("rr", 30), refusal);
    EXPECT_DEATH(setField("rr", -1), refusal);
    // Counts that disagree with the queues and outputs.
    EXPECT_DEATH(setField("buffered", rec.find("buffered")->asUint() + 4),
                 refusal);
    EXPECT_DEATH(
        setField("busy_outputs", rec.find("busy_outputs")->asUint() + 1),
        refusal);
    // Credits outside the buffer, or not conserved across the mesh.
    EXPECT_DEATH(setFree(99), refusal);
    EXPECT_DEATH(setFree(-1), refusal);
    const std::uint64_t free =
        rec.find("inputs")->at(vc).find("free")->asUint();
    EXPECT_DEATH(setFree(static_cast<std::int64_t>(free) - 1), refusal);
    // A queued packet of the wrong length for its type.
    EXPECT_DEATH(setPacket(1, len + 2), refusal);
    EXPECT_DEATH(setPacket(1, 9), refusal);
    // Ready later than an arrival in the last cycle makes it.
    EXPECT_DEATH(setPacket(2, std::uint64_t(1'000'000'000'000)), refusal);
    // Off its XY route: another port, or off the mesh edge.
    EXPECT_DEATH(setPacket(3, (pkt.at(3).asUint() + 1) % 5), refusal);
    EXPECT_DEATH(setPacket(3, 7), refusal);
    // A message of another vnet, or of no known type, or bound off
    // the chip.
    const auto type = static_cast<MsgType>(pkt.at(0).at(0).asUint());
    const MsgType otherVnet =
        carriesData(type) ? (vnetOf(type) == 2 ? MsgType::PutM
                                                : MsgType::Data)
                          : (vnetOf(type) == 0 ? MsgType::Inv
                                               : MsgType::GetS);
    EXPECT_DEATH(setPacket(0, replaced(pkt.at(0), 0,
                                       static_cast<int>(otherVnet))),
                 refusal);
    EXPECT_DEATH(setPacket(0, replaced(pkt.at(0), 0, 99)), refusal);
    EXPECT_DEATH(setPacket(0, replaced(pkt.at(0), 3, 999)), refusal);
    // A busy output with no flits or too many left, or bound for a
    // downstream VC outside its packet's vnet.
    EXPECT_DEATH(setOutput("remaining", 0), refusal);
    EXPECT_DEATH(setOutput("remaining", outLen + 1), refusal);
    const int outVnet = vnetOf(
        static_cast<MsgType>(out.find("pkt")->at(0).at(0).asUint()));
    EXPECT_DEATH(setOutput("dst_vc", port == 0 ? 1 : (outVnet + 1) % 3 * 2),
                 refusal);

    // An NI queue: move the queued packet back into its source NI
    // (returning its credits), then corrupt the message there.
    const int vnet = static_cast<int>(vc) / 2;
    json::Value moved =
        withEditedNet(doc, "routers", r, [&](json::Value x) {
            x.set("buffered", x.find("buffered")->asUint() - 1);
            return editKey(x, "inputs", [&](const json::Value &ins) {
                json::Value e = ins.at(vc);
                e.set("free", e.find("free")->asUint() + len);
                json::Value rest = json::Value::array();
                const json::Value &q = *e.find("q");
                for (std::size_t j = 1; j < q.size(); ++j)
                    rest.push(q.at(j));
                e.set("q", rest);
                return replaced(ins, vc, e);
            });
        });
    const auto resumeNi = [&](int queue, json::Value msg) {
        resumeExperiment(
            withEditedNet(moved, "nis", r, [&](const json::Value &ni) {
                json::Value q = json::Value::array();
                q.push(msg);
                return replaced(ni, static_cast<std::size_t>(queue), q);
            }));
    };
    const char *niRefusal = "checkpoint: bad NI record";
    EXPECT_DEATH(resumeNi(vnet, replaced(pkt.at(0), 2, int(r + 1) % 16)),
                 niRefusal);
    EXPECT_DEATH(resumeNi(vnet, replaced(pkt.at(0), 3, int(r))),
                 niRefusal);
    EXPECT_DEATH(resumeNi((vnet + 1) % 3, pkt.at(0)), niRefusal);
    // The uncorrupted move resumes, and runs on until the wedged
    // core trips the watchdog.
    try {
        resumeNi(vnet, pkt.at(0));
        ADD_FAILURE() << "the wedge did not trip";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Watchdog) << e.what();
    }

    // The ideal network holds no packet (its messages travel as
    // NetDeliver events), so its in-flight list must be empty.
    json::Value ideal;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(true)), ideal));
    // Each machine refuses the other interconnect's record.
    const auto withKind = [](json::Value snap, const char *kind) {
        snap.find("machine")->find("net")->set("kind", kind);
        return snap;
    };
    EXPECT_DEATH(resumeExperiment(withKind(doc, "ideal")),
                 "checkpoint: network kind mismatch");
    EXPECT_DEATH(resumeExperiment(withKind(ideal, "mesh")),
                 "checkpoint: network kind mismatch");
    json::Value entry = json::Value::array();
    entry.push(std::uint64_t(11'005));
    entry.push(pkt.at(0));
    json::Value inflight = json::Value::array();
    inflight.push(entry);
    ideal.find("machine")->find("net")->set("inflight", inflight);
    EXPECT_DEATH(resumeExperiment(ideal),
                 "checkpoint: bad ideal-network record");
}

namespace
{

/** @return machine.<@p units>[@p i] of @p doc, to edit in place. */
json::Value &
unitOf(json::Value &doc, const char *units, std::size_t i)
{
    return doc.find("machine")->find(units)->at(i);
}

/** @return the index of the first bank of @p doc with a transaction. */
std::size_t
busyBank(json::Value &doc)
{
    std::size_t b = 0;
    while (unitOf(doc, "banks", b).find("active")->size() == 0)
        ++b;
    return b;
}

} // namespace

TEST(CheckpointRestoreDeathTest, BadMessageFieldsRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Message fields (a 4-VM, 16-core snapshot) outside their domains,
    // in a bank transaction and in a pending event. Unchecked, a VM of
    // 7 indexed the VM table (SIGSEGV), and a type of 99 aborted in
    // the L1's handler or resumed and exited 0.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const std::size_t b = busyBank(doc);
    const auto resumeReq = [&](std::size_t field, json::Value v) {
        json::Value out = doc;
        json::Value &txn =
            unitOf(out, "banks", b).find("active")->at(0).at(1);
        txn.find("req")->at(field) = std::move(v);
        resumeExperiment(out);
    };
    EXPECT_DEATH(resumeReq(9, 7), "bad bank record .*req\\.vm 7 outside");
    EXPECT_DEATH(resumeReq(0, 99), "bad bank record .*req\\.type 99 outside");
    EXPECT_DEATH(resumeReq(2, 500),
                 "bad bank record .*req\\.srcTile 500 outside");
    const auto resumeMsg = [&](std::size_t field, json::Value v) {
        resumeExperiment(withEditedEvent(
            doc, SimEventKind::Deliver, [&](const json::Value &rec) {
                return replaced(rec, 6, replaced(rec.at(6), field, v));
            }));
    };
    EXPECT_DEATH(resumeMsg(9, 7), "bad event record .*msg\\.vm 7 outside");
    EXPECT_DEATH(resumeMsg(0, 99), "bad event record .*msg\\.type 99 outside");
}

TEST(CheckpointRestoreDeathTest, BadBankRecordsRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A bank transaction's phase, flags and cycles and a write-back's
    // VM: each field outside its domain or of another JSON kind is
    // refused by name. Unchecked, these resumed and exited 0 or failed
    // later.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const std::size_t b = busyBank(doc);
    const auto resumeTxn = [&](const char *key, json::Value v) {
        json::Value out = doc;
        unitOf(out, "banks", b).find("active")->at(0).at(1).set(key, v);
        resumeExperiment(out);
    };
    EXPECT_DEATH(resumeTxn("phase", 42), "bad bank record .*phase 42 outside");
    EXPECT_DEATH(resumeTxn("data_arrived", 1),
                 "bad bank record .*data_arrived is not a bool");
    EXPECT_DEATH(resumeTxn("started", "x"),
                 "bad bank record .*started is not an integer");
    EXPECT_DEATH(resumeTxn("extract", 1e300),
                 "bad bank record .*extract is not an integer");
    // A write-back entry [block, dirty, vm, started] of a block the
    // bank serves.
    json::Value out = doc;
    json::Value &bank = unitOf(out, "banks", b);
    json::Value wb = json::Value::array();
    wb.push(bank.find("active")->at(0).at(0));
    wb.push(true);
    wb.push(17);
    wb.push(std::uint64_t(11'000));
    json::Value list = json::Value::array();
    list.push(wb);
    bank.set("wb", list);
    EXPECT_DEATH(resumeExperiment(out),
                 "bad bank record .*wb\\[0\\]\\.vm 17 outside");
}

TEST(CheckpointRestoreDeathTest, RecordsPastATableBoundRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // One bank lists 17 victim extractions of its own blocks; the
    // machine-wide table holds one per core (16 here), so restore
    // refuses the list by name before inserting any.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const std::size_t b = busyBank(doc);
    json::Value &bank = unitOf(doc, "banks", b);
    const std::uint64_t first = bank.find("active")->at(0).at(0).asUint();
    json::Value list = json::Value::array();
    for (std::uint64_t i = 0; i < 17; ++i) {
        // A 4-bank group: every fourth block is this bank's.
        json::Value rec = json::Value::array();
        rec.push(first + 4 * i);
        rec.push(first);
        list.push(rec);
    }
    bank.set("victim_extract", list);
    EXPECT_DEATH(resumeExperiment(doc),
                 "bad bank record .*victim_extract lists 17 records, past "
                 "the victim extractions table's bound \\(0 of 16 taken\\)");
}

TEST(CheckpointRestoreDeathTest, BadCoreRecordsRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A core's binding, an L1's pending miss and a memory controller's
    // count. Unchecked, a shortened pending record and a thread or VM
    // out of range died of std::out_of_range, and a negative count
    // resumed and exited 0.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const auto resumeUnit = [&](const char *units, const char *key,
                                json::Value v) {
        json::Value out = doc;
        unitOf(out, units, 0).set(key, v);
        resumeExperiment(out);
    };
    json::Value cut = json::Value::array();
    cut.push(true);
    EXPECT_DEATH(resumeUnit("l1s", "pending", cut),
                 "bad L1 record .*pending\\.block is missing");
    EXPECT_DEATH(resumeUnit("cores", "thread", 99),
                 "bad core record .*thread 99 outside");
    EXPECT_DEATH(resumeUnit("cores", "vm", 9),
                 "bad core record .*vm 9 outside");
    EXPECT_DEATH(resumeUnit("mcs", "outstanding", -5),
                 "bad MC record .*outstanding -5 outside");
}

namespace
{

/** @return the stats of registry group @p path ({"vm00"}, {"tile00",
 *  "l1"}) in snapshot @p doc, to edit in place. */
json::Value &
statsOf(json::Value &doc, const std::vector<const char *> &path)
{
    json::Value *g = doc.find("machine")->find("stats");
    for (const char *name : path)
        g = g->find("children")->find(name);
    return *g->find("stats");
}

} // namespace

TEST(CheckpointRestoreDeathTest, BadStatsRecordsRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // The statistics registry's record: a counter, an average and a
    // histogram of another form are each refused by path. Unchecked, a
    // counter of "x" or -5, a count of 1.5, a sum of "x" and a
    // histogram count of 10^12 each resumed and exited 0.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const auto resumeEdited =
        [&](const std::vector<const char *> &group,
            const std::function<void(json::Value &)> &edit) {
            json::Value out = doc;
            edit(statsOf(out, group));
            resumeExperiment(out);
        };
    const std::string vm =
        "bad stats record \\(machine\\.stats\\.children\\.vm00\\.stats\\.";
    EXPECT_DEATH(resumeEdited({"vm00"},
                              [](json::Value &s) { s.set("l2_misses", "x"); }),
                 vm + "l2_misses is not an integer");
    EXPECT_DEATH(resumeEdited({"vm00"},
                              [](json::Value &s) { s.set("l2_misses", -5); }),
                 vm + "l2_misses -5 outside 0\\.\\.");
    EXPECT_DEATH(resumeEdited({"vm00"},
                              [](json::Value &s) { s.set("transactions", 1.5); }),
                 vm + "transactions is not an integer");
    EXPECT_DEATH(resumeEdited({"vm00"},
                              [](json::Value &s) {
                                  s.find("miss_latency")->set("sum", "x");
                              }),
                 vm + "miss_latency\\.sum is not a number");
    EXPECT_DEATH(resumeEdited({"vm00"},
                              [](json::Value &s) {
                                  s.find("miss_latency")->set("sum", -0.5);
                              }),
                 vm + "miss_latency\\.sum -0\\.5 is not a finite number");
    EXPECT_DEATH(resumeEdited({"vm00"},
                              [](json::Value &s) {
                                  json::Value &a = *s.find("miss_latency");
                                  a.set("sum", 7);
                                  a.set("count", 0);
                              }),
                 vm + "miss_latency\\.sum 7 with a count of 0");
    const std::string l1 = "bad stats record \\(machine\\.stats\\.children\\."
                           "tile00\\.children\\.l1\\.stats\\.miss_latency";
    EXPECT_DEATH(resumeEdited({"tile00", "l1"},
                              [](json::Value &s) {
                                  s.find("miss_latency")
                                      ->set("count",
                                            std::uint64_t(1'000'000'000'000));
                              }),
                 l1 + "\\.count 1000000000000 is not the sum of the buckets");
    // A bucket list one entry short.
    EXPECT_DEATH(resumeEdited({"tile00", "l1"},
                              [](json::Value &s) {
                                  json::Value &h = *s.find("miss_latency");
                                  const json::Value &b = *h.find("buckets");
                                  json::Value cut = json::Value::array();
                                  for (std::size_t j = 0; j + 1 < b.size(); ++j)
                                      cut.push(b.at(j));
                                  h.set("buckets", cut);
                              }),
                 l1 + "\\.buckets has 100 entries, want 101");
    // An empty histogram with a max.
    EXPECT_DEATH(resumeEdited({"tile00", "l1"},
                              [](json::Value &s) {
                                  json::Value &h = *s.find("miss_latency");
                                  json::Value zeros = json::Value::array();
                                  for (std::size_t j = 0;
                                       j < h.find("buckets")->size(); ++j)
                                      zeros.push(0);
                                  h.set("buckets", zeros);
                                  h.set("sum", 0);
                                  h.set("count", 0);
                                  h.set("max", 7);
                              }),
                 l1 + " is empty with sum 0 and max 7");
}

TEST(CheckpointRestoreDeathTest, PendingMissNoOneServesRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Three L1s' outstanding misses, each moved to block 0x4 of VM 0's
    // window, which no bank record and no message in flight names:
    // nothing would ever fill them. Every record is well formed, so
    // only the restore audit sees it. Unchecked, such an edit resumed
    // until the real fill came back ("unexpected fill").
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    int edits = 0;
    for (std::size_t i = 0; i < 16 && edits < 3; ++i) {
        json::Value out = doc;
        json::Value &pending = *unitOf(out, "l1s", i).find("pending");
        if (!pending.at(0).boolean())
            continue;
        pending.at(1) = 4;
        EXPECT_DEATH(resumeExperiment(out),
                     "restored machine fails its audit \\(L1 " +
                         std::to_string(i) +
                         " waits on block 0x4 but no bank record or "
                         "message names it");
        ++edits;
    }
    EXPECT_EQ(edits, 3);
}

TEST(CheckpointRestoreDeathTest, BadDynSchedEvalRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // The swap awaiting its verdict names two cores; the next epoch
    // indexes both (Core lookup is an .at()).
    RunConfig cfg = wedgedConfig(false);
    cfg.dynSched = {DynSchedPolicy::ContentionAware, 3'000};
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(cfg), doc));
    json::Value eval = json::Value::array();
    for (const std::uint64_t x : {999u, 0u, 0u, 0u})
        eval.push(x);
    doc.find("machine")->find("dyn_sched")->set("eval", eval);
    EXPECT_DEATH(resumeExperiment(doc),
                 "bad dyn-sched record .*eval\\.a 999 outside");
}

TEST(CheckpointRestoreDeathTest, RestoreAuditRefusesL0OutsideL1)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Core 0's first L0 line moved to another block of its set that
    // its L1 does not hold: every record is well formed, but the
    // machine breaks L0 inclusion, which the restore audit checks.
    // Unchecked, it resumed and exited 0.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    json::Value &l1 = unitOf(doc, "l1s", 0);
    json::Value &l0 = *l1.find("l0");
    const std::uint64_t sets =
        l0.find("num_lines")->asUint() / doc.find("context")
                                              ->find("config")
                                              ->find("machine")
                                              ->find("l0_assoc")
                                              ->asUint();
    std::set<std::uint64_t> held;
    for (const json::Value &rec : l1.find("l1")->find("lines")->items())
        held.insert(rec.at(1).asUint());
    json::Value &block = l0.find("lines")->at(0).at(1);
    std::uint64_t moved = block.asUint() + sets;
    while (held.count(moved))
        moved += sets;
    block = moved;
    EXPECT_DEATH(resumeExperiment(doc), "L0 inclusion violated");
}

TEST(CheckpointMutation, FixedSeedSliceEndsInSimError)
{
    // 200 single-leaf edits of a real snapshot's machine and VM
    // sections (tools/ckpt_mutation.hh), each resumed in process at
    // check level basic. Context edits are left to the tools/ci.sh
    // stage: MachineConfig::validate() refuses a machine by exiting.
    // Every mutant ends in a SimError: refused at restore, or tripped
    // by the wedge, or failed later, which only an edit of a leaf
    // DESIGN §8 names as one restore cannot check may do.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const mutation::Mutator mutator(doc, {"machine", "vms"});
    // DESIGN §8: a directory transaction's ack count or requesting
    // bank, a bank transaction's phase, an L1's pending block, and the
    // block, destination or requesting bank of a message in flight.
    const std::regex uncheckable(
        "machine\\.dirs\\[\\d+\\]\\.active\\[\\d+\\](\\[3\\]|\\[1\\]\\[7\\])|"
        "machine\\.banks\\[\\d+\\]\\.active\\[\\d+\\]\\[1\\]\\.phase|"
        "machine\\.l1s\\[\\d+\\]\\.pending\\[1\\]|"
        "machine\\.(events\\.pending\\[\\d+\\]\\[6\\]|"
        "net\\.routers.*(pkt|q\\[\\d+\\])\\[0\\]|"
        "net\\.nis(\\[\\d+\\]){3})\\[[137]\\]");
    const check::Level level = check::level();
    check::setLevel(check::Level::Basic);
    int refused = 0, tripped = 0, later = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        mutation::Edit edit;
        const json::Value mutant = mutator.mutant(1, i, edit);
        SCOPED_TRACE(edit.path + " = " + edit.value);
        try {
            resumeExperiment(mutant);
            ADD_FAILURE() << "resumed without a trip";
        } catch (const SimError &e) {
            const std::string what = e.what();
            if (what.find("checkpoint") != std::string::npos) {
                ++refused;
            } else if (e.kind() == SimErrorKind::Watchdog) {
                ++tripped;
            } else {
                ++later;
                EXPECT_TRUE(std::regex_match(edit.path, uncheckable)) << what;
            }
        } catch (const std::exception &e) {
            ADD_FAILURE() << "not a SimError: " << e.what();
        }
    }
    check::setLevel(level);
    EXPECT_EQ(refused + tripped + later, 200);
    EXPECT_GT(refused, tripped);
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

TEST(CheckpointSchemaDeathTest, MigrateSnapshotsRefused)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Older builds' --migrate runs swapped threads between run()
    // chunks, echoing the interval in the context config and the
    // migration RNG beside it. No current run continues them, so
    // either mark is refused with the option that replaced them.
    json::Value doc;
    ASSERT_TRUE(json::parse(tripSnapshot(wedgedConfig(false)), doc));
    const RunConfig cfg = configFromCheckpoint(doc);
    const auto withInterval = [&](std::uint64_t interval) {
        json::Value out = doc;
        out.find("context")->find("config")->set(
            "migration_interval_cycles", interval);
        return out;
    };
    EXPECT_DEATH(resumeExperiment(withInterval(6'000)),
                 "--dyn-sched random");
    json::Value rng = doc;
    json::Value state = json::Value::array();
    for (std::uint64_t w : {1u, 2u, 3u, 4u})
        state.push(w);
    rng.find("context")->set("mig_rng", std::move(state));
    EXPECT_DEATH(resumeExperiment(rng), "--dyn-sched random");
    // A zero interval is a non-migrating run: the key is ignored.
    EXPECT_EQ(toJson(configFromCheckpoint(withInterval(0))).dump(),
              toJson(cfg).dump());
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
    {
        // A misspelt level would otherwise run unchecked.
        ScopedEnv e("CONSIM_CHECK", "fulll");
        EXPECT_EXIT(check::levelFromEnv(), ::testing::ExitedWithCode(1),
                    "CONSIM_CHECK='fulll' is not off\\|basic\\|full");
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
