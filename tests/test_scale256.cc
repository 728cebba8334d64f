/**
 * @file
 * Large-scale determinism: the guarantees proven at 16 cores must
 * hold on the meshes the scale study sweeps — checkpoint/resume byte
 * identity at 256 cores (CoreSet heap-spill codec: 256 private groups
 * need four presence words), and over-committed schedules (more VM
 * threads than cores) across snapshots and resumes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/json.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/report.hh"

using namespace consim;

namespace
{

/** Mix 1 on an @p x x @p y mesh, short windows. */
RunConfig
scaleConfig(int x, int y, SharingDegree sharing, SchedPolicy policy)
{
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"), policy, sharing);
    cfg.machine.meshX = x;
    cfg.machine.meshY = y;
    cfg.seed = 13;
    cfg.warmupCycles = 8'000;
    cfg.measureCycles = 12'000;
    return cfg;
}

/** Deadline-trip + resume must reproduce the uninterrupted run. */
void
expectResumeByteIdentity(const RunConfig &cfg, Cycle deadline,
                         Cycle every)
{
    const std::string full_doc =
        runResultJson(cfg, runExperiment(cfg)).dump(2);
    RunConfig trip = cfg;
    trip.cycleDeadline = deadline;
    trip.ckptEveryCycles = every;
    try {
        runExperiment(trip);
        FAIL() << "deadline did not trip";
    } catch (const SimError &e) {
        ASSERT_EQ(e.kind(), SimErrorKind::Deadline);
        ASSERT_FALSE(e.ckpt().empty());
        json::Value doc;
        std::string err;
        ASSERT_TRUE(json::parse(e.ckpt(), doc, &err)) << err;
        const RunResult resumed = resumeExperiment(doc);
        EXPECT_EQ(runResultJson(cfg, resumed).dump(2), full_doc);
    }
}

} // namespace

TEST(Scale256, CheckpointRoundTripsAt256CoresPrivateSharing)
{
    // 256 private groups: every directory GroupSet and presence
    // CoreSet spills to four heap words, so the snapshot codec's
    // word-array paths (save, load, trailing-zero canonicalisation)
    // all run. Resume must be byte-identical.
    RunConfig cfg = scaleConfig(16, 16, SharingDegree::Private,
                                SchedPolicy::RoundRobin);
    cfg.vmThreads = {64, 64, 64, 64};
    expectResumeByteIdentity(cfg, 14'000, 5'000);
}

TEST(Scale256, OverCommittedScheduleMakesProgressForEveryVm)
{
    // 32 threads on 16 cores: time-slicing must keep every VM
    // retiring transactions, not just the first layer.
    RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::Affinity,
                              SharingDegree::Shared4);
    cfg.seed = 13;
    cfg.warmupCycles = 10'000;
    cfg.measureCycles = 40'000;
    cfg.vmThreads = {8, 8, 8, 8};
    cfg.timesliceCycles = 5'000;
    const RunResult r = runExperiment(cfg);
    ASSERT_EQ(r.vms.size(), 4u);
    // Per-VM instruction counts prove rotation: the second-layer VMs
    // (2 and 3 under affinity packing) only ever run when the first
    // layer is preempted. Round-robin rotation should also keep the
    // layers in the same ballpark — no layer starves.
    std::uint64_t lo = ~0ull, hi = 0;
    for (std::size_t i = 0; i < r.vms.size(); ++i) {
        EXPECT_GT(r.vms[i].instructions, 0u) << "vm " << i;
        lo = std::min(lo, r.vms[i].instructions);
        hi = std::max(hi, r.vms[i].instructions);
    }
    EXPECT_GT(lo * 4, hi)
        << "a VM starved: min " << lo << " vs max " << hi
        << " instructions";
}

TEST(Scale256, OverCommittedResumeRestoresRotationState)
{
    // The snapshot lands mid-quantum; the resumed run must preempt
    // on the same absolute boundaries (ctx_pos / next_slice codec).
    RunConfig cfg = scaleConfig(4, 4, SharingDegree::Shared4,
                                SchedPolicy::Affinity);
    cfg.measureCycles = 25'000;
    cfg.vmThreads = {8, 8, 8, 8};
    cfg.timesliceCycles = 4'000;
    expectResumeByteIdentity(cfg, 21'000, 9'000);
}

TEST(Scale256, OverCommitWorksOnLargeMeshes)
{
    // 256 threads on 128 cores, shared-16 partitions: the schedule
    // the fig16 bench sweeps.
    RunConfig cfg = scaleConfig(16, 8, SharingDegree::Shared16,
                                SchedPolicy::Affinity);
    cfg.warmupCycles = 6'000;
    cfg.measureCycles = 10'000;
    cfg.vmThreads = {64, 64, 64, 64};
    const RunResult r = runExperiment(cfg);
    std::uint64_t instr = 0;
    for (const auto &v : r.vms)
        instr += v.instructions;
    EXPECT_GT(instr, 0u);
}
