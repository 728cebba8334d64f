/**
 * @file
 * Service-order pins: System::run fires its service points in a fixed
 * order (QoS epoch, dyn-sched epoch, snapshot, deadline, watchdog),
 * and that order is part of the byte-identity contract. A snapshot
 * on an epoch boundary must hold the post-epoch way allocation and
 * the latched rebinds, and a deadline trip must carry the snapshot of
 * its own cycle. These pins arm every service point on one 25k-cycle
 * grid, so several fire on the same cycle, and hash what comes out.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/check.hh"
#include "common/json.hh"
#include "core/experiment.hh"
#include "core/report.hh"

using namespace consim;

namespace
{

/** FNV-1a 64-bit over a document's exact text. */
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

/**
 * Three 4-thread Bursty VMs on a sharing-2 chip with a 2 MB L2, seed
 * 42, 100k + 200k cycles, with dynamic QoS, @p policy migration, the
 * watchdog and periodic snapshots all on a 25k-cycle grid:
 *   consim_run --vm bursty --vm bursty --vm bursty
 *     --vm-threads 4,4,4 --sharing 2 --l2 2097152 --seed 42
 *     --warmup 100000 --measure 200000
 *     --qos dynamic:vm=0,ways=2,epoch=25000
 *     --dyn-sched POLICY,epoch=25000
 *     --watchdog 25000 --ckpt-every 25000
 */
RunConfig
servicePoint(const std::string &policy)
{
    RunConfig cfg;
    cfg.machine.sharing = sharingDegree(2);
    cfg.machine.l2TotalBytes = 2ull << 20;
    cfg.workloads = {WorkloadKind::Bursty, WorkloadKind::Bursty,
                     WorkloadKind::Bursty};
    cfg.vmThreads = {4, 4, 4};
    cfg.seed = 42;
    cfg.warmupCycles = 100'000;
    cfg.measureCycles = 200'000;
    std::string err;
    EXPECT_TRUE(QosConfig::parse("dynamic:vm=0,ways=2,epoch=25000",
                                 cfg.qos, &err))
        << err;
    EXPECT_TRUE(DynSchedConfig::parse(policy + ",epoch=25000",
                                      cfg.dynSched, &err))
        << err;
    cfg.watchdogIntervalCycles = 25'000;
    cfg.ckptEveryCycles = 25'000;
    return cfg;
}

} // namespace

TEST(ServiceOrder, EnvelopesPinnedWithEveryPointArmed)
{
    // Hashes of the envelope consim_run --json writes (two-space
    // indent plus a trailing newline). affinity-repair never migrates
    // on this point, so it pins nothing the other three do not.
    struct Pin
    {
        const char *policy;
        std::uint64_t migrations;
        std::uint64_t hash;
    };
    const Pin pins[] = {
        {"load-balance", 6, 0xa3815b8a3544872aull},
        {"contention-aware", 6, 0xc7fe2522ff69d2d7ull},
        {"random", 12, 0xb769597f965ba57dull},
    };
    for (const Pin &pin : pins) {
        const RunConfig cfg = servicePoint(pin.policy);
        const RunResult r = averageRunResults({runExperiment(cfg)});
        EXPECT_EQ(r.dynMigrations, pin.migrations) << pin.policy;
        std::ostringstream os;
        runResultJson(cfg, r).write(os, 2);
        os << "\n";
        const std::uint64_t h = fnv1a(os.str());
        EXPECT_EQ(h, pin.hash) << pin.policy
                               << ": run.v1 envelope changed (now 0x"
                               << std::hex << h << ")";
    }
}

TEST(ServiceOrder, DeadlineTripCarriesPostEpochSnapshot)
{
    // Cycle 250000 is a QoS epoch, a dyn-sched epoch, a snapshot, the
    // deadline and a watchdog check at once. The snapshot the trip
    // carries is the one of that cycle, taken after both epochs ran:
    // that epoch grew the protected VM from 3 ways to 4 (2 at the
    // start), and spent the scheduler's last hold epoch after 5
    // migrations.
    RunConfig cfg = servicePoint("contention-aware");
    cfg.cycleDeadline = 250'000;
    try {
        runExperiment(cfg);
        FAIL() << "deadline did not trip";
    } catch (const SimError &e) {
        ASSERT_EQ(e.kind(), SimErrorKind::Deadline);
        const std::string &text = e.ckpt();
        json::Value doc;
        std::string err;
        ASSERT_TRUE(json::parse(text, doc, &err)) << err;
        const json::Value &m = *doc.find("machine");
        EXPECT_EQ(m.find("cycle")->asUint(), 250'000u);
        EXPECT_EQ(m.find("qos")->find("dyn_ways")->asUint(), 4u);
        const json::Value &dyn = *m.find("dyn_sched");
        EXPECT_EQ(dyn.find("migrations")->asUint(), 5u);
        EXPECT_EQ(dyn.find("hold")->asUint(), 0u);
        const std::uint64_t h = fnv1a(text);
        EXPECT_EQ(h, 0x0492be36988673dbull)
            << "consim.ckpt.v5 text changed (now 0x" << std::hex << h
            << ")";
    }
}
