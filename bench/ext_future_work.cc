/**
 * @file
 * Extensions from the paper's Future Work section (SSVII), built on
 * the same machine:
 *
 *  1. Dynamic scheduling: instead of the paper's static startup
 *     binding, threads are periodically migrated between cores (a
 *     hypervisor reassigning virtual CPUs / an over-committed
 *     system): the dyn-sched `random` policy swaps one random pair
 *     every epoch. Sweeping the epoch shows the cost of losing cache
 *     affinity.
 *
 *  2. Different numbers of threads per workload: an asymmetric mix
 *     (one 8-thread SPECjbb + two 4-thread TPC-H) on the same chip.
 *
 *  3. Higher degrees of consolidation per workload: two 8-thread
 *     instances instead of four 4-thread instances.
 */

#include <iostream>
#include <memory>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "core/report.hh"

namespace
{

using namespace consim;

void
dynamicSchedulingSweep(JsonReport &jrep)
{
    std::cout << "1) Dynamic thread migration (Mix C, affinity "
                 "start, shared-4-way):\n";
    TextTable table({"migration interval", "cycles/txn",
                     "LLC miss rate", "miss lat (cy)"});
    struct Point
    {
        Cycle interval;
        const char *label;
    };
    const Point points[] = {{0, "static (paper)"},
                            {400'000, "every 400K cycles"},
                            {100'000, "every 100K cycles"},
                            {25'000, "every 25K cycles"}};
    for (const auto &pt : points) {
        RunConfig cfg = mixConfig(Mix::byName("Mix C"),
                                  SchedPolicy::Affinity,
                                  SharingDegree::Shared4);
        if (pt.interval != 0)
            cfg.dynSched = {DynSchedPolicy::Random, pt.interval};
        const RunResult r = runAveraged(cfg, benchSeeds());
        if (jrep.enabled()) {
            auto jpt = runResultJson(cfg, r);
            jpt.set("label", pt.label);
            jrep.point(std::move(jpt));
        }
        table.addRow(
            {pt.label,
             TextTable::num(r.meanCyclesPerTxn(WorkloadKind::SpecJbb),
                            0),
             TextTable::pct(r.meanMissRate(WorkloadKind::SpecJbb)),
             TextTable::num(
                 r.meanMissLatency(WorkloadKind::SpecJbb), 1)});
    }
    table.print(std::cout);
    std::cout << "\n";
}

/** Run a custom set of (profile, seed) VMs and report per VM. */
void
runCustom(const char *title,
          const std::vector<WorkloadProfile> &profiles,
          SchedPolicy policy, JsonReport &jrep)
{
    std::vector<std::unique_ptr<VirtualMachine>> storage;
    std::vector<VirtualMachine *> vms;
    std::vector<int> threads;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        storage.push_back(std::make_unique<VirtualMachine>(
            profiles[i], static_cast<VmId>(i), 1000003ull + i));
        vms.push_back(storage.back().get());
        threads.push_back(profiles[i].numThreads);
    }
    MachineConfig machine;
    machine.sharing = SharingDegree::Shared4;
    const auto placements =
        scheduleThreads(machine, threads, policy, 1);
    System sys(machine, vms, placements);
    const RunConfig windows = RunConfig::fromEnv();
    sys.run(windows.warmupCycles);
    sys.resetStats();
    const Cycle measure = windows.measureCycles;
    sys.run(measure);

    std::cout << title << "\n";
    TextTable table({"vm", "threads", "cycles/txn", "LLC miss rate",
                     "miss lat (cy)"});
    for (auto *vm : vms) {
        const auto &s = vm->vmStats();
        const double cpt =
            s.transactions.value()
                ? static_cast<double>(measure) /
                      static_cast<double>(s.transactions.value())
                : 0.0;
        table.addRow({toString(vm->profile().kind) + " #" +
                          std::to_string(vm->id()),
                      std::to_string(vm->profile().numThreads),
                      TextTable::num(cpt, 0),
                      TextTable::pct(s.missRate()),
                      TextTable::num(s.missLatency.mean(), 1)});
    }
    table.print(std::cout);
    std::cout << "\n";
    if (jrep.enabled()) {
        // Custom-built Systems have no RunConfig; export the whole
        // registry tree instead.
        auto jpt = json::Value::object();
        jpt.set("label", title);
        jpt.set("stats", sys.statsRoot().toJson());
        jrep.point(std::move(jpt));
    }
}

WorkloadProfile
withThreads(WorkloadKind kind, int threads)
{
    WorkloadProfile p = WorkloadProfile::get(kind);
    p.numThreads = threads;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace consim;
    logging::setVerbose(false);

    printHeader(std::cout,
                "Extensions: paper SSVII future work",
                "dynamic scheduling; asymmetric thread counts; "
                "higher consolidation degree",
                "migration churn should cost cache affinity; bigger "
                "instances amplify intra-workload sharing");
    JsonReport jrep("ext_future_work", "Paper SSVII future work",
                    JsonReport::pathFromArgs(argc, argv));

    dynamicSchedulingSweep(jrep);

    runCustom("2) Asymmetric mix: 8-thread SPECjbb + 2x 4-thread "
              "TPC-H (affinity):",
              {withThreads(WorkloadKind::SpecJbb, 8),
               withThreads(WorkloadKind::TpcH, 4),
               withThreads(WorkloadKind::TpcH, 4)},
              SchedPolicy::Affinity, jrep);

    runCustom("3) Higher degree: 2x 8-thread SPECjbb (affinity) -- "
              "compare with Mix C's 4x4:",
              {withThreads(WorkloadKind::SpecJbb, 8),
               withThreads(WorkloadKind::SpecJbb, 8)},
              SchedPolicy::Affinity, jrep);
    jrep.write();
    return 0;
}
