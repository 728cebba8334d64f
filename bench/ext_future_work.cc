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
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "core/report.hh"

namespace
{

using namespace consim;

/** A point reported VM by VM. */
struct PerVm
{
    const char *title;
    RunConfig cfg;
};

void
printPerVm(const PerVm &point, const RunResult &r, JsonReport &jrep)
{
    std::cout << point.title << "\n";
    TextTable table({"vm", "threads", "cycles/txn", "LLC miss rate",
                     "miss lat (cy)"});
    for (std::size_t v = 0; v < r.vms.size(); ++v) {
        const VmResult &vm = r.vms[v];
        table.addRow({toString(vm.kind) + " #" + std::to_string(v),
                      std::to_string(point.cfg.vmThreads[v]),
                      TextTable::num(vm.cyclesPerTransaction, 0),
                      TextTable::pct(vm.missRate),
                      TextTable::num(vm.avgMissLatency, 1)});
    }
    table.print(std::cout);
    std::cout << "\n";
    if (jrep.enabled()) {
        auto jpt = runResultJson(point.cfg, r);
        jpt.set("label", point.title);
        jrep.point(std::move(jpt));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace consim;
    using K = WorkloadKind;
    logging::setVerbose(false);

    printHeader(std::cout,
                "Extensions: paper SSVII future work",
                "dynamic scheduling; asymmetric thread counts; "
                "higher consolidation degree",
                "migration churn should cost cache affinity; bigger "
                "instances amplify intra-workload sharing");
    JsonReport jrep("ext_future_work", "Paper SSVII future work",
                    JsonReport::pathFromArgs(argc, argv));

    struct Migration
    {
        Cycle interval;
        const char *label;
    };
    const Migration migrations[] = {{0, "static (paper)"},
                                    {400'000, "every 400K cycles"},
                                    {100'000, "every 100K cycles"},
                                    {25'000, "every 25K cycles"}};
    const PerVm per_vm[] = {
        {"2) Asymmetric mix: 8-thread SPECjbb + 2x 4-thread "
         "TPC-H (affinity):",
         mixConfig({"", {K::SpecJbb, K::TpcH, K::TpcH}, {8, 4, 4}},
                   SchedPolicy::Affinity)},
        {"3) Higher degree: 2x 8-thread SPECjbb (affinity) -- "
         "compare with Mix C's 4x4:",
         mixConfig({"", {K::SpecJbb, K::SpecJbb}, {8, 8}},
                   SchedPolicy::Affinity)},
    };

    // One sweep over every table's points, rendered table by table.
    std::vector<RunConfig> configs;
    for (const auto &m : migrations) {
        configs.push_back(mixConfig(Mix::byName("Mix C"),
                                    SchedPolicy::Affinity,
                                    SharingDegree::Shared4));
        if (m.interval != 0)
            configs.back().dynSched = {DynSchedPolicy::Random,
                                       m.interval};
    }
    for (const auto &point : per_vm)
        configs.push_back(point.cfg);
    const auto results = benchSweepAveraged(configs, benchSeeds());

    std::cout << "1) Dynamic thread migration (Mix C, affinity "
                 "start, shared-4-way):\n";
    TextTable table({"migration interval", "cycles/txn",
                     "LLC miss rate", "miss lat (cy)"});
    const std::size_t n = std::size(migrations);
    for (std::size_t i = 0; i < n; ++i) {
        const RunResult &r = results[i];
        if (jrep.enabled()) {
            auto jpt = runResultJson(configs[i], r);
            jpt.set("label", migrations[i].label);
            jrep.point(std::move(jpt));
        }
        table.addRow(
            {migrations[i].label,
             TextTable::num(r.meanCyclesPerTxn(K::SpecJbb), 0),
             TextTable::pct(r.meanMissRate(K::SpecJbb)),
             TextTable::num(r.meanMissLatency(K::SpecJbb), 1)});
    }
    table.print(std::cout);
    std::cout << "\n";
    for (std::size_t i = 0; i < std::size(per_vm); ++i)
        printPerVm(per_vm[i], results[n + i], jrep);
    jrep.write();
    checkStdout();
    return 0;
}
