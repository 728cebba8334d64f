/**
 * @file
 * Capacity planner: the server-consolidation sizing question from
 * the paper's introduction. Given a latency-critical workload and a
 * candidate co-runner, sweep the cache-sharing degree (the key
 * design knob of SS III) and report how much the workload's
 * performance and miss latency suffer at each point -- the data a
 * designer needs to trade isolation against utilization.
 *
 * Usage: capacity_planner [jbb|tpcw|tpch|web] [jbb|tpcw|tpch|web]
 * Default: SPECjbb protected, TPC-W co-runner (the paper's worst
 * pairing, Mixes 7-9).
 */

#include <iostream>
#include <string>

#include "common/table.hh"
#include "core/experiment.hh"
#include "core/report.hh"

namespace
{

consim::WorkloadKind
parseKind(const std::string &s)
{
    using consim::WorkloadKind;
    if (s == "jbb")
        return WorkloadKind::SpecJbb;
    if (s == "tpcw")
        return WorkloadKind::TpcW;
    if (s == "tpch")
        return WorkloadKind::TpcH;
    if (s == "web")
        return WorkloadKind::SpecWeb;
    std::cerr << "unknown workload '" << s
              << "' (jbb|tpcw|tpch|web)\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace consim;

    const WorkloadKind protectee =
        argc > 1 ? parseKind(argv[1]) : WorkloadKind::SpecJbb;
    const WorkloadKind corunner =
        argc > 2 ? parseKind(argv[2]) : WorkloadKind::TpcW;

    std::cout << "Consolidating 2x " << toString(protectee)
              << " with 2x " << toString(corunner)
              << " (affinity scheduling); protecting "
              << toString(protectee) << "\n\n";

    RunConfig base = RunConfig::fromEnv();
    base.workloads = {protectee, protectee, corunner, corunner};
    base.policy = SchedPolicy::Affinity;
    base.warmupCycles = 1'500'000;
    base.measureCycles = 1'500'000;

    RunConfig iso_cfg = isolationConfig(
        protectee, SchedPolicy::Affinity, SharingDegree::Shared16);
    iso_cfg.warmupCycles = base.warmupCycles;
    iso_cfg.measureCycles = base.measureCycles;
    const RunResult iso_run = runExperiment(iso_cfg);
    struct
    {
        double cyclesPerTxn;
    } iso{iso_run.meanCyclesPerTxn(protectee)};

    TextTable table({"sharing degree", "slowdown", "miss rate",
                     "miss lat (cy)", "occupancy share"});
    for (auto sharing :
         {SharingDegree::Private, SharingDegree::Shared2,
          SharingDegree::Shared4, SharingDegree::Shared8,
          SharingDegree::Shared16}) {
        RunConfig cfg = base;
        cfg.machine.sharing = sharing;
        const RunResult r = runExperiment(cfg);

        // Mean occupancy share of the protected VMs across caches.
        double occ = 0.0;
        int cells = 0;
        for (std::size_t g = 0; g < r.occupancy.lines.size(); ++g) {
            for (VmId vm = 0; vm < 2; ++vm) {
                occ += r.occupancy.share(static_cast<GroupId>(g), vm);
                ++cells;
            }
        }
        table.addRow(
            {toString(sharing),
             TextTable::num(r.meanCyclesPerTxn(protectee) /
                                iso.cyclesPerTxn,
                            2),
             TextTable::pct(r.meanMissRate(protectee)),
             TextTable::num(r.meanMissLatency(protectee), 1),
             TextTable::pct(cells ? occ / cells : 0.0)});
    }
    table.print(std::cout);
    std::cout << "\n(slowdown vs " << toString(protectee)
              << " alone with the 16MB fully-shared L2; smaller "
                 "partitions isolate, larger ones pool capacity)\n";
    checkStdout();
    return 0;
}
