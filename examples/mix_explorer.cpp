/**
 * @file
 * Mix explorer: run any Table IV mix under a chosen scheduling
 * policy and sharing degree, and print the full per-VM picture --
 * performance, miss behaviour, c2c breakdown, replication, and the
 * per-partition occupancy snapshot (the data behind Figs. 12/13).
 *
 * Usage:
 *   mix_explorer ["Mix 5"] [rr|affinity|aff-rr|random] [1|2|4|8|16]
 *
 * Example:
 *   ./build/examples/mix_explorer "Mix 7" rr 4
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "common/table.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/report.hh"

namespace
{

consim::SchedPolicy
parsePolicy(const std::string &s)
{
    using consim::SchedPolicy;
    if (s == "rr")
        return SchedPolicy::RoundRobin;
    if (s == "affinity")
        return SchedPolicy::Affinity;
    if (s == "aff-rr")
        return SchedPolicy::AffinityRR;
    if (s == "random")
        return SchedPolicy::Random;
    std::cerr << "unknown policy '" << s
              << "' (rr|affinity|aff-rr|random)\n";
    std::exit(1);
}

consim::SharingDegree
parseSharing(const std::string &s)
{
    using consim::SharingDegree;
    switch (std::atoi(s.c_str())) {
      case 1:
        return SharingDegree::Private;
      case 2:
        return SharingDegree::Shared2;
      case 4:
        return SharingDegree::Shared4;
      case 8:
        return SharingDegree::Shared8;
      case 16:
        return SharingDegree::Shared16;
    }
    std::cerr << "unknown sharing degree '" << s
              << "' (1|2|4|8|16 cores per L2)\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace consim;

    const std::string mix_name = argc > 1 ? argv[1] : "Mix 5";
    const SchedPolicy policy =
        argc > 2 ? parsePolicy(argv[2]) : SchedPolicy::Affinity;
    const SharingDegree sharing =
        argc > 3 ? parseSharing(argv[3]) : SharingDegree::Shared4;

    const Mix &mix = Mix::byName(mix_name);
    RunConfig cfg = mixConfig(mix, policy, sharing);
    cfg.warmupCycles = 1'000'000;
    cfg.measureCycles = 1'000'000;

    std::cout << "Running " << mix.name << " with "
              << toString(policy) << " scheduling on "
              << toString(sharing) << " caches...\n\n";
    const RunResult r = runExperiment(cfg);

    TextTable vm_table({"vm", "cycles/txn", "LLC miss rate",
                        "miss lat (cy)", "c2c of misses",
                        "c2c dirty share"});
    for (std::size_t i = 0; i < r.vms.size(); ++i) {
        const auto &v = r.vms[i];
        vm_table.addRow({toString(v.kind) + " #" + std::to_string(i),
                         TextTable::num(v.cyclesPerTransaction, 0),
                         TextTable::pct(v.missRate),
                         TextTable::num(v.avgMissLatency, 1),
                         TextTable::pct(v.c2cFraction),
                         TextTable::pct(v.c2cDirtyShare)});
    }
    vm_table.print(std::cout);

    std::cout << "\nInterconnect: avg packet latency "
              << TextTable::num(r.netAvgLatency, 1) << " cycles over "
              << r.netPackets << " packets\n";
    std::cout << "Replication: "
              << TextTable::pct(r.replication.replicatedFraction())
              << " of valid LLC lines have a copy in another "
                 "partition\n\n";

    std::cout << "Per-partition occupancy (rows = VMs):\n";
    std::vector<std::string> headers = {"vm"};
    for (std::size_t g = 0; g < r.occupancy.lines.size(); ++g) {
        std::string header = "$";
        header += std::to_string(g);
        headers.push_back(std::move(header));
    }
    TextTable occ(headers);
    for (std::size_t vm = 0; vm < r.vms.size(); ++vm) {
        std::vector<std::string> row = {toString(r.vms[vm].kind) +
                                        " #" + std::to_string(vm)};
        for (std::size_t g = 0; g < r.occupancy.lines.size(); ++g) {
            row.push_back(TextTable::pct(
                r.occupancy.share(static_cast<GroupId>(g),
                                  static_cast<VmId>(vm)),
                0));
        }
        occ.addRow(std::move(row));
    }
    occ.print(std::cout);
    checkStdout();
    return 0;
}
