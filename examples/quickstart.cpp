/**
 * @file
 * Quickstart: consolidate four SPECjbb instances (Mix C) on the
 * 16-core CMP with shared-4-way caches, compare two scheduling
 * policies, and print the paper's three metrics per VM.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   CONSIM_WARMUP=200000 CONSIM_MEASURE=200000 ./build/examples/quickstart
 *
 * It takes no argument (any exits 2). The windows come from the
 * environment through mixConfig (RunConfig::fromEnv), 4M + 3M cycles
 * by default.
 */

#include <iostream>

#include "common/table.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/report.hh"

int
main(int argc, char **argv)
{
    using namespace consim;

    if (argc > 1) {
        std::cerr << "error: unexpected argument '" << argv[1]
                  << "'\nusage: quickstart\n";
        return 2;
    }

    std::cout << "consim quickstart: Mix C (4x SPECjbb), "
                 "shared-4-way L2, 16-core mesh CMP\n\n";

    TextTable table({"policy", "vm", "cycles/txn", "LLC miss rate",
                     "avg miss latency (cy)"});

    for (auto policy : {SchedPolicy::Affinity, SchedPolicy::RoundRobin}) {
        const RunResult result = runExperiment(mixConfig(
            Mix::byName("Mix C"), policy, SharingDegree::Shared4));

        for (std::size_t i = 0; i < result.vms.size(); ++i) {
            const auto &vm = result.vms[i];
            table.addRow({toString(policy),
                          toString(vm.kind) + " #" + std::to_string(i),
                          TextTable::num(vm.cyclesPerTransaction, 0),
                          TextTable::pct(vm.missRate),
                          TextTable::num(vm.avgMissLatency, 1)});
        }
        table.addSeparator();
    }

    table.print(std::cout);
    std::cout << "\nAffinity packs each workload into one quadrant "
                 "(sharing, low replication);\nround-robin spreads "
                 "threads chip-wide (capacity, more replication).\n";
    checkStdout();
    return 0;
}
