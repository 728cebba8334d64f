/**
 * @file
 * Interconnect ablation: the flit-level 2-D mesh vs an idealized
 * fixed-latency network, across scheduling policies. Isolates how
 * much of the scheduling-policy gap comes from interconnect
 * congestion and distance rather than cache behaviour.
 *
 * The paper observes that round-robin placement spreads traffic and
 * achieves ~20% lower interconnect latency than affinity for TPC-W;
 * with an ideal network that congestion component disappears.
 */

#include <iostream>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "core/report.hh"

int
main(int argc, char **argv)
{
    using namespace consim;
    logging::setVerbose(false);

    printHeader(std::cout, "Ablation: mesh vs ideal interconnect",
                "DESIGN.md ablation index; paper SS V-A interconnect "
                "latency discussion",
                "the RR-vs-affinity network-latency gap exists only "
                "on the real mesh");
    JsonReport jrep("ablation_noc", "Mesh vs ideal interconnect",
                    JsonReport::pathFromArgs(argc, argv));

    TextTable table({"workload/mix", "network", "policy",
                     "net latency (cy)", "miss lat (cy)",
                     "cycles/txn"});

    struct Case
    {
        const char *label;
        RunConfig cfg;
        WorkloadKind focus;
    };
    const Case cases[] = {
        {"TPC-W isolated 4-way",
         isolationConfig(WorkloadKind::TpcW, SchedPolicy::Affinity,
                         SharingDegree::Shared4),
         WorkloadKind::TpcW},
        {"Mix C (4x SPECjbb) 4-way",
         mixConfig(Mix::byName("Mix C"), SchedPolicy::Affinity,
                   SharingDegree::Shared4),
         WorkloadKind::SpecJbb},
    };

    // One sweep over every (case, network, policy) point, rendered
    // in the same order: kPerCase rows per case.
    constexpr std::size_t kPerCase = 4; // {mesh, ideal} x 2 policies
    std::vector<RunConfig> configs;
    for (const auto &c : cases) {
        for (bool ideal : {false, true}) {
            for (auto policy :
                 {SchedPolicy::Affinity, SchedPolicy::RoundRobin}) {
                configs.push_back(c.cfg);
                configs.back().machine.idealNoc = ideal;
                configs.back().policy = policy;
            }
        }
    }
    const auto results = benchSweepAveraged(configs, benchSeeds());

    for (std::size_t i = 0; i < configs.size(); ++i) {
        const RunConfig &cfg = configs[i];
        const RunResult &r = results[i];
        const Case &c = cases[i / kPerCase];
        const bool ideal = cfg.machine.idealNoc;
        table.addRow({c.label, ideal ? "ideal" : "mesh",
                      toString(cfg.policy),
                      TextTable::num(r.netAvgLatency, 1),
                      TextTable::num(r.meanMissLatency(c.focus), 1),
                      TextTable::num(r.meanCyclesPerTxn(c.focus), 0)});
        if (jrep.enabled()) {
            auto jpt = runResultJson(cfg, r);
            jpt.set("label", c.label);
            jpt.set("network", ideal ? "ideal" : "mesh");
            jrep.point(std::move(jpt));
        }
        if (i % kPerCase == kPerCase - 1)
            table.addSeparator();
    }
    table.print(std::cout);
    std::cout << "\n(ideal = fixed-latency, infinite-bandwidth "
                 "network; mesh = 4x4 VC wormhole mesh)\n";
    jrep.write();
    checkStdout();
    return 0;
}
