/**
 * @file
 * Policy advisor: the hypervisor-operator scenario the paper's
 * conclusions motivate. For a given consolidation mix, evaluate all
 * four scheduling policies and report which one minimizes mean
 * slowdown -- and which one is fairest (smallest spread between the
 * most- and least-slowed VM), since the paper argues consolidation
 * needs performance isolation, not just functional isolation.
 *
 * Usage: policy_advisor ["Mix 8"]
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <limits>
#include <string>

#include "common/table.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/report.hh"

int
main(int argc, char **argv)
{
    using namespace consim;

    const std::string mix_name = argc > 1 ? argv[1] : "Mix 8";
    const Mix &mix = Mix::byName(mix_name);

    std::cout << "Advising scheduling policy for " << mix.name
              << " (";
    for (std::size_t i = 0; i < mix.vms.size(); ++i)
        std::cout << (i ? ", " : "") << toString(mix.vms[i]);
    std::cout << ") on shared-4-way caches\n\n";

    const SchedPolicy policies[] = {
        SchedPolicy::RoundRobin, SchedPolicy::Affinity,
        SchedPolicy::AffinityRR, SchedPolicy::Random};

    // Per-kind isolation baselines with the same windows as the mix
    // runs, so the ratios compare like with like.
    std::map<WorkloadKind, double> baseline;
    for (auto kind : mix.vms) {
        if (baseline.count(kind))
            continue;
        RunConfig iso = isolationConfig(kind, SchedPolicy::Affinity,
                                        SharingDegree::Shared16);
        iso.warmupCycles = 1'500'000;
        iso.measureCycles = 1'500'000;
        const RunResult r = runExperiment(iso);
        baseline[kind] = r.meanCyclesPerTxn(kind);
    }

    TextTable table({"policy", "mean slowdown", "worst slowdown",
                     "fairness spread"});
    SchedPolicy best_mean = policies[0];
    SchedPolicy best_fair = policies[0];
    double best_mean_v = std::numeric_limits<double>::max();
    double best_fair_v = std::numeric_limits<double>::max();

    for (auto policy : policies) {
        RunConfig cfg = mixConfig(mix, policy, SharingDegree::Shared4);
        cfg.warmupCycles = 1'500'000;
        cfg.measureCycles = 1'500'000;
        const RunResult r = runExperiment(cfg);

        double mean = 0.0;
        double worst = 0.0;
        double best = std::numeric_limits<double>::max();
        for (const auto &v : r.vms) {
            const double slow =
                v.cyclesPerTransaction / baseline.at(v.kind);
            mean += slow;
            worst = std::max(worst, slow);
            best = std::min(best, slow);
        }
        mean /= static_cast<double>(r.vms.size());
        const double spread = worst - best;

        table.addRow({toString(policy), TextTable::num(mean, 2),
                      TextTable::num(worst, 2),
                      TextTable::num(spread, 2)});
        if (mean < best_mean_v) {
            best_mean_v = mean;
            best_mean = policy;
        }
        if (spread < best_fair_v) {
            best_fair_v = spread;
            best_fair = policy;
        }
    }
    table.print(std::cout);
    std::cout << "\nBest throughput: " << toString(best_mean)
              << " (mean slowdown "
              << TextTable::num(best_mean_v, 2) << ")\n";
    std::cout << "Fairest:         " << toString(best_fair)
              << " (spread " << TextTable::num(best_fair_v, 2)
              << ")\n";
    std::cout << "\n(slowdown = cycles/txn vs the VM alone with the "
                 "16MB fully-shared L2)\n";
    checkStdout();
    return 0;
}
