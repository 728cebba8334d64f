/**
 * @file
 * Scale-out extension (beyond the paper): the consolidation study
 * replayed on larger chips. Sweeps 16-core (4x4), 32-core (8x4) and
 * 64-core (8x8) meshes across the five sharing degrees, with the VM
 * count scaled to keep the chip exactly fully committed, plus one
 * heterogeneous consolidation point per scaled-out chip mixing 2-,
 * 4- and 8-thread VMs (the paper's VMs are uniformly 4-threaded).
 *
 * Expected shape: the paper's sharing-degree tradeoff (private
 * degrees isolate but replicate; shared degrees pool capacity but
 * interfere) persists at 32 and 64 cores, while average miss latency
 * grows with mesh diameter; heterogeneous VM sizes stress the
 * affinity scheduler's packing without changing the tradeoff.
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

struct Chip
{
    int meshX;
    int meshY;
    int cores() const { return meshX * meshY; }
    std::string name() const
    {
        return std::to_string(meshX) + "x" + std::to_string(meshY);
    }
};

/** Fully committed homogeneous-size load: cores/16 copies of the
 *  paper's 4-VM consolidation (each VM 4-threaded). */
std::vector<WorkloadKind>
scaledWorkloads(int cores)
{
    const WorkloadKind base[] = {WorkloadKind::SpecJbb,
                                 WorkloadKind::TpcW, WorkloadKind::TpcH,
                                 WorkloadKind::SpecWeb};
    std::vector<WorkloadKind> out;
    for (int i = 0; i < cores / 4; ++i)
        out.push_back(base[i % 4]);
    return out;
}

/** Heterogeneous consolidation: 8-, 4- and 2-thread VMs filling
 *  @p cores exactly (two 8s, two 4s, four 2s per 32 cores). */
void
heteroMix(int cores, std::vector<WorkloadKind> &workloads,
          std::vector<int> &threads)
{
    const WorkloadKind kinds[] = {WorkloadKind::SpecJbb,
                                  WorkloadKind::TpcW, WorkloadKind::TpcH,
                                  WorkloadKind::SpecWeb};
    const int sizes[] = {8, 8, 4, 4, 2, 2, 2, 2}; // sums to 32
    int placed = 0, i = 0;
    while (placed < cores) {
        const int t = sizes[i % 8];
        workloads.push_back(kinds[i % 4]);
        threads.push_back(t);
        placed += t;
        ++i;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    logging::setVerbose(false);

    printHeader(std::cout,
                "Fig 14: Consolidation at Scale (16 / 32 / 64 cores)",
                "scale-out extension (no paper counterpart; paper "
                "machine is the 16-core point)",
                "sharing-degree tradeoff persists at 32/64 cores; "
                "miss latency grows with mesh diameter");
    JsonReport jrep("fig14", "Consolidation at Scale",
                    JsonReport::pathFromArgs(argc, argv));

    const Chip chips[] = {{4, 4}, {8, 4}, {8, 8}};
    const int degrees[] = {1, 2, 4, 8, 16};

    // Homogeneous-size sweep: every chip x every degree, plus one
    // heterogeneous 2/4/8-thread point per scaled-out chip, all in
    // one parallel sweep.
    std::vector<RunConfig> configs;
    std::vector<std::string> labels;
    std::vector<bool> hetero;
    for (const Chip &chip : chips) {
        for (const int degree : degrees) {
            RunConfig cfg = RunConfig::fromEnv();
            cfg.machine.meshX = chip.meshX;
            cfg.machine.meshY = chip.meshY;
            cfg.machine.sharing = sharingDegree(degree);
            cfg.workloads = scaledWorkloads(chip.cores());
            configs.push_back(cfg);
            labels.push_back(chip.name());
            hetero.push_back(false);
        }
        if (chip.cores() > 16) {
            RunConfig cfg = RunConfig::fromEnv();
            cfg.machine.meshX = chip.meshX;
            cfg.machine.meshY = chip.meshY;
            cfg.machine.sharing = sharingDegree(4);
            heteroMix(chip.cores(), cfg.workloads, cfg.vmThreads);
            configs.push_back(cfg);
            labels.push_back(chip.name() + " hetero");
            hetero.push_back(true);
        }
    }
    const auto results = benchSweepAveraged(configs, benchSeeds());

    TextTable table({"chip", "cores", "sharing", "VMs",
                     "cycles/txn (mean)", "miss latency", "net latency"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const RunConfig &cfg = configs[i];
        const RunResult &r = results[i];
        double cpt = 0.0, lat = 0.0;
        for (const auto &v : r.vms) {
            cpt += v.cyclesPerTransaction;
            lat += v.avgMissLatency;
        }
        const double n = static_cast<double>(r.vms.size());
        table.addRow({labels[i],
                      std::to_string(cfg.machine.numCores()),
                      toString(cfg.machine.sharing),
                      std::to_string(cfg.workloads.size()),
                      TextTable::num(cpt / n, 1),
                      TextTable::num(lat / n, 1),
                      TextTable::num(r.netAvgLatency, 1)});
        if (jrep.enabled()) {
            auto jpt = runResultJson(cfg, r);
            jpt.set("cores", cfg.machine.numCores());
            jpt.set("mesh",
                    std::to_string(cfg.machine.meshX) + "x" +
                        std::to_string(cfg.machine.meshY));
            jpt.set("cores_per_group",
                    coresPerGroup(cfg.machine.sharing));
            jpt.set("heterogeneous", static_cast<bool>(hetero[i]));
            jrep.point(std::move(jpt));
        }
    }
    table.print(std::cout);
    std::cout << "\n(16-core rows replay the paper's machine; 32/64-"
                 "core rows scale the consolidation load with the "
                 "chip)\n";
    jrep.write();
    checkStdout();
    return 0;
}
