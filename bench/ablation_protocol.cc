/**
 * @file
 * Ablations on the coherence protocol design choices DESIGN.md calls
 * out:
 *
 *  1. Clean forwarding (a Shared sharer supplies data cache-to-cache)
 *     vs classic Origin (memory supplies clean data). The paper's
 *     workloads are dominated by *clean* c2c transfers (Table II), so
 *     clean forwarding is what makes them latency-tolerant on chip.
 *
 *  2. Per-tile directory caches vs none (every home lookup fetches
 *     directory state off-chip). The paper augments each core with a
 *     directory cache "to reduce the number of off-chip references".
 *
 * Each ablation runs a c2c-heavy point (TPC-H isolated, private L2s)
 * and a consolidated point (Mix 5 affinity, shared-4-way).
 */

#include <iostream>
#include <iterator>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "core/report.hh"

namespace
{

using namespace consim;

struct Grid
{
    const char *title;
    RunConfig base;
    WorkloadKind focus;
};

/** Rows per grid: clean forwarding x directory cache, on then off. */
constexpr std::size_t kPerGrid = 4;

/** Print @p grid from its kPerGrid configs and results. */
void
printGrid(const Grid &grid, const RunConfig *configs,
          const RunResult *results, JsonReport &jrep)
{
    TextTable table({"clean fwd", "dir cache", "miss lat (cy)",
                     "cycles/txn", "c2c fraction"});
    for (std::size_t i = 0; i < kPerGrid; ++i) {
        const RunConfig &cfg = configs[i];
        const RunResult &r = results[i];
        double c2c = 0.0;
        int n = 0;
        for (const auto &v : r.vms) {
            if (v.kind == grid.focus) {
                c2c += v.c2cFraction;
                ++n;
            }
        }
        table.addRow({cfg.machine.cleanForwarding ? "on" : "off",
                      cfg.machine.dirCacheEnabled ? "on" : "off",
                      TextTable::num(r.meanMissLatency(grid.focus), 1),
                      TextTable::num(r.meanCyclesPerTxn(grid.focus), 0),
                      TextTable::pct(n ? c2c / n : 0.0, 0)});
        if (jrep.enabled()) {
            auto jpt = runResultJson(cfg, r);
            jpt.set("label", grid.title);
            jpt.set("focus", toString(grid.focus));
            jrep.point(std::move(jpt));
        }
    }
    std::cout << grid.title << "\n";
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace consim;
    logging::setVerbose(false);

    printHeader(std::cout, "Ablation: protocol design choices",
                "DESIGN.md ablation index",
                "clean forwarding should cut miss latency for "
                "c2c-heavy workloads; directory caches should cut "
                "latency everywhere");
    JsonReport jrep("ablation_protocol", "Protocol design choices",
                    JsonReport::pathFromArgs(argc, argv));

    const Grid grids[] = {
        {"TPC-H isolated, private L2s (c2c-heavy):",
         isolationConfig(WorkloadKind::TpcH, SchedPolicy::RoundRobin,
                         SharingDegree::Private),
         WorkloadKind::TpcH},
        {"Mix 5 (2x SPECjbb + 2x TPC-H), affinity, shared-4-way "
         "(SPECjbb metrics):",
         mixConfig(Mix::byName("Mix 5"), SchedPolicy::Affinity,
                   SharingDegree::Shared4),
         WorkloadKind::SpecJbb},
    };

    // One sweep over both grids, rendered grid by grid.
    std::vector<RunConfig> configs;
    for (const Grid &grid : grids) {
        for (bool clean_fwd : {true, false}) {
            for (bool dir_cache : {true, false}) {
                configs.push_back(grid.base);
                configs.back().machine.cleanForwarding = clean_fwd;
                configs.back().machine.dirCacheEnabled = dir_cache;
            }
        }
    }
    const auto results = benchSweepAveraged(configs, benchSeeds());
    for (std::size_t g = 0; g < std::size(grids); ++g)
        printGrid(grids[g], &configs[g * kPerGrid],
                  &results[g * kPerGrid], jrep);
    jrep.write();
    checkStdout();
    return 0;
}
