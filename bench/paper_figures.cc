/**
 * @file
 * Regenerates the paper's evaluation: Table II and Figs. 2-13.
 *
 *   paper_figures [<id>...] [--json <dir>]
 *
 * With no ids it renders all thirteen; ids are table2, fig2 ... fig13,
 * and figures always print in paper order. Every distinct simulation
 * point the selected figures read runs once, on one parallel sweep
 * (see figures.hh). `--json <dir>` writes each figure's
 * consim.bench.v1 document to `<dir>/<id>.json`. CONSIM_WARMUP,
 * CONSIM_MEASURE (and the other RunConfig::fromEnv knobs) shrink the
 * windows; CONSIM_SEEDS=N averages every point but the Fig. 12-13
 * snapshots over N seeds.
 */

#include <filesystem>
#include <iostream>
#include <system_error>

#include "common/logging.hh"
#include "figures.hh"

int
main(int argc, char **argv)
{
    using namespace consim;
    logging::setVerbose(false);

    std::string dir;
    const auto figs = paper::parseArgs(argc, argv, dir);
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec)
            CONSIM_FATAL("cannot create JSON directory ", dir, ": ",
                         ec.message());
    }
    for (const auto &fig :
         paper::regenerate(figs, RunConfig::fromEnv(), benchSeeds(), dir)) {
        std::cout << fig.text;
        fig.json.write();
    }
    return 0;
}
