/**
 * @file
 * Regenerates every table of the evaluation: the paper's Table II
 * and Figs. 2-13, then Figs. 14, 15 and 17, the protocol and NoC
 * ablations and the future-work extensions.
 *
 *   paper_figures [<id>...] [--json <dir>]
 *
 * With no ids it renders all nineteen; ids are table2, fig2 ... fig15,
 * fig17, ablation_protocol, ablation_noc and ext_future_work, and
 * tables always print in that order. Every distinct simulation point
 * the selected tables read runs once, on one parallel sweep (see
 * figures.hh). `--json <dir>` writes each table's consim.bench.v1
 * document to `<dir>/<id>.json`. CONSIM_WARMUP, CONSIM_MEASURE (and
 * the other RunConfig::fromEnv knobs) shrink the windows, except
 * fig15's (500k + 1M) and fig17's (200k + 600k, 1.2M on the bursty
 * chip), which are fixed; CONSIM_SEEDS=N averages every point but the
 * Fig. 12-13 snapshots over N seeds.
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
    checkStdout();
    return 0;
}
