/**
 * @file
 * The paper's evaluation (Table II, Figs. 2-13) as data. A Figure
 * names the points it reads and renders its table and its
 * consim.bench.v1 document from their runs. regenerate() takes the
 * union of the selected figures' points, runs each distinct
 * (point, seed) once on one sweep, and renders every figure from the
 * shared runs. bench/paper_figures is the command-line front end.
 */

#ifndef CONSIM_BENCH_FIGURES_HH
#define CONSIM_BENCH_FIGURES_HH

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"

namespace consim::paper
{

/**
 * What defines a paper point. Everything else (windows, watchdog,
 * seed) comes from the base config the driver is given, so every
 * figure that reads the same Point reads the same run.
 */
struct Point
{
    std::vector<WorkloadKind> workloads; ///< one entry per VM
    std::vector<int> threads;            ///< RunConfig::vmThreads
    SchedPolicy policy = SchedPolicy::Affinity;
    SharingDegree sharing = SharingDegree::Shared16;

    auto operator<=>(const Point &) const = default;

    /** @p base with this point's workloads, threads, policy and
     *  sharing degree. */
    RunConfig config(const RunConfig &base) const;
};

/** The runs one figure renders from, by point. */
struct Runs
{
    RunConfig base;
    std::map<Point, RunResult> results;

    const RunResult &at(const Point &p) const { return results.at(p); }

    /** The run.v1 envelope of @p p: config echo plus result. */
    json::Value envelope(const Point &p) const;
};

/** One table or figure of the paper's evaluation. */
struct Figure
{
    std::string id;       ///< command-line and bench.v1 id ("fig2")
    std::string title;    ///< bench.v1 title
    std::string heading;  ///< printed section title
    std::string paperRef; ///< the "reproduces:" line
    std::string shape;    ///< the "paper shape:" line
    std::string footer;   ///< printed after the body
    /** Read seed 1's run instead of the seed average: end-of-run
     *  snapshots are not averaged (see RunResult). */
    bool firstSeed = false;
    std::vector<Point> points = {}; ///< every point the body reads
    /** Print the table(s) and add the bench.v1 points. */
    std::function<void(const Runs &, std::ostream &, JsonReport &)>
        body = {};
};

/** Table II and Figs. 2-13, in paper order. */
const std::vector<Figure> &figures();

/** One simulation: a point under one seed. */
struct Run
{
    Point point;
    std::uint64_t seed = 1;

    auto operator<=>(const Run &) const = default;
};

/** Every distinct run @p figs read under @p seeds, in first-use
 *  order. */
std::vector<Run> plan(const std::vector<const Figure *> &figs,
                      const std::vector<std::uint64_t> &seeds);

/** One rendered figure: its stdout section and bench.v1 document. */
struct Rendered
{
    std::string text;
    JsonReport json;
};

/**
 * Run plan(@p figs, @p seeds) over @p base as one sweep and render
 * each figure from the shared runs, in the order given. A run that
 * still fails after the sweep's retries is fatal: its config echo,
 * error kind and message go to stderr and the process exits 1 before
 * any figure renders. Each Rendered::json writes
 * `<jsonDir>/<id>.json` ("" = nowhere).
 */
std::vector<Rendered> regenerate(const std::vector<const Figure *> &figs,
                                 const RunConfig &base,
                                 const std::vector<std::uint64_t> &seeds,
                                 const std::string &jsonDir = "");

/**
 * Parse `[<id>...] [--json <dir>]` under the strict bench-argv rule
 * (see jsonArg): an unknown id exits 2. @return the named figures in
 * paper order, or all of them when none is named.
 */
std::vector<const Figure *> parseArgs(int argc, char **argv,
                                      std::string &jsonDir);

} // namespace consim::paper

#endif // CONSIM_BENCH_FIGURES_HH
