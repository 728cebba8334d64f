/**
 * @file
 * Reporting helpers for the table driver and consim_run: the bench
 * seed set, the driver's one sweep with its one failure exit, section
 * headers, the standard-output check, strict bench argv, and the
 * shared JSON result format (schema-versioned, config echo +
 * registry-derived metrics) that paper_figures and consim_run emit
 * behind --json.
 */

#ifndef CONSIM_CORE_REPORT_HH
#define CONSIM_CORE_REPORT_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/experiment.hh"

namespace consim
{

/** @return the standard seed set used by the bench harness. */
const std::vector<std::uint64_t> &benchSeeds();

/**
 * Run a bench's configs as one sweep (runSweep) and return the
 * results positionally. A failed run is fatal: each failed run's
 * config echo, error kind and message go to stderr, and the process
 * exits 1 before the bench renders anything.
 */
std::vector<RunResult> benchSweep(const std::vector<RunConfig> &configs);

/** Print a titled section header for bench output. */
void printHeader(std::ostream &os, const std::string &title,
                 const std::string &paper_ref,
                 const std::string &expectation);

/**
 * Flush standard output and exit 1, naming it, when any of its text
 * was lost (a full disk, a failing device). Front ends that print
 * their result call it before a successful exit.
 */
void checkStdout();

// --- structured (JSON) results ------------------------------------
//
// One shared format for every front end. Schemas:
//   consim.run.v1   {schema, config, result}        (one point)
//   consim.bench.v1 {schema, id, title, points}     (one table)
// All numbers are written with shortest-round-trip formatting, so
// bit-identical results produce byte-identical documents.

/** Config echo: the machine knobs that define a simulation point. */
json::Value toJson(const MachineConfig &m);

/** Full point definition: machine + workloads + policy + windows. */
json::Value toJson(const RunConfig &cfg);

/** Per-VM metrics (registry-derived; see VmResult). */
json::Value toJson(const VmResult &v);

/** Whole-run metrics, including replication/occupancy snapshots. */
json::Value toJson(const RunResult &r);

/** Schema-versioned envelope for one run: config echo + result. */
json::Value runResultJson(const RunConfig &cfg, const RunResult &r);

/**
 * Strict bench argv: at most one `--json <value>`, and every other
 * argument must be accepted by @p operand (none is, when it is
 * empty). A refused argument, a second --json or a --json without a
 * value prints the reason and @p usage to stderr and exits 2.
 * @return the --json value ("" when absent).
 */
std::string
jsonArg(int argc, char **argv, const std::string &usage,
        const std::function<bool(const std::string &)> &operand = {});

/**
 * Accumulates a table's data points and writes one consim.bench.v1
 * document on an explicit write(). With an empty path, write() is a
 * no-op, so a front end can call it unconditionally.
 */
class JsonReport
{
  public:
    /** @param id machine-readable bench id, e.g. "fig2" */
    JsonReport(std::string id, std::string title, std::string path);

    bool enabled() const { return !path_.empty(); }

    /** Set an extra top-level field on the document. */
    void set(const std::string &key, json::Value v);

    /** Append one data point (typically runResultJson + labels). */
    void point(json::Value v);

    /** The document as write() stores it: two-space indent and a
     *  trailing newline. */
    std::string text() const;

    /** Write text() to the path (none when disabled); fatal on I/O
     *  failure. */
    void write() const;

  private:
    std::string path_;
    json::Value doc_;
};

} // namespace consim

#endif // CONSIM_CORE_REPORT_HH
