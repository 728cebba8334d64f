/**
 * @file
 * Sweep engine: run many independent simulation points in parallel.
 *
 * Every paper figure is a sweep over independent
 * (mix x sharing-degree x policy x seed) points; each point is a
 * self-contained single-threaded System, so host-level parallelism
 * is embarrassingly available. runSweep runs each config exactly
 * once, under its own seed, on up to CONSIM_JOBS host threads
 * (default hardware_concurrency), and returns outcomes positionally.
 *
 * Determinism contract: a simulation's result depends only on its
 * RunConfig (including seed) — never on which host thread ran it,
 * the sweep's batch composition, or execution order. runSweep output
 * is therefore bit-identical to calling runExperiment serially on
 * the same configs (tests/test_determinism.cc enforces this).
 */

#ifndef CONSIM_EXEC_SWEEP_HH
#define CONSIM_EXEC_SWEEP_HH

#include <string>
#include <vector>

#include "core/experiment.hh"

namespace consim
{

/**
 * @return the default worker count: CONSIM_JOBS (strict parse; a
 * malformed value is fatal), else std::thread::hardware_concurrency.
 */
int sweepJobs();

/**
 * Outcome of one crash-isolated sweep point: its result, or why its
 * one run failed (a SimError from a tripped checker, watchdog or
 * deadline, or any other exception). A failure touches no other point.
 */
struct SweepRun
{
    bool ok = false;
    RunResult result;         ///< valid when ok
    std::string errorKind;    ///< "invariant"|"watchdog"|"deadline"|
                              ///< "exception" (when !ok)
    std::string errorMessage; ///< exception what() (when !ok)
    std::string diag;         ///< consim.diag.v1 text ("" if none)
    /** `consim.ckpt.v5` text of the last pre-trip snapshot ("" when
     *  snapshotting was off or the point succeeded), resumable with
     *  resumeExperiment / --resume. */
    std::string ckpt;
};

/**
 * Run every config once on min(@p jobs, configs.size()) threads
 * (@p jobs 0 = sweepJobs(); one thread runs inline) and return the
 * outcomes positionally: runs[i] belongs to configs[i]. Never throws
 * for a point failure.
 */
std::vector<SweepRun> runSweep(const std::vector<RunConfig> &configs,
                               int jobs = 0);

} // namespace consim

#endif // CONSIM_EXEC_SWEEP_HH
