#include "exec/sweep.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/check.hh"
#include "common/parse.hh"

namespace consim
{

int
sweepJobs()
{
    // Strict parse: CONSIM_JOBS=garbage is fatal rather than silently
    // falling back to hardware_concurrency.
    const int jobs =
        envIntInRange("CONSIM_JOBS", 1, 4096, 0 /* unset */);
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

namespace
{

/** Run one point once, turning any exception into its outcome. */
SweepRun
runPoint(const RunConfig &cfg)
{
    SweepRun out;
    try {
        out.result = runExperiment(cfg);
        out.ok = true;
    } catch (const SimError &e) {
        out.errorKind = toString(e.kind());
        out.errorMessage = e.what();
        out.diag = e.diag();
        out.ckpt = e.ckpt();
    } catch (const std::exception &e) {
        out.errorKind = "exception";
        out.errorMessage = e.what();
    }
    return out;
}

} // namespace

std::vector<SweepRun>
runSweep(const std::vector<RunConfig> &configs, int jobs)
{
    std::vector<SweepRun> runs(configs.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t i = next++; i < configs.size(); i = next++)
            runs[i] = runPoint(configs[i]);
    };
    const std::size_t threads = std::min(
        static_cast<std::size_t>(jobs > 0 ? jobs : sweepJobs()),
        configs.size());
    if (threads <= 1) {
        // No threads: keep single-threaded sweeps trivially debuggable.
        worker();
        return runs;
    }
    // A jthread joins when destroyed, so every started thread is
    // joined before runs is read, or unwound if one fails to start.
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads; ++t)
        workers.emplace_back(worker);
    workers.clear();
    return runs;
}

} // namespace consim
