/**
 * @file
 * perf_smoke: the simulator's performance trajectory in one JSON
 * line (schema consim.bench.v1). Measures (a) single-simulation
 * throughput in simulated cycles per wall-second (exercises the
 * calendar-queue event core), timed median-of-3 so one slow outlier
 * on a shared runner cannot fake a regression, (b) wall time for an
 * 8-config sweep run serially vs. on the parallel sweep engine, and
 * (c) a 64-core (8x8 mesh) consolidation point, also median-of-3, so
 * the trajectory tracks the scale path and not only the paper's
 * 16-core chip. Nothing gates on these numbers: tools/ci.sh only
 * requires the bench to run, and the same-host A/B
 * (tools/perf_ab.sh) is the perf gate. The envelope carries host
 * metadata (CPU model, load average) so a slow reading can be told
 * apart from a busy host.
 *
 * Knobs: CONSIM_PERF_CYCLES (measurement window per sim, default
 * 300000), CONSIM_JOBS (sweep parallelism, default
 * hardware_concurrency).
 *
 * Output (one line on stdout):
 *   {"schema":"consim.bench.v1","bench":"perf_smoke",
 *    "host_cpus":N,"cpu_model":"...","loadavg_1m":...,
 *    "timing_reps":3,"sim_cycles":...,"sim_wall_s":...,
 *    "cycles_per_sec":...,"sweep_configs":8,"sweep_serial_s":...,
 *    "sweep_parallel_s":...,"sweep_speedup":...,"jobs":N,
 *    "cores_64":{"mesh":"8x8","sim_cycles":...,"sim_wall_s":...,
 *                "cycles_per_sec":...}}
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "exec/sweep.hh"

namespace
{

using namespace consim;
using benchutil::medianWall;
using benchutil::seconds;

Cycle
perfCycles()
{
    // Strict: a malformed CONSIM_PERF_CYCLES is fatal, not silently
    // the default window (which would fake a perf regression/gain).
    const std::uint64_t v = envU64("CONSIM_PERF_CYCLES", 0);
    return v ? v : 300'000;
}

} // namespace

int
main()
{
    logging::setVerbose(false);
    const Cycle cycles = perfCycles();

    // --- single-sim throughput (event core hot path) ---
    // A consolidated 4-VM mix keeps all 16 cores busy so the event
    // queue sees realistic pressure. Median of three runs: the sim
    // is deterministic, so the repeats only differ by host noise.
    constexpr int timingReps = 3;
    RunConfig single = mixConfig(Mix::byName("Mix 1"),
                                 SchedPolicy::Affinity,
                                 SharingDegree::Shared4);
    single.warmupCycles = cycles / 2;
    single.measureCycles = cycles;
    const double sim_wall = medianWall(
        timingReps, [&] { (void)runExperiment(single); });
    const Cycle simulated = single.warmupCycles + single.measureCycles;
    const double cps =
        sim_wall > 0.0 ? static_cast<double>(simulated) / sim_wall
                       : 0.0;

    // --- sweep scaling: 8 configs, serial vs parallel ---
    std::vector<RunConfig> sweep;
    for (auto policy :
         {SchedPolicy::Affinity, SchedPolicy::RoundRobin}) {
        for (auto kind :
             {WorkloadKind::TpcW, WorkloadKind::TpcH,
              WorkloadKind::SpecJbb, WorkloadKind::SpecWeb}) {
            RunConfig cfg = isolationConfig(kind, policy);
            cfg.warmupCycles = cycles / 2;
            cfg.measureCycles = cycles;
            sweep.push_back(cfg);
        }
    }

    const auto t1 = std::chrono::steady_clock::now();
    const auto serial_runs = runSweep(sweep, 1);
    const auto t2 = std::chrono::steady_clock::now();
    const auto parallel_runs = runSweep(sweep);
    const auto t3 = std::chrono::steady_clock::now();

    // Paranoia: every point ran, and the parallel engine reproduces
    // the serial runs.
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        CONSIM_ASSERT(serial_runs[i].ok && parallel_runs[i].ok,
                      "sweep config ", i, " failed");
        CONSIM_ASSERT(serial_runs[i].result.netPackets ==
                          parallel_runs[i].result.netPackets,
                      "parallel sweep diverged from serial at config ",
                      i);
    }

    const double serial_s = seconds(t2 - t1);
    const double parallel_s = seconds(t3 - t2);
    const double speedup =
        parallel_s > 0.0 ? serial_s / parallel_s : 0.0;

    // --- 64-core consolidation point (8x8 mesh, 4 x 16 threads) ---
    // A quarter of the 16-core window keeps the wall time comparable
    // (the machine has 4x the tiles to tick per cycle).
    RunConfig big = mixConfig(Mix::byName("Mix 1"),
                              SchedPolicy::Affinity,
                              SharingDegree::Shared8);
    big.machine.meshX = 8;
    big.machine.meshY = 8;
    big.vmThreads = {16, 16, 16, 16};
    big.warmupCycles = cycles / 8;
    big.measureCycles = cycles / 4;
    const Cycle big_cycles = big.warmupCycles + big.measureCycles;
    const double big_wall = medianWall(
        timingReps, [&] { (void)runExperiment(big); });
    const double big_cps =
        big_wall > 0.0 ? static_cast<double>(big_cycles) / big_wall
                       : 0.0;

    std::printf(
        "{\"schema\":\"consim.bench.v1\",\"bench\":\"perf_smoke\",");
    benchutil::printHostMeta();
    std::printf(
        ",\"timing_reps\":%d,\"sim_cycles\":%llu,"
        "\"sim_wall_s\":%.3f,\"cycles_per_sec\":%.0f,"
        "\"sweep_configs\":%zu,\"sweep_serial_s\":%.3f,"
        "\"sweep_parallel_s\":%.3f,\"sweep_speedup\":%.2f,"
        "\"jobs\":%d,"
        "\"cores_64\":{\"mesh\":\"8x8\",\"sim_cycles\":%llu,"
        "\"sim_wall_s\":%.3f,\"cycles_per_sec\":%.0f}}\n",
        timingReps, static_cast<unsigned long long>(simulated),
        sim_wall, cps, sweep.size(), serial_s, parallel_s, speedup,
        sweepJobs(), static_cast<unsigned long long>(big_cycles),
        big_wall, big_cps);
    return 0;
}
