/**
 * @file
 * fig16_scale256: the consolidation study replayed at 128 and 256
 * cores with over-committed schedules (schema consim.bench.v1).
 *
 * The paper stops at a 16-core chip; the scale extension asks what
 * the same four-VM consolidation looks like when the chip grows to
 * 128 (16x8 mesh) and 256 (16x16 mesh) tiles and the hypervisor
 * over-commits it — every scale point schedules 1.5x as many VM
 * threads as cores, so each core multiplexes contexts on the
 * round-robin timeslice (see Core::enqueueContext). The bench
 * reports simulator throughput (simulated cycles per wall-second,
 * median-of-3) and aggregate guest progress per point;
 * EXPERIMENTS.md records these numbers (nothing gates on them).
 *
 * Knobs: CONSIM_SCALE_CYCLES (measurement window per point, default
 * 40000; warmup is half that).
 *
 * Output (one line on stdout):
 *   {"schema":"consim.bench.v1","bench":"fig16_scale256",
 *    "host_cpus":N,"cpu_model":"...","loadavg_1m":...,
 *    "timing_reps":3,
 *    "points":[{"cores":128,"mesh":"16x8","vm_threads":192,
 *               "sim_cycles":...,"sim_wall_s":...,
 *               "cycles_per_sec":...,"instructions":...,
 *               "transactions":...}, {"cores":256,...}]}
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/report.hh"

namespace
{

using namespace consim;

Cycle
scaleCycles()
{
    // Strict: a malformed CONSIM_SCALE_CYCLES is fatal, not silently
    // the default window (which would fake a perf regression/gain).
    const std::uint64_t v = envU64("CONSIM_SCALE_CYCLES", 0);
    return v ? v : 40'000;
}

struct ScalePoint
{
    int meshX;
    int meshY;
};

} // namespace

int
main()
{
    logging::setVerbose(false);
    const Cycle cycles = scaleCycles();
    constexpr int timingReps = 3;

    const std::vector<ScalePoint> points = {{16, 8}, {16, 16}};
    std::vector<RunConfig> configs;
    for (const ScalePoint &point : points) {
        // 1.5x over-commit, split evenly over the mix's four VMs.
        const int per_vm = point.meshX * point.meshY * 3 / 2 / 4;
        RunConfig cfg = mixConfig(Mix::byName("Mix 1"),
                                  SchedPolicy::Affinity,
                                  SharingDegree::Shared16);
        cfg.machine.meshX = point.meshX;
        cfg.machine.meshY = point.meshY;
        cfg.vmThreads = {per_vm, per_vm, per_vm, per_vm};
        cfg.seed = 13;
        cfg.warmupCycles = cycles / 2;
        cfg.measureCycles = cycles;
        configs.push_back(cfg);
    }
    // The reported runs go through the bench sweep, so a failed point
    // exits 1 with its config echo; the timed repeats below are the
    // same deterministic runs.
    const std::vector<RunResult> results = benchSweep(configs);

    std::printf("{\"schema\":\"consim.bench.v1\","
                "\"bench\":\"fig16_scale256\",");
    benchutil::printHostMeta();
    std::printf(",\"timing_reps\":%d,\"points\":[", timingReps);
    for (std::size_t pi = 0; pi < configs.size(); ++pi) {
        const RunConfig &cfg = configs[pi];
        const double wall = benchutil::medianWall(
            timingReps, [&] { (void)runExperiment(cfg); });
        const Cycle simulated = cfg.warmupCycles + cfg.measureCycles;
        const double cps =
            wall > 0.0 ? static_cast<double>(simulated) / wall : 0.0;

        unsigned long long instr = 0, txns = 0;
        for (const auto &vm : results[pi].vms) {
            instr += vm.instructions;
            txns += vm.transactions;
        }
        std::printf(
            "%s{\"cores\":%d,\"mesh\":\"%dx%d\",\"vm_threads\":%d,"
            "\"sim_cycles\":%llu,\"sim_wall_s\":%.3f,"
            "\"cycles_per_sec\":%.0f,\"instructions\":%llu,"
            "\"transactions\":%llu}",
            pi ? "," : "", cfg.machine.numCores(), cfg.machine.meshX,
            cfg.machine.meshY, 4 * cfg.vmThreads[0],
            static_cast<unsigned long long>(simulated), wall, cps, instr,
            txns);
    }
    std::printf("]}\n");
    return 0;
}
