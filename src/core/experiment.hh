/**
 * @file
 * Experiment driver: builds a System for a workload mix + schedule +
 * cache configuration, runs warmup and a measurement window, and
 * extracts the paper's metrics. Multi-seed averaging implements the
 * statistical-simulation discipline of Alameldeen & Wood that the
 * paper follows (§V).
 */

#ifndef CONSIM_CORE_EXPERIMENT_HH
#define CONSIM_CORE_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "core/fault.hh"
#include "core/mix.hh"
#include "core/qos.hh"
#include "core/system.hh"
#include "workload/profile.hh"

namespace consim
{

/**
 * Everything that defines one simulation point. Every field means
 * what it says: runExperiment reads no environment, so a config
 * built by hand runs exactly as written. The run knobs enter only
 * through fromEnv(), which front ends, mixConfig and isolationConfig
 * start from.
 */
struct RunConfig
{
    MachineConfig machine;
    std::vector<WorkloadKind> workloads; ///< one entry per VM
    /** Per-VM thread-count overrides for heterogeneous mixes. Empty =
     *  profile defaults for every VM; otherwise one entry per VM,
     *  where 0 keeps that VM's profile default. Echoed in the run.v1
     *  config only when non-empty (envelope byte-stability). */
    std::vector<int> vmThreads;
    SchedPolicy policy = SchedPolicy::Affinity;
    std::uint64_t seed = 1;
    Cycle warmupCycles = 4'000'000;  ///< warmup window (cycles)
    Cycle measureCycles = 3'000'000; ///< measurement window (cycles)
    /** Preemption quantum for over-committed cores (schedules with
     *  more VM threads than cores). 0 = Core::kDefaultTimesliceCycles.
     *  Ignored when no core holds more than one thread. */
    Cycle timesliceCycles = 0;
    /** Deterministic fault injection (hardening tests; empty = none). */
    FaultPlan faults;
    /** Per-VM QoS / isolation config (mode off = no QoS, the
     *  default). Echoed in the run.v1 config only when enabled
     *  (envelope byte-stability). */
    QosConfig qos;
    /** Dynamic hypervisor scheduling: an online migration policy
     *  re-evaluated every epoch (policy off = static binding, the
     *  paper's methodology; `random` is the paper's SSVII thread
     *  migration). Echoed in the run.v1 config only when enabled
     *  (envelope byte-stability). */
    DynSchedConfig dynSched;
    /** Forward-progress watchdog check interval (cycles; 0 = off).
     *  Echoed in the run.v1 config only when it departs the default. */
    Cycle watchdogIntervalCycles = 1'000'000;
    /** Per-point simulated-cycle budget: run() raises
     *  SimError(Deadline) past this absolute cycle. 0 = none. */
    Cycle cycleDeadline = 0;
    /** Periodic checkpoint interval: take a `consim.ckpt.v5`
     *  snapshot every this many cycles and attach the most recent
     *  one to watchdog/deadline SimErrors. 0 = off. */
    Cycle ckptEveryCycles = 0;

    /**
     * The defaults above, overridden by CONSIM_WARMUP, CONSIM_MEASURE,
     * CONSIM_WATCHDOG, CONSIM_CKPT and CONSIM_TIMESLICE: the only
     * reader of those knobs. A malformed value is fatal; "0" keeps
     * the default window (a zero-cycle window cannot be asked for)
     * and turns the watchdog or snapshots off.
     */
    static RunConfig fromEnv();
};

/** Metrics for one VM instance in one run. */
struct VmResult
{
    WorkloadKind kind = WorkloadKind::TpcW;
    std::uint64_t transactions = 0;
    std::uint64_t instructions = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t c2cClean = 0;
    std::uint64_t c2cDirty = 0;
    std::uint64_t distinctBlocks = 0;
    /** Memory reads delayed by QoS token-bucket throttling (0 when
     *  QoS is off; reported in run.v1 only when nonzero). */
    std::uint64_t mcThrottleStalls = 0;

    double cyclesPerTransaction = 0.0;
    double missRate = 0.0;       ///< VM-level LLC miss rate
    double avgMissLatency = 0.0; ///< L1-miss latency (cycles)
    double c2cFraction = 0.0;    ///< of LLC misses
    double c2cDirtyShare = 0.0;  ///< of c2c transfers
    /** cyclesPerTransaction relative to the same workload running
     *  alone on the machine (filled by callers that measure an
     *  isolated baseline, e.g. paper_figures fig15; 0 = not
     *  computed; reported in run.v1 only when nonzero). */
    double slowdownVsIsolated = 0.0;
};

/**
 * Metrics for one full run.
 *
 * Multi-seed aggregation semantics (averageRunResults):
 *  - Raw per-VM event counters (transactions, instructions, l1Misses,
 *    l2Accesses, l2Misses, c2cClean, c2cDirty) are SUMMED across
 *    seeds — they stay exact totals over all measured windows.
 *  - Derived per-VM rates/latencies (cyclesPerTransaction, missRate,
 *    avgMissLatency, c2cFraction, c2cDirtyShare) are AVERAGED
 *    (arithmetic mean over seeds).
 *  - netAvgLatency and netPackets are AVERAGED (netPackets rounds to
 *    the nearest integer).
 *  - replication / occupancy snapshots are end-of-run state walks and
 *    are NOT averaged: they are taken verbatim from the first seed's
 *    run (averaging line-count histograms across divergent cache
 *    states has no physical meaning).
 */
struct RunResult
{
    std::vector<VmResult> vms;
    Cycle measuredCycles = 0;
    double netAvgLatency = 0.0;
    std::uint64_t netPackets = 0;
    ReplicationSnapshot replication;
    OccupancySnapshot occupancy;
    /** Thread migrations the dynamic scheduler performed (summed
     *  across seeds; reported in run.v1 only when nonzero). */
    std::uint64_t dynMigrations = 0;
    /** Seed runs folded into this result by averageRunResults (0 = a
     *  single un-averaged run; reported as `seeds_used` in JSON when
     *  nonzero). */
    int seedsUsed = 0;

    /** Mean metric over all instances of @p kind in this run. */
    double meanCyclesPerTxn(WorkloadKind kind) const;
    double meanMissRate(WorkloadKind kind) const;
    double meanMissLatency(WorkloadKind kind) const;
};

/**
 * Run one simulation point. @p after, when set, sees the live machine
 * once the measurement window (and its audit) has finished, for
 * callers that read more than the RunResult carries.
 */
RunResult
runExperiment(const RunConfig &cfg,
              const std::function<void(const System &)> &after = {});

/**
 * Recover the RunConfig embedded in a `consim.ckpt.v5` document's
 * experiment context: exactly the config originally passed to
 * runExperiment, suitable for a byte-identical `consim.run.v1` echo.
 * Fatal-asserts when @p ckpt was saved outside the experiment driver
 * (no context), or by a `--migrate` run of an older build (a nonzero
 * `migration_interval_cycles` or a `mig_rng` key), which no current
 * run can continue.
 */
RunConfig configFromCheckpoint(const json::Value &ckpt);

/**
 * Finish an interrupted run from a `consim.ckpt.v5` document produced
 * by runExperiment's periodic snapshotting: rebuild the System from
 * the embedded config, restore the machine state, and complete the
 * remaining warmup/measurement phases. Yields a RunResult — and hence
 * a `consim.run.v1` report — byte-identical to the uninterrupted run.
 *
 * The fault plan is intentionally NOT re-armed: one-shot faults that
 * already fired are baked into the restored state, and pending wedge
 * events ride in the serialized event queue. The watchdog and the
 * snapshot interval are re-armed from the config; the cycle deadline
 * is not (its budget was consumed by the original attempt, and the
 * restored clock typically sits at or past it — a resume exists to
 * finish the remaining work).
 */
RunResult resumeExperiment(const json::Value &ckpt);

/**
 * Reduce per-seed runs of one config into a single RunResult (see
 * RunResult for the per-field sum/average/first-seed semantics).
 * @p runs must all come from the same config and be non-empty.
 */
RunResult averageRunResults(std::vector<RunResult> runs);

/**
 * Paper baseline: one workload in isolation on the 16-core chip with
 * the full 16 MB fully-shared LLC (its four threads spread per the
 * default placement). Starts from RunConfig::fromEnv(), as does
 * mixConfig.
 */
RunConfig isolationConfig(WorkloadKind kind,
                          SchedPolicy policy = SchedPolicy::Affinity,
                          SharingDegree sharing = SharingDegree::Shared16);

/** A consolidated mix on the standard machine. */
RunConfig mixConfig(const Mix &mix, SchedPolicy policy,
                    SharingDegree sharing = SharingDegree::Shared4);

} // namespace consim

#endif // CONSIM_CORE_EXPERIMENT_HH
