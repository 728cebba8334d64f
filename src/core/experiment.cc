#include "core/experiment.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "core/checkpoint.hh"
#include "core/scheduler.hh"

namespace consim
{

RunConfig
RunConfig::fromEnv()
{
    RunConfig cfg;
    if (const std::uint64_t w = envU64("CONSIM_WARMUP", 0))
        cfg.warmupCycles = w;
    if (const std::uint64_t m = envU64("CONSIM_MEASURE", 0))
        cfg.measureCycles = m;
    cfg.watchdogIntervalCycles =
        envU64("CONSIM_WATCHDOG", cfg.watchdogIntervalCycles);
    cfg.ckptEveryCycles = envU64("CONSIM_CKPT", cfg.ckptEveryCycles);
    cfg.timesliceCycles =
        envU64("CONSIM_TIMESLICE", cfg.timesliceCycles);
    return cfg;
}

double
RunResult::meanCyclesPerTxn(WorkloadKind kind) const
{
    double sum = 0.0;
    int n = 0;
    for (const auto &v : vms) {
        if (v.kind == kind) {
            sum += v.cyclesPerTransaction;
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

double
RunResult::meanMissRate(WorkloadKind kind) const
{
    double sum = 0.0;
    int n = 0;
    for (const auto &v : vms) {
        if (v.kind == kind) {
            sum += v.missRate;
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

double
RunResult::meanMissLatency(WorkloadKind kind) const
{
    double sum = 0.0;
    int n = 0;
    for (const auto &v : vms) {
        if (v.kind == kind) {
            sum += v.avgMissLatency;
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

namespace
{

// --- checkpoint context codec -------------------------------------
//
// The `consim.run.v1` config echo (core/report.cc) is a byte-stable
// PARTIAL view and must not grow fields; a resume instead needs every
// structural knob, so the checkpoint context carries its own complete
// field list. Enums travel as their integer values and the fault, QoS
// and dyn-sched plans as their grammar strings. The list checks each
// field's JSON form; MachineConfig::validate() checks the machine.

template <typename Io, typename M>
void
machineFields(Io &io, M &m)
{
    int sharing = coresPerGroup(m.sharing);
    int vnets = numVnets;
    io("mesh_x", m.meshX);
    io("mesh_y", m.meshY);
    io("l0_bytes", m.l0Bytes);
    io("l0_assoc", m.l0Assoc);
    io("l0_latency", m.l0Latency);
    io("l1_bytes", m.l1Bytes);
    io("l1_assoc", m.l1Assoc);
    io("l1_latency", m.l1Latency);
    io("l2_total_bytes", m.l2TotalBytes);
    io("l2_assoc", m.l2Assoc);
    io("l2_latency", m.l2Latency);
    io("sharing", sharing);
    io("mem_latency", m.memLatency);
    io("num_mem_ctrls", m.numMemCtrls);
    io("mem_issue_interval", m.memIssueInterval);
    io("mem_overlap_latency", m.memOverlapLatency);
    io("dir_cache_enabled", m.dirCacheEnabled);
    io("dir_cache_entries", m.dirCacheEntries);
    io("dir_cache_assoc", m.dirCacheAssoc);
    io("dir_latency", m.dirLatency);
    io("clean_forwarding", m.cleanForwarding);
    io("ideal_noc", m.idealNoc);
    io("ideal_noc_latency", m.idealNocLatency);
    io("flat_intra_group", m.flatIntraGroup);
    io("intra_group_latency", m.intraGroupLatency);
    io("flit_bytes", m.flitBytes);
    io("vcs_per_vnet", m.vcsPerVnet);
    io("vc_buffer_flits", m.vcBufferFlits);
    // The protocol has three virtual networks; the field keeps the
    // v5 text.
    io("num_vnets", vnets, ckpt::Dom{numVnets, numVnets});
    if constexpr (Io::loading)
        m.sharing = sharingDegree(sharing);
}

/** Plan @p spec, a @p what spec in T's grammar, parsed. */
template <typename T>
T
parsedSpec(const std::string &spec, const char *what)
{
    T out;
    std::string err;
    const bool ok = T::parse(spec, out, &err);
    CONSIM_ASSERT(ok, "checkpoint context: bad ", what, " spec '", spec,
                  "': ", err);
    return out;
}

template <typename Io, typename C>
void
configFields(Io &io, C &cfg)
{
    io.record("machine", cfg.machine,
              [](auto &io, auto &m) { machineFields(io, m); }, true);
    io.list("workloads", cfg.workloads, [](auto &io, auto &k, std::size_t) {
        io("", k, ckpt::span(WorkloadKind::TpcW, WorkloadKind::Bursty));
    });
    // 0 takes the profile's thread count; the CLI caps a VM at 4096.
    io.list("vm_threads", cfg.vmThreads, [](auto &io, auto &t, std::size_t) {
        io("", t, ckpt::Dom{0, 4096});
    });
    io("policy", cfg.policy,
       ckpt::span(SchedPolicy::RoundRobin, SchedPolicy::Random));
    io("seed", cfg.seed);
    io("warmup_cycles", cfg.warmupCycles);
    io("measure_cycles", cfg.measureCycles);
    // Optional: absent in checkpoints from before over-commit.
    if (io.has("timeslice_cycles", true))
        io("timeslice_cycles", cfg.timesliceCycles);
    io("watchdog_interval_cycles", cfg.watchdogIntervalCycles);
    io("cycle_deadline", cfg.cycleDeadline);
    io("ckpt_every_cycles", cfg.ckptEveryCycles);
    std::string faults = cfg.faults.spec();
    std::string qos = cfg.qos.spec();
    std::string dyn = cfg.dynSched.spec();
    io("faults", faults);
    io("qos", qos);
    io("dyn_sched", dyn);
    if constexpr (Io::loading) {
        cfg.faults = parsedSpec<FaultPlan>(faults, "fault");
        cfg.qos = parsedSpec<QosConfig>(qos, "qos");
        cfg.dynSched = parsedSpec<DynSchedConfig>(dyn, "dyn-sched");
    }
}

// --- experiment rig and phase driver ------------------------------

/** The pieces a System borrows: VM storage and thread placements. */
struct ExperimentRig
{
    std::vector<std::unique_ptr<VirtualMachine>> storage;
    std::vector<VirtualMachine *> vms;
    std::vector<ThreadPlacement> placements;
};

/** Build VMs + placements for @p cfg; deterministic in cfg alone. */
ExperimentRig
buildRig(const RunConfig &cfg)
{
    ExperimentRig rig;
    CONSIM_ASSERT(cfg.vmThreads.empty() ||
                      cfg.vmThreads.size() == cfg.workloads.size(),
                  "vmThreads must be empty or give one entry per VM (",
                  cfg.vmThreads.size(), " entries for ",
                  cfg.workloads.size(), " VMs)");
    // The run's VM-window width is the smallest that fits the
    // largest instance (requiredVmSpanBits): runs whose VMs all fit
    // the default keep byte-identical addresses to the fixed-width
    // implementation, and over-committed scale runs (say 96 threads
    // per VM at 256 cores) widen every window in lockstep.
    std::uint64_t max_blocks = 0;
    for (std::size_t i = 0; i < cfg.workloads.size(); ++i) {
        const auto &prof = WorkloadProfile::get(cfg.workloads[i]);
        const auto nthreads = static_cast<std::uint64_t>(
            i < cfg.vmThreads.size() && cfg.vmThreads[i] > 0
                ? cfg.vmThreads[i]
                : prof.numThreads);
        max_blocks = std::max(
            max_blocks, prof.sharedRoBlocks + prof.migratoryBlocks +
                            nthreads * prof.privateBlocksPerThread);
    }
    const int span_bits = requiredVmSpanBits(max_blocks);
    std::vector<int> threads_per_vm;
    for (std::size_t i = 0; i < cfg.workloads.size(); ++i) {
        const auto &prof = WorkloadProfile::get(cfg.workloads[i]);
        const int nthreads =
            i < cfg.vmThreads.size() ? cfg.vmThreads[i] : 0;
        rig.storage.push_back(std::make_unique<VirtualMachine>(
            prof, static_cast<VmId>(i),
            cfg.seed * 1000003ull + i * 7919ull, nthreads,
            span_bits));
        rig.vms.push_back(rig.storage.back().get());
        threads_per_vm.push_back(rig.storage.back()->numThreads());
    }
    rig.placements = scheduleThreads(cfg.machine, threads_per_vm,
                                     cfg.policy, cfg.seed);
    return rig;
}

/** Experiment context embedded verbatim in periodic snapshots. */
json::Value
phaseContext(const RunConfig &cfg, const char *phase)
{
    ckpt::Save config(true);
    configFields(config, cfg);
    auto ctx = json::Value::object();
    ctx.set("config", std::move(config.v));
    ctx.set("phase", phase);
    return ctx;
}

/**
 * Read the paper's metrics out of the hierarchical stats registry
 * ("sys.vmNN.*", "sys.net.*") rather than component structs, so
 * RunResult and every other registry consumer (dumpStats, JSON
 * export) see exactly the same numbers by construction.
 */
RunResult
extractResult(System &sys, const std::vector<VirtualMachine *> &vms,
              Cycle measure)
{
    const stats::Group &root = sys.statsRoot();
    RunResult out;
    out.measuredCycles = measure;
    for (auto *vm : vms) {
        const stats::Group *g =
            root.findGroup(indexedName("vm", vm->id()));
        CONSIM_ASSERT(g, "registry: no group for vm ", vm->id());
        const auto counter = [g](const char *name) {
            const stats::Counter *c = g->findCounter(name);
            CONSIM_ASSERT(c, "registry: vm counter '", name,
                          "' missing");
            return c->value();
        };
        VmResult r;
        r.kind = vm->profile().kind;
        r.transactions = counter("transactions");
        r.instructions = counter("instructions");
        r.l1Misses = counter("l1_misses");
        r.l2Accesses = counter("l2_accesses");
        r.l2Misses = counter("l2_misses");
        r.c2cClean = counter("c2c_clean");
        r.c2cDirty = counter("c2c_dirty");
        r.mcThrottleStalls = counter("mc_throttle_stalls");
        r.distinctBlocks = vm->distinctBlocks();
        r.cyclesPerTransaction =
            r.transactions
                ? static_cast<double>(measure) /
                      static_cast<double>(r.transactions)
                : static_cast<double>(measure);
        r.missRate = r.l2Accesses
                         ? static_cast<double>(r.l2Misses) /
                               static_cast<double>(r.l2Accesses)
                         : 0.0;
        const stats::Average *lat = g->findAverage("miss_latency");
        CONSIM_ASSERT(lat, "registry: vm miss_latency missing");
        r.avgMissLatency = lat->mean();
        const std::uint64_t c2c = r.c2cClean + r.c2cDirty;
        r.c2cFraction = r.l2Misses
                            ? static_cast<double>(c2c) /
                                  static_cast<double>(r.l2Misses)
                            : 0.0;
        r.c2cDirtyShare = c2c ? static_cast<double>(r.c2cDirty) /
                                    static_cast<double>(c2c)
                              : 0.0;
        out.vms.push_back(r);
    }
    const stats::Average *net_lat = root.findAverage("net.latency");
    const stats::Counter *net_pkts =
        root.findCounter("net.packets_ejected");
    CONSIM_ASSERT(net_lat && net_pkts, "registry: net stats missing");
    out.netAvgLatency = net_lat->mean();
    out.netPackets = net_pkts->value();
    out.replication = sys.replicationSnapshot();
    out.occupancy = sys.occupancySnapshot();
    out.dynMigrations = sys.dynMigrations();
    return out;
}

/**
 * The one run driver behind runExperiment and resumeExperiment. A
 * fresh run (@p ckpt null) arms the fault plan and the cycle deadline
 * and starts at ("warmup", 0). A resume restores @p ckpt instead and
 * continues from its context's phase and the restored clock (see
 * resumeExperiment for why neither faults nor deadline are re-armed).
 */
RunResult
drive(const RunConfig &cfg, const json::Value *ckpt,
      const std::function<void(const System &)> &after)
{
    // The placement reads the group shape, so the machine is checked
    // before anything is built from it.
    cfg.machine.validate();
    ExperimentRig rig = buildRig(cfg);
    System sys(cfg.machine, rig.vms, rig.placements);
    // QoS and dyn-sched go in before a restore: the loaders check the
    // MC token-bucket layout, the repartitioner and the epoch
    // baselines against an already-configured machine, then
    // overwrite their mutable parts.
    if (cfg.qos.enabled())
        sys.setQosConfig(cfg.qos);
    if (cfg.dynSched.enabled())
        sys.setDynSched(cfg.dynSched, cfg.seed);
    std::string phase = "warmup";
    if (ckpt) {
        const check::InputScope input;
        sys.restoreCheckpoint(*ckpt);
        phase = ckptField(ckptField(*ckpt, "context"), "phase").str();
        const Cycle now = sys.now();
        if (phase == "warmup") {
            CONSIM_ASSERT(now <= cfg.warmupCycles,
                          "resume: checkpoint clock ", now,
                          " past the warmup window");
        } else {
            CONSIM_ASSERT(phase == "measure",
                          "resume: unknown checkpoint phase '", phase,
                          "'");
            CONSIM_ASSERT(now >= cfg.warmupCycles &&
                              now - cfg.warmupCycles <= cfg.measureCycles,
                          "resume: checkpoint clock ", now,
                          " outside the measurement window");
        }
    } else {
        if (!cfg.faults.empty())
            sys.setFaultPlan(cfg.faults);
        if (cfg.cycleDeadline != 0)
            sys.setCycleDeadline(cfg.cycleDeadline);
    }
    // Armed against the (restored) clock; a wedged resume still trips.
    sys.setWatchdogInterval(cfg.watchdogIntervalCycles);
    if (cfg.timesliceCycles != 0)
        sys.setTimeslice(cfg.timesliceCycles);
    if (cfg.ckptEveryCycles != 0)
        sys.setCheckpointInterval(cfg.ckptEveryCycles);

    // Cross-component audits fire at measurement-window boundaries
    // when CONSIM_CHECK=full; they are free otherwise.
    const auto audit = [&] {
        if (CONSIM_CHECK_ACTIVE(Full))
            sys.auditWindow();
    };
    // Each phase is one run() call; snapshots inside it carry the
    // phase in their context.
    const auto runPhase = [&](const char *name, Cycle cycles) {
        sys.setCheckpointContext(phaseContext(cfg, name));
        sys.run(cycles);
    };
    const Cycle now = sys.now();
    if (phase == "warmup") {
        runPhase("warmup", cfg.warmupCycles - now);
        audit();
        sys.resetStats();
        runPhase("measure", cfg.measureCycles);
    } else {
        runPhase("measure", cfg.warmupCycles + cfg.measureCycles - now);
    }
    audit();
    if (after)
        after(sys);
    return extractResult(sys, rig.vms, cfg.measureCycles);
}

} // namespace

RunResult
runExperiment(const RunConfig &cfg,
              const std::function<void(const System &)> &after)
{
    return drive(cfg, nullptr, after);
}

RunConfig
configFromCheckpoint(const json::Value &ckpt)
{
    const check::InputScope input;
    const json::Value *ctx = ckpt.find("context");
    CONSIM_ASSERT(ctx && ctx->find("config"),
                  "checkpoint has no experiment context (saved outside "
                  "runExperiment?); cannot seed a resume");
    // Older builds' --migrate runs swapped threads off an RNG the
    // context carried; a zero interval is a non-migrating run.
    const json::Value &config = ckptField(*ctx, "config");
    const json::Value *interval = config.find("migration_interval_cycles");
    CONSIM_ASSERT(!ctx->find("mig_rng") &&
                      (!interval || interval->asUint() == 0),
                  "checkpoint comes from a --migrate run, whose swaps "
                  "no current run reproduces, so it cannot resume; "
                  "random migration is now --dyn-sched random,epoch=N "
                  "— re-run with it to take a fresh snapshot");
    RunConfig cfg;
    ckpt::Load io(config, "checkpoint context: bad config record", "", true);
    configFields(io, cfg);
    return cfg;
}

RunResult
resumeExperiment(const json::Value &ckpt)
{
    // The schema first: an older document may lack the context the
    // config is read from.
    checkCkptSchema(ckpt);
    return drive(configFromCheckpoint(ckpt), &ckpt, {});
}

RunResult
averageRunResults(std::vector<RunResult> runs)
{
    CONSIM_ASSERT(!runs.empty(), "need at least one run");
    RunResult acc = std::move(runs.front());
    double packets = static_cast<double>(acc.netPackets);
    for (std::size_t r = 1; r < runs.size(); ++r) {
        const RunResult &b = runs[r];
        CONSIM_ASSERT(b.vms.size() == acc.vms.size(),
                      "seed runs disagree on VM count");
        for (std::size_t i = 0; i < b.vms.size(); ++i) {
            auto &a = acc.vms[i];
            const auto &v = b.vms[i];
            a.transactions += v.transactions;
            a.instructions += v.instructions;
            a.l1Misses += v.l1Misses;
            a.l2Accesses += v.l2Accesses;
            a.l2Misses += v.l2Misses;
            a.c2cClean += v.c2cClean;
            a.c2cDirty += v.c2cDirty;
            a.mcThrottleStalls += v.mcThrottleStalls;
            a.cyclesPerTransaction += v.cyclesPerTransaction;
            a.missRate += v.missRate;
            a.avgMissLatency += v.avgMissLatency;
            a.c2cFraction += v.c2cFraction;
            a.c2cDirtyShare += v.c2cDirtyShare;
            a.slowdownVsIsolated += v.slowdownVsIsolated;
        }
        acc.netAvgLatency += b.netAvgLatency;
        packets += static_cast<double>(b.netPackets);
        acc.dynMigrations += b.dynMigrations;
    }
    const double n = static_cast<double>(runs.size());
    for (auto &v : acc.vms) {
        v.cyclesPerTransaction /= n;
        v.missRate /= n;
        v.avgMissLatency /= n;
        v.c2cFraction /= n;
        v.c2cDirtyShare /= n;
        v.slowdownVsIsolated /= n;
    }
    acc.netAvgLatency /= n;
    acc.netPackets = static_cast<std::uint64_t>(packets / n + 0.5);
    acc.seedsUsed = static_cast<int>(runs.size());
    // acc.replication / acc.occupancy keep the first run's snapshot
    // (see RunResult docs).
    return acc;
}

RunConfig
isolationConfig(WorkloadKind kind, SchedPolicy policy,
                SharingDegree sharing)
{
    RunConfig cfg = RunConfig::fromEnv();
    cfg.machine.sharing = sharing;
    cfg.workloads = {kind};
    cfg.policy = policy;
    return cfg;
}

RunConfig
mixConfig(const Mix &mix, SchedPolicy policy, SharingDegree sharing)
{
    RunConfig cfg = RunConfig::fromEnv();
    cfg.machine.sharing = sharing;
    cfg.workloads = mix.vms;
    cfg.vmThreads = mix.threads;
    cfg.policy = policy;
    return cfg;
}

} // namespace consim
