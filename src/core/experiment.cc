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
// codec. Enums travel as their integer values (no inverse string
// parsers exist) and the fault plan as its grammar string, which
// round-trips through FaultPlan::parse.

const json::Value &
ctxGet(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    CONSIM_ASSERT(v, "checkpoint context: missing key '", key, "'");
    return *v;
}

int
ctxInt(const json::Value &obj, const char *key)
{
    return static_cast<int>(ctxGet(obj, key).number());
}

json::Value
machineCtxJson(const MachineConfig &m)
{
    auto v = json::Value::object();
    v.set("mesh_x", m.meshX);
    v.set("mesh_y", m.meshY);
    v.set("l0_bytes", m.l0Bytes);
    v.set("l0_assoc", m.l0Assoc);
    v.set("l0_latency", m.l0Latency);
    v.set("l1_bytes", m.l1Bytes);
    v.set("l1_assoc", m.l1Assoc);
    v.set("l1_latency", m.l1Latency);
    v.set("l2_total_bytes", m.l2TotalBytes);
    v.set("l2_assoc", m.l2Assoc);
    v.set("l2_latency", m.l2Latency);
    v.set("sharing", coresPerGroup(m.sharing));
    v.set("mem_latency", m.memLatency);
    v.set("num_mem_ctrls", m.numMemCtrls);
    v.set("mem_issue_interval", m.memIssueInterval);
    v.set("mem_overlap_latency", m.memOverlapLatency);
    v.set("dir_cache_enabled", m.dirCacheEnabled);
    v.set("dir_cache_entries", m.dirCacheEntries);
    v.set("dir_cache_assoc", m.dirCacheAssoc);
    v.set("dir_latency", m.dirLatency);
    v.set("clean_forwarding", m.cleanForwarding);
    v.set("ideal_noc", m.idealNoc);
    v.set("ideal_noc_latency", m.idealNocLatency);
    v.set("flat_intra_group", m.flatIntraGroup);
    v.set("intra_group_latency", m.intraGroupLatency);
    v.set("flit_bytes", m.flitBytes);
    v.set("vcs_per_vnet", m.vcsPerVnet);
    v.set("vc_buffer_flits", m.vcBufferFlits);
    v.set("num_vnets", numVnets);
    return v;
}

MachineConfig
machineFromCtx(const json::Value &v)
{
    MachineConfig m;
    m.meshX = ctxInt(v, "mesh_x");
    m.meshY = ctxInt(v, "mesh_y");
    m.l0Bytes = ctxGet(v, "l0_bytes").asUint();
    m.l0Assoc = ctxInt(v, "l0_assoc");
    m.l0Latency = ctxInt(v, "l0_latency");
    m.l1Bytes = ctxGet(v, "l1_bytes").asUint();
    m.l1Assoc = ctxInt(v, "l1_assoc");
    m.l1Latency = ctxInt(v, "l1_latency");
    m.l2TotalBytes = ctxGet(v, "l2_total_bytes").asUint();
    m.l2Assoc = ctxInt(v, "l2_assoc");
    m.l2Latency = ctxInt(v, "l2_latency");
    m.sharing = sharingDegree(ctxInt(v, "sharing"));
    m.memLatency = ctxInt(v, "mem_latency");
    m.numMemCtrls = ctxInt(v, "num_mem_ctrls");
    m.memIssueInterval = ctxInt(v, "mem_issue_interval");
    m.memOverlapLatency = ctxInt(v, "mem_overlap_latency");
    m.dirCacheEnabled = ctxGet(v, "dir_cache_enabled").boolean();
    m.dirCacheEntries = ctxGet(v, "dir_cache_entries").asUint();
    m.dirCacheAssoc = ctxInt(v, "dir_cache_assoc");
    m.dirLatency = ctxInt(v, "dir_latency");
    m.cleanForwarding = ctxGet(v, "clean_forwarding").boolean();
    m.idealNoc = ctxGet(v, "ideal_noc").boolean();
    m.idealNocLatency = ctxInt(v, "ideal_noc_latency");
    m.flatIntraGroup = ctxGet(v, "flat_intra_group").boolean();
    m.intraGroupLatency = ctxInt(v, "intra_group_latency");
    m.flitBytes = ctxInt(v, "flit_bytes");
    m.vcsPerVnet = ctxInt(v, "vcs_per_vnet");
    m.vcBufferFlits = ctxInt(v, "vc_buffer_flits");
    const int vnets = ctxInt(v, "num_vnets");
    CONSIM_ASSERT(vnets == numVnets, "checkpoint context: num_vnets ",
                  vnets, " (the protocol has ", numVnets,
                  " virtual networks)");
    return m;
}

/** Context member @p key, a @p what spec in T's grammar, parsed. */
template <typename T>
T
ctxSpec(const json::Value &obj, const char *key, const char *what)
{
    const std::string spec = ctxGet(obj, key).str();
    T out;
    std::string err;
    const bool ok = T::parse(spec, out, &err);
    CONSIM_ASSERT(ok, "checkpoint context: bad ", what, " spec '", spec,
                  "': ", err);
    return out;
}

json::Value
configCtxJson(const RunConfig &cfg)
{
    auto v = json::Value::object();
    v.set("machine", machineCtxJson(cfg.machine));
    auto wl = json::Value::array();
    for (WorkloadKind k : cfg.workloads)
        wl.push(static_cast<int>(k));
    v.set("workloads", std::move(wl));
    auto vt = json::Value::array();
    for (int t : cfg.vmThreads)
        vt.push(t);
    v.set("vm_threads", std::move(vt));
    v.set("policy", static_cast<int>(cfg.policy));
    v.set("seed", cfg.seed);
    v.set("warmup_cycles", cfg.warmupCycles);
    v.set("measure_cycles", cfg.measureCycles);
    v.set("timeslice_cycles", cfg.timesliceCycles);
    v.set("watchdog_interval_cycles", cfg.watchdogIntervalCycles);
    v.set("cycle_deadline", cfg.cycleDeadline);
    v.set("ckpt_every_cycles", cfg.ckptEveryCycles);
    v.set("faults", cfg.faults.spec());
    v.set("qos", cfg.qos.spec());
    v.set("dyn_sched", cfg.dynSched.spec());
    return v;
}

RunConfig
configFromCtx(const json::Value &v)
{
    RunConfig cfg;
    cfg.machine = machineFromCtx(ctxGet(v, "machine"));
    for (const auto &w : ctxGet(v, "workloads").items()) {
        const int k = static_cast<int>(w.number());
        CONSIM_ASSERT(k >= 0 && k <= 5,
                      "checkpoint context: bad workload kind ", k);
        cfg.workloads.push_back(static_cast<WorkloadKind>(k));
    }
    for (const auto &t : ctxGet(v, "vm_threads").items())
        cfg.vmThreads.push_back(static_cast<int>(t.number()));
    const int pol = ctxInt(v, "policy");
    CONSIM_ASSERT(pol >= 0 && pol <= 3,
                  "checkpoint context: bad scheduling policy ", pol);
    cfg.policy = static_cast<SchedPolicy>(pol);
    cfg.seed = ctxGet(v, "seed").asUint();
    cfg.warmupCycles = ctxGet(v, "warmup_cycles").asUint();
    cfg.measureCycles = ctxGet(v, "measure_cycles").asUint();
    // Optional: absent in checkpoints from before over-commit.
    if (const json::Value *ts = v.find("timeslice_cycles"))
        cfg.timesliceCycles = ts->asUint();
    cfg.watchdogIntervalCycles =
        ctxGet(v, "watchdog_interval_cycles").asUint();
    cfg.cycleDeadline = ctxGet(v, "cycle_deadline").asUint();
    cfg.ckptEveryCycles = ctxGet(v, "ckpt_every_cycles").asUint();
    cfg.faults = ctxSpec<FaultPlan>(v, "faults", "fault");
    cfg.qos = ctxSpec<QosConfig>(v, "qos", "qos");
    cfg.dynSched = ctxSpec<DynSchedConfig>(v, "dyn_sched", "dyn-sched");
    return cfg;
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
    auto ctx = json::Value::object();
    ctx.set("config", configCtxJson(cfg));
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
        sys.restoreCheckpoint(*ckpt);
        phase = ctxGet(*ckpt->find("context"), "phase").str();
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
        CONSIM_ASSERT(now <= cfg.warmupCycles,
                      "resume: clock ", now, " past warmup window");
        runPhase("warmup", cfg.warmupCycles - now);
        audit();
        sys.resetStats();
        runPhase("measure", cfg.measureCycles);
    } else {
        CONSIM_ASSERT(phase == "measure", "resume: unknown phase '",
                      phase, "'");
        CONSIM_ASSERT(now >= cfg.warmupCycles &&
                          now - cfg.warmupCycles <= cfg.measureCycles,
                      "resume: clock ", now,
                      " outside the measurement window");
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
    const json::Value *ctx = ckpt.find("context");
    CONSIM_ASSERT(ctx && ctx->find("config"),
                  "checkpoint has no experiment context (saved outside "
                  "runExperiment?); cannot seed a resume");
    // Older builds' --migrate runs swapped threads off an RNG the
    // context carried; a zero interval is a non-migrating run.
    const json::Value &config = ctxGet(*ctx, "config");
    const json::Value *interval = config.find("migration_interval_cycles");
    CONSIM_ASSERT(!ctx->find("mig_rng") &&
                      (!interval || interval->asUint() == 0),
                  "checkpoint comes from a --migrate run, whose swaps "
                  "no current run reproduces, so it cannot resume; "
                  "random migration is now --dyn-sched random,epoch=N "
                  "— re-run with it to take a fresh snapshot");
    return configFromCtx(config);
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
