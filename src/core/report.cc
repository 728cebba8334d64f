#include "core/report.hh"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/logging.hh"
#include "common/parse.hh"

namespace consim
{

const std::vector<std::uint64_t> &
benchSeeds()
{
    static const std::vector<std::uint64_t> seeds = [] {
        // One seed by default; set CONSIM_SEEDS=N for the multi-seed
        // averaging of Alameldeen & Wood that the paper follows.
        // Malformed or out-of-range values are fatal (strict parse),
        // not silently one seed.
        const int n = envIntInRange("CONSIM_SEEDS", 1, 16, 1);
        std::vector<std::uint64_t> s;
        for (int i = 0; i < n; ++i)
            s.push_back(1 + i);
        return s;
    }();
    return seeds;
}

json::Value
toJson(const MachineConfig &m)
{
    auto v = json::Value::object();
    v.set("mesh_x", m.meshX);
    v.set("mesh_y", m.meshY);
    v.set("l0_bytes", m.l0Bytes);
    v.set("l1_bytes", m.l1Bytes);
    v.set("l2_total_bytes", m.l2TotalBytes);
    v.set("l2_assoc", m.l2Assoc);
    v.set("l2_latency", m.l2Latency);
    v.set("sharing", toString(m.sharing));
    v.set("mem_latency", m.memLatency);
    // Echoed only when it departs the default, keeping the baseline
    // envelope byte-stable (the isolation experiments raise it to
    // model bandwidth-constrained consolidation nodes).
    if (m.memIssueInterval != MachineConfig{}.memIssueInterval)
        v.set("mem_issue_interval", m.memIssueInterval);
    v.set("num_mem_ctrls", m.numMemCtrls);
    v.set("dir_cache_enabled", m.dirCacheEnabled);
    v.set("clean_forwarding", m.cleanForwarding);
    v.set("ideal_noc", m.idealNoc);
    v.set("flat_intra_group", m.flatIntraGroup);
    return v;
}

json::Value
toJson(const RunConfig &cfg)
{
    auto v = json::Value::object();
    v.set("machine", toJson(cfg.machine));
    auto workloads = json::Value::array();
    for (const auto kind : cfg.workloads)
        workloads.push(toString(kind));
    v.set("workloads", std::move(workloads));
    // Heterogeneous thread counts are echoed only when configured,
    // keeping the default envelope byte-stable across versions.
    if (!cfg.vmThreads.empty()) {
        auto vm_threads = json::Value::array();
        for (const int t : cfg.vmThreads)
            vm_threads.push(t);
        v.set("vm_threads", std::move(vm_threads));
    }
    v.set("policy", toString(cfg.policy));
    v.set("seed", cfg.seed);
    v.set("warmup_cycles", cfg.warmupCycles);
    v.set("measure_cycles", cfg.measureCycles);
    v.set("migration_interval_cycles", cfg.migrationIntervalCycles);
    // Only over-committed runs configure a timeslice; echoed when
    // set, keeping the default envelope byte-stable across versions.
    if (cfg.timesliceCycles != 0)
        v.set("timeslice_cycles", cfg.timesliceCycles);
    // Hardening knobs are echoed only when set (the watchdog: when it
    // departs the default), keeping the default envelope byte-stable
    // across versions.
    if (!cfg.faults.empty())
        v.set("faults", cfg.faults.toJson());
    if (cfg.qos.enabled())
        v.set("qos", cfg.qos.toJson());
    if (cfg.dynSched.enabled())
        v.set("dyn_sched", cfg.dynSched.toJson());
    if (cfg.watchdogIntervalCycles != RunConfig{}.watchdogIntervalCycles)
        v.set("watchdog_interval_cycles", cfg.watchdogIntervalCycles);
    if (cfg.cycleDeadline != 0)
        v.set("cycle_deadline", cfg.cycleDeadline);
    return v;
}

json::Value
toJson(const VmResult &r)
{
    auto v = json::Value::object();
    v.set("kind", toString(r.kind));
    v.set("transactions", r.transactions);
    v.set("instructions", r.instructions);
    v.set("l1_misses", r.l1Misses);
    v.set("l2_accesses", r.l2Accesses);
    v.set("l2_misses", r.l2Misses);
    v.set("c2c_clean", r.c2cClean);
    v.set("c2c_dirty", r.c2cDirty);
    v.set("distinct_blocks", r.distinctBlocks);
    // QoS/isolation metrics are echoed only when nonzero, keeping the
    // QoS-free envelope byte-stable across versions.
    if (r.mcThrottleStalls != 0)
        v.set("mc_throttle_stalls", r.mcThrottleStalls);
    v.set("cycles_per_transaction", r.cyclesPerTransaction);
    v.set("miss_rate", r.missRate);
    v.set("avg_miss_latency", r.avgMissLatency);
    v.set("c2c_fraction", r.c2cFraction);
    v.set("c2c_dirty_share", r.c2cDirtyShare);
    if (r.slowdownVsIsolated != 0.0)
        v.set("slowdown_vs_isolated", r.slowdownVsIsolated);
    return v;
}

json::Value
toJson(const RunResult &r)
{
    auto v = json::Value::object();
    v.set("measured_cycles", r.measuredCycles);
    // Seed-averaged results disclose how many seed runs actually
    // survived into the average; single runs keep the envelope
    // byte-stable by omitting the field.
    if (r.seedsUsed != 0)
        v.set("seeds_used", r.seedsUsed);
    // Migration count appears only when the dynamic scheduler moved a
    // thread, keeping dyn-free envelopes byte-stable across versions.
    if (r.dynMigrations != 0)
        v.set("dyn_migrations", r.dynMigrations);
    auto vms = json::Value::array();
    for (const auto &vm : r.vms)
        vms.push(toJson(vm));
    v.set("vms", std::move(vms));
    v.set("net_avg_latency", r.netAvgLatency);
    v.set("net_packets", r.netPackets);

    auto rep = json::Value::object();
    rep.set("valid_lines", r.replication.validLines);
    rep.set("replicated_lines", r.replication.replicatedLines);
    rep.set("distinct_blocks", r.replication.distinctBlocks);
    rep.set("replicated_fraction", r.replication.replicatedFraction());
    auto valid_per_vm = json::Value::array();
    for (const auto n : r.replication.validPerVm)
        valid_per_vm.push(n);
    rep.set("valid_per_vm", std::move(valid_per_vm));
    auto repl_per_vm = json::Value::array();
    for (const auto n : r.replication.replicatedPerVm)
        repl_per_vm.push(n);
    rep.set("replicated_per_vm", std::move(repl_per_vm));
    v.set("replication", std::move(rep));

    auto occ = json::Value::object();
    auto capacity = json::Value::array();
    for (const auto n : r.occupancy.capacity)
        capacity.push(n);
    occ.set("capacity", std::move(capacity));
    auto lines = json::Value::array();
    for (const auto &group : r.occupancy.lines) {
        auto row = json::Value::array();
        for (const auto n : group)
            row.push(n);
        lines.push(std::move(row));
    }
    occ.set("lines", std::move(lines));
    v.set("occupancy", std::move(occ));
    return v;
}

json::Value
runResultJson(const RunConfig &cfg, const RunResult &r)
{
    auto v = json::Value::object();
    v.set("schema", "consim.run.v1");
    v.set("config", toJson(cfg));
    v.set("result", toJson(r));
    return v;
}

void
dumpStats(std::ostream &os, const stats::Group &root)
{
    root.dump(os);
}

namespace
{

[[noreturn]] void
refuseArg(const std::string &why, const std::string &usage)
{
    std::cerr << "error: " << why << "\nusage: " << usage << "\n";
    std::exit(2);
}

} // namespace

std::string
jsonArg(int argc, char **argv, const std::string &usage,
        const std::function<bool(const std::string &)> &operand)
{
    std::string value;
    bool seen = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg != "--json") {
            if (!operand || !operand(arg))
                refuseArg("unexpected argument '" + arg + "'", usage);
            continue;
        }
        if (seen)
            refuseArg("--json given twice", usage);
        if (i + 1 >= argc || argv[i + 1][0] == '\0')
            refuseArg("--json wants a value", usage);
        seen = true;
        value = argv[++i];
    }
    return value;
}

std::string
JsonReport::pathFromArgs(int argc, char **argv)
{
    const std::string prog = argc > 0 ? argv[0] : "bench";
    const std::string path =
        jsonArg(argc, argv, prog + " [--json <path>]");
    if (!path.empty())
        return path;
    if (const char *env = std::getenv("CONSIM_JSON"))
        return env;
    return "";
}

JsonReport::JsonReport(std::string id, std::string title,
                       std::string path)
    : path_(std::move(path)), doc_(json::Value::object())
{
    doc_.set("schema", "consim.bench.v1");
    doc_.set("id", std::move(id));
    doc_.set("title", std::move(title));
    doc_.set("points", json::Value::array());
}

void
JsonReport::set(const std::string &key, json::Value v)
{
    doc_.set(key, std::move(v));
}

void
JsonReport::point(json::Value v)
{
    doc_.find("points")->push(std::move(v));
}

std::string
JsonReport::text() const
{
    std::ostringstream os;
    doc_.write(os, 2);
    os << "\n";
    return os.str();
}

void
JsonReport::write() const
{
    if (!enabled())
        return;
    std::ofstream out(path_);
    if (!out)
        CONSIM_FATAL("cannot open JSON output path ", path_);
    out << text();
    if (!out)
        CONSIM_FATAL("failed writing JSON output to ", path_);
}

void
printHeader(std::ostream &os, const std::string &title,
            const std::string &paper_ref,
            const std::string &expectation)
{
    os << "\n=== " << title << " ===\n";
    if (!paper_ref.empty())
        os << "reproduces: " << paper_ref << "\n";
    if (!expectation.empty())
        os << "paper shape: " << expectation << "\n";
    os << "\n";
}

} // namespace consim
