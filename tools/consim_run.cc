/**
 * @file
 * consim_run: general-purpose command-line front end to the
 * simulator. Runs any workload list under any policy / sharing
 * degree / machine tweak and reports per-VM metrics, optionally as
 * CSV (for plotting) or with a full component statistics dump.
 *
 * Usage:
 *   consim_run [options]
 *     --mix "Mix 5"            Table IV mix (exclusive with --vm)
 *     --vm tpcw --vm tpch ...  explicit VM list
 *                              (jbb|tpcw|tpch|web|bully)
 *     --policy rr|affinity|aff-rr|random       (default affinity)
 *     --sharing N              cores per L2 group (default 4; any
 *                              count that tiles the mesh into
 *                              contiguous rectangles)
 *     --mesh XxY               chip geometry (default 4x4; e.g. 8x4,
 *                              8x8, 16x8)
 *     --vm-threads N,N,...     per-VM thread counts for heterogeneous
 *                              mixes (0 = profile default; one entry
 *                              per VM; totals above the core count
 *                              over-commit the chip with time-sliced
 *                              contexts)
 *     --timeslice N            preemption quantum for over-committed
 *                              cores (cycles; default 10000; also
 *                              CONSIM_TIMESLICE)
 *     --l2 BYTES               aggregate L2 capacity (default 16MB;
 *                              must split into whole sets per bank —
 *                              non-pow2 meshes want a matching
 *                              multiple, e.g. 36-divisible on 6x6)
 *     --mem-issue N            min cycles between memory-controller
 *                              accepts (default 4; raise to model a
 *                              bandwidth-constrained node, e.g. the
 *                              isolation experiments use 96)
 *     --warmup N --measure N   cycles (default 4000000 / 3000000, or
 *                              CONSIM_WARMUP / CONSIM_MEASURE)
 *     --seed N                                 (default 1)
 *     --seeds N                average N seeds (seed..seed+N-1), run
 *                              in parallel on CONSIM_JOBS threads
 *     --no-dir-cache           ablation: no directory caches
 *     --no-clean-fwd           ablation: memory supplies clean data
 *     --ideal-noc              ablation: fixed-latency interconnect
 *     --check off|basic|full   runtime check level (CONSIM_CHECK)
 *     --watchdog N             progress-watchdog interval in cycles
 *                              (0 disables; default 1000000, or
 *                              CONSIM_WATCHDOG)
 *     --deadline N             abort the point after N sim cycles
 *     --fault PLAN             inject faults, e.g.
 *                              "wedge:core=3,at=250000;drop:nth=800"
 *     --qos SPEC               per-VM QoS / isolation, e.g.
 *                              "static:vm=0,ways=4,vcs=1,tokens=8" or
 *                              "dynamic:vm=0,ways=4,epoch=100000"
 *                              (also via the CONSIM_QOS env var)
 *     --dyn-sched SPEC         online thread-migration policy, e.g.
 *                              "load-balance,epoch=100000",
 *                              "affinity-repair",
 *                              "contention-aware,epoch=50000" or
 *                              "random,epoch=25000" (swap a random
 *                              pair of threads every epoch; paper
 *                              SSVII) (also via CONSIM_DYN_SCHED)
 *     --ckpt-every N           keep periodic consim.ckpt.v5 snapshots
 *                              every N cycles (0 disables; default
 *                              off, or CONSIM_CKPT)
 *     --ckpt-out PATH          on failure, write the last pre-trip
 *                              snapshot to PATH (needs --ckpt-every;
 *                              a resumed run keeps the interval it
 *                              was saved with)
 *     --resume PATH            resume a consim.ckpt.v5 snapshot; the
 *                              run config comes from the checkpoint,
 *                              so only --ckpt-out, --json, --csv and
 *                              --check may join it
 *     --csv                    machine-readable per-VM output
 *     --dump-stats             full component statistics dump after
 *                              the report (single seed; with --json
 *                              the envelope gains a "stats" member)
 *     --json PATH              write the consim.run.v1 JSON envelope
 *                              (also via the CONSIM_JSON env var)
 *
 * A tripped checker / watchdog / deadline exits 1 after printing the
 * structured consim.diag.v1 dump to stderr.
 *
 * Examples:
 *   consim_run --mix "Mix 7" --policy rr
 *   consim_run --vm jbb --vm jbb --sharing 8 --csv
 *   consim_run --mix "Mix 5" --json mix5.json
 *   consim_run --mix "Mix 5" --ckpt-every 1000000 --ckpt-out w.ckpt
 *   consim_run --resume w.ckpt --json mix5.json
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/report.hh"
#include "exec/sweep.hh"

namespace
{

using namespace consim;

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::cerr << "error: " << msg << "\n";
    std::cerr <<
        "usage: consim_run [--mix NAME | --vm KIND...] "
        "[--policy P] [--sharing N]\n"
        "       [--mesh XxY] [--vm-threads N,N,...] [--timeslice N] "
        "[--l2 BYTES] [--mem-issue N]\n"
        "       [--warmup N] [--measure N] [--seed N] [--seeds N]\n"
        "       [--no-dir-cache] [--no-clean-fwd] [--ideal-noc] "
        "[--csv] [--dump-stats]\n"
        "       [--check off|basic|full] [--watchdog N] "
        "[--deadline N] [--fault PLAN] [--qos SPEC] "
        "[--dyn-sched SPEC]\n"
        "       [--ckpt-every N] [--ckpt-out PATH] [--resume PATH] "
        "[--json PATH]\n";
    std::exit(2);
}

/** Strict cycle/seed-count parsing: junk exits 2, never becomes 0. */
std::uint64_t
parseCount(const std::string &opt, const std::string &s)
{
    std::uint64_t v = 0;
    if (!parseU64(s, v))
        usage((opt + " wants an unsigned integer, got '" + s + "'")
                  .c_str());
    return v;
}

void
writeJsonDoc(const std::string &path, const json::Value &doc)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot open JSON output path " << path
                  << "\n";
        std::exit(1);
    }
    doc.write(out, 2);
    out << "\n";
}

/** Print a tripped checker/watchdog/deadline error and exit 1. */
[[noreturn]] void
reportSimError(const std::string &kind, const std::string &msg,
               const std::string &diag)
{
    std::cerr << "consim_run: " << kind << " error: " << msg << "\n";
    if (!diag.empty()) {
        json::Value d;
        if (json::parse(diag, d)) {
            d.write(std::cerr, 2);
            std::cerr << "\n";
        } else {
            std::cerr << diag << "\n";
        }
    }
    std::exit(1);
}

/**
 * A failed front-end run: write its pre-trip snapshot to @p ckpt_out
 * (when asked for and one exists), then report the error and exit 1.
 */
[[noreturn]] void
failRun(std::uint64_t seed, const std::string &kind,
        const std::string &msg, const std::string &diag,
        const std::string &ckpt, const std::string &ckpt_out)
{
    std::cerr << "consim_run: seed " << seed << " failed\n";
    if (!ckpt_out.empty() && !ckpt.empty()) {
        std::ofstream out(ckpt_out);
        if (out) {
            out << ckpt << "\n";
            std::cerr << "consim_run: wrote pre-trip checkpoint to "
                      << ckpt_out << " (resume with --resume)\n";
        } else {
            std::cerr << "consim_run: cannot open " << ckpt_out << "\n";
        }
    }
    reportSimError(kind, msg, diag);
}

WorkloadKind
parseKind(const std::string &s)
{
    if (s == "jbb")
        return WorkloadKind::SpecJbb;
    if (s == "tpcw")
        return WorkloadKind::TpcW;
    if (s == "tpch")
        return WorkloadKind::TpcH;
    if (s == "web")
        return WorkloadKind::SpecWeb;
    if (s == "bully")
        return WorkloadKind::Bully;
    if (s == "bursty")
        return WorkloadKind::Bursty;
    usage("unknown workload kind (jbb|tpcw|tpch|web|bully|bursty)");
}

SchedPolicy
parsePolicy(const std::string &s)
{
    if (s == "rr")
        return SchedPolicy::RoundRobin;
    if (s == "affinity")
        return SchedPolicy::Affinity;
    if (s == "aff-rr")
        return SchedPolicy::AffinityRR;
    if (s == "random")
        return SchedPolicy::Random;
    usage("unknown policy (rr|affinity|aff-rr|random)");
}

SharingDegree
parseSharing(const std::string &s)
{
    // Any positive degree parses; MachineConfig::validate() rejects
    // counts that do not divide the configured chip into contiguous
    // rectangular groups.
    int n = 0;
    if (!parseIntInRange(s, 1, 65536, n))
        usage("sharing degree must be a positive core count");
    return sharingDegree(n);
}

/** Parse "XxY" mesh geometry (e.g. "8x4"). */
void
parseMesh(const std::string &s, MachineConfig &m)
{
    const auto sep = s.find_first_of("xX");
    int mx = 0, my = 0;
    if (sep == std::string::npos ||
        !parseIntInRange(s.substr(0, sep), 2, 256, mx) ||
        !parseIntInRange(s.substr(sep + 1), 2, 256, my))
        usage("--mesh wants COLSxROWS with each dimension in 2..256, "
              "e.g. 8x4");
    m.meshX = mx;
    m.meshY = my;
}

/** Parse a comma list of per-VM thread counts ("2,4,8,0"). */
std::vector<int>
parseVmThreads(const std::string &s)
{
    std::vector<int> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string item =
            s.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos);
        int n = 0;
        if (!parseIntInRange(item, 0, 4096, n))
            usage("--vm-threads wants a comma list of per-VM thread "
                  "counts (0 = that VM's profile default), e.g. "
                  "2,4,8,0");
        out.push_back(n);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

/** Per-VM metrics report shared by the run and resume paths. */
void
printRunResult(const RunConfig &cfg, const RunResult &r, bool csv,
               int num_seeds, const char *note)
{
    if (csv) {
        std::cout << "vm,kind,threads,transactions,cycles_per_txn,"
                     "l2_accesses,l2_misses,miss_rate,c2c_clean,"
                     "c2c_dirty,miss_latency\n";
    } else {
        std::cout << "consim_run: " << cfg.workloads.size() << " VMs, "
                  << toString(cfg.policy) << ", "
                  << toString(cfg.machine.sharing) << ", measured "
                  << r.measuredCycles << " cycles";
        if (num_seeds > 1)
            std::cout << " x " << num_seeds << " seeds";
        if (note && *note)
            std::cout << " (" << note << ")";
        std::cout << "\n\n";
    }

    TextTable table({"vm", "cycles/txn", "LLC miss rate",
                     "miss lat (cy)", "c2c clean", "c2c dirty"});
    for (std::size_t i = 0; i < r.vms.size(); ++i) {
        const VmResult &v = r.vms[i];
        if (csv) {
            // The threads that ran: the override, else the profile's.
            const int threads =
                i < cfg.vmThreads.size() && cfg.vmThreads[i] > 0
                    ? cfg.vmThreads[i]
                    : WorkloadProfile::get(v.kind).numThreads;
            std::cout << i << "," << toString(v.kind) << "," << threads
                      << "," << v.transactions << ","
                      << v.cyclesPerTransaction << "," << v.l2Accesses
                      << "," << v.l2Misses << "," << v.missRate << ","
                      << v.c2cClean << "," << v.c2cDirty << ","
                      << v.avgMissLatency << "\n";
        } else {
            table.addRow({toString(v.kind) + " #" + std::to_string(i),
                          TextTable::num(v.cyclesPerTransaction, 0),
                          TextTable::pct(v.missRate),
                          TextTable::num(v.avgMissLatency, 1),
                          std::to_string(v.c2cClean),
                          std::to_string(v.c2cDirty)});
        }
    }
    if (!csv)
        table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    // Env knobs first, so the flags below override them.
    RunConfig cfg = RunConfig::fromEnv();
    bool csv = false;
    bool dump = false;
    int num_seeds = 1;
    std::string mix_name;
    std::string json_path;
    std::string ckpt_out;
    std::string resume_path;
    std::string run_flag; // first flag that --resume would ignore
    if (const char *env = std::getenv("CONSIM_JSON"))
        json_path = env;
    if (const char *env = std::getenv("CONSIM_QOS")) {
        // Env fallback resolved before the flags, so an explicit
        // --qos wins. Malformed specs are fatal, never silently off.
        std::string err;
        if (!QosConfig::parse(env, cfg.qos, &err))
            usage(("bad CONSIM_QOS spec: " + err).c_str());
    }
    if (const char *env = std::getenv("CONSIM_DYN_SCHED")) {
        // Same contract as CONSIM_QOS: flags win, junk is fatal.
        std::string err;
        if (!DynSchedConfig::parse(env, cfg.dynSched, &err))
            usage(("bad CONSIM_DYN_SCHED spec: " + err).c_str());
    }

    auto next_arg = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage("missing argument value");
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (run_flag.empty() && a != "--resume" && a != "--ckpt-out" &&
            a != "--json" && a != "--csv" && a != "--check")
            run_flag = a;
        if (a == "--mix") {
            mix_name = next_arg(i);
        } else if (a == "--vm") {
            cfg.workloads.push_back(parseKind(next_arg(i)));
        } else if (a == "--policy") {
            cfg.policy = parsePolicy(next_arg(i));
        } else if (a == "--sharing") {
            cfg.machine.sharing = parseSharing(next_arg(i));
        } else if (a == "--mesh") {
            parseMesh(next_arg(i), cfg.machine);
        } else if (a == "--vm-threads") {
            cfg.vmThreads = parseVmThreads(next_arg(i));
        } else if (a == "--timeslice") {
            // Preemption quantum for over-committed cores (cycles;
            // default Core::kDefaultTimesliceCycles). Echoed in the
            // run.v1 config only when set.
            cfg.timesliceCycles = parseCount(a, next_arg(i));
        } else if (a == "--l2") {
            // Non-pow2 meshes need a matching aggregate (validate()
            // wants a whole number of sets per bank, e.g. 36-divisible
            // on a 6x6 chip), so the size must be settable here.
            cfg.machine.l2TotalBytes = parseCount(a, next_arg(i));
        } else if (a == "--mem-issue") {
            // Bandwidth-constrained consolidation nodes (the QoS
            // isolation experiments) raise this past the default 4.
            if (!parseIntInRange(next_arg(i), 0,
                                 std::numeric_limits<int>::max(),
                                 cfg.machine.memIssueInterval))
                usage("--mem-issue wants a cycle count in 0..2147483647");
        } else if (a == "--warmup") {
            cfg.warmupCycles = parseCount(a, next_arg(i));
        } else if (a == "--measure") {
            cfg.measureCycles = parseCount(a, next_arg(i));
        } else if (a == "--seed") {
            cfg.seed = parseCount(a, next_arg(i));
        } else if (a == "--seeds") {
            if (!parseIntInRange(next_arg(i), 1, 1024, num_seeds))
                usage("--seeds wants a count in 1..1024");
        } else if (a == "--check") {
            check::Level lvl;
            if (!check::parseLevel(next_arg(i), lvl))
                usage("--check wants off|basic|full");
            check::setLevel(lvl);
        } else if (a == "--watchdog") {
            cfg.watchdogIntervalCycles = parseCount(a, next_arg(i));
        } else if (a == "--deadline") {
            cfg.cycleDeadline = parseCount(a, next_arg(i));
        } else if (a == "--fault") {
            std::string err;
            if (!FaultPlan::parse(next_arg(i), cfg.faults, &err))
                usage(("bad --fault plan: " + err).c_str());
        } else if (a == "--qos") {
            std::string err;
            if (!QosConfig::parse(next_arg(i), cfg.qos, &err))
                usage(("bad --qos spec: " + err).c_str());
        } else if (a == "--dyn-sched") {
            std::string err;
            if (!DynSchedConfig::parse(next_arg(i), cfg.dynSched,
                                       &err))
                usage(("bad --dyn-sched spec: " + err).c_str());
        } else if (a == "--ckpt-every") {
            cfg.ckptEveryCycles = parseCount(a, next_arg(i));
        } else if (a == "--ckpt-out") {
            ckpt_out = next_arg(i);
        } else if (a == "--resume") {
            resume_path = next_arg(i);
        } else if (a == "--no-dir-cache") {
            cfg.machine.dirCacheEnabled = false;
        } else if (a == "--no-clean-fwd") {
            cfg.machine.cleanForwarding = false;
        } else if (a == "--ideal-noc") {
            cfg.machine.idealNoc = true;
        } else if (a == "--csv") {
            csv = true;
        } else if (a == "--dump-stats") {
            dump = true;
        } else if (a == "--json") {
            json_path = next_arg(i);
        } else if (a == "--help" || a == "-h") {
            usage();
        } else {
            usage(("unknown option '" + a + "'").c_str());
        }
    }

    if (!resume_path.empty()) {
        // Resume takes everything — workloads, policy, machine,
        // windows, seed — from the checkpoint's embedded context, so
        // a flag that would change the run is refused, not dropped.
        if (!run_flag.empty())
            usage(("--resume takes its configuration from the "
                   "checkpoint (drop " + run_flag + ")")
                      .c_str());

        consim::logging::setVerbose(false);

        std::ifstream in(resume_path);
        if (!in) {
            std::cerr << "error: cannot open checkpoint "
                      << resume_path << "\n";
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        json::Value doc;
        std::string err;
        if (!json::parse(text.str(), doc, &err)) {
            std::cerr << "error: " << resume_path
                      << " is not valid JSON: " << err << "\n";
            return 1;
        }
        RunConfig rcfg;
        try {
            rcfg = configFromCheckpoint(doc);
            // Wrap through averageRunResults exactly like the normal
            // single-seed path, so the envelope (seeds_used included)
            // is byte-identical to an uninterrupted run's.
            const RunResult r =
                averageRunResults({resumeExperiment(doc)});
            if (!json_path.empty())
                writeJsonDoc(json_path, runResultJson(rcfg, r));
            printRunResult(rcfg, r, csv, 1, "resumed");
        } catch (const SimError &e) {
            // A resumed run that trips again keeps its own pre-trip
            // snapshot, so a chain of resumes can continue from it.
            failRun(rcfg.seed, toString(e.kind()), e.what(), e.diag(),
                    e.ckpt(), ckpt_out);
        }
        return 0;
    }

    if (!mix_name.empty()) {
        if (!cfg.workloads.empty())
            usage("--mix and --vm are exclusive");
        const Mix &mix = Mix::byName(mix_name);
        cfg.workloads = mix.vms;
        if (cfg.vmThreads.empty())
            cfg.vmThreads = mix.threads;
    }
    if (cfg.workloads.empty())
        usage("no workloads given (use --mix or --vm)");
    if (!cfg.vmThreads.empty() &&
        cfg.vmThreads.size() != cfg.workloads.size())
        usage("--vm-threads wants exactly one entry per VM");

    consim::logging::setVerbose(false);

    if (dump && num_seeds > 1)
        usage("--dump-stats needs a live machine (use --seeds 1)");

    // A front-end run fails loudly: the first tripped checker,
    // watchdog or deadline exits with its diag.
    std::vector<RunResult> group;
    std::ostringstream stats_text;
    json::Value stats_json;
    if (dump) {
        // The same single run the plain path makes, read through
        // runExperiment's post-run hook while the machine is live.
        try {
            group.push_back(runExperiment(cfg, [&](const System &sys) {
                sys.dumpStats(stats_text);
                stats_json = sys.statsRoot().toJson();
            }));
        } catch (const SimError &e) {
            failRun(cfg.seed, toString(e.kind()), e.what(), e.diag(),
                    e.ckpt(), ckpt_out);
        }
    } else {
        // Every seed runs on the parallel sweep engine; the report
        // is their average.
        std::vector<RunConfig> seed_cfgs;
        for (int s = 0; s < num_seeds; ++s) {
            seed_cfgs.push_back(cfg);
            seed_cfgs.back().seed =
                cfg.seed + static_cast<std::uint64_t>(s);
        }
        std::vector<SweepRun> runs = runSweep(seed_cfgs);
        for (std::size_t s = 0; s < runs.size(); ++s) {
            if (!runs[s].ok)
                failRun(seed_cfgs[s].seed, runs[s].errorKind,
                        runs[s].errorMessage, runs[s].diag,
                        runs[s].ckpt, ckpt_out);
            group.push_back(std::move(runs[s].result));
        }
    }
    const RunResult r = averageRunResults(std::move(group));

    if (!json_path.empty()) {
        json::Value doc = runResultJson(cfg, r);
        if (dump)
            doc.set("stats", std::move(stats_json));
        writeJsonDoc(json_path, doc);
    }
    printRunResult(cfg, r, csv, num_seeds, nullptr);
    if (dump)
        std::cout << "\n# component statistics\n" << stats_text.str();
    return 0;
}
