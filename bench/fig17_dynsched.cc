/**
 * @file
 * Dynamic-scheduling extension (beyond the paper): what online thread
 * migration buys over the paper's static hypervisor placements. Every
 * scenario runs under the four static policies (rr, affinity, aff-rr,
 * random) and the three dynamic migration policies (load-balance,
 * affinity-repair, contention-aware) layered on the default affinity
 * placement, sampling the stats registry at epoch boundaries.
 *
 * Scenarios: two Table IV consolidation mixes (one heterogeneous, one
 * homogeneous) as the steady-state check — the paper's workloads
 * have no phase changes a migration policy could exploit, so every
 * migration there is churn; the feedback loop (revert unhelpful
 * swaps, exponential backoff) must keep that churn tax bounded, and
 * affinity-repair, whose c2c trigger never fires on an intact
 * affinity placement, must exactly track the static baseline. The
 * third scenario is built for the opposite case: three 4-thread
 * Bursty VMs on a sharing-2 chip with a 2 MB L2 (256 KB
 * partitions). VM 0 holds a sustained burst phase whose per-thread
 * hot window (~160 KB) overflows a partition when two threads are
 * packed into it but fits when a thread has a partition to itself,
 * and four cores sit idle — so the contention-aware policy can beat
 * every static placement by spreading the burster's threads into
 * the idle partitions.
 *
 * The chip-level figure of merit is aggregate cycles per transaction
 * (measured cycles / total committed transactions, lower is better).
 *
 * Expected shape: on the steady mixes affinity-repair equals static
 * affinity and the migrating policies stay within a bounded churn
 * tax of it; at least one dynamic policy beats the best static
 * placement on the bursty mix.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "core/mix.hh"
#include "core/report.hh"

namespace
{

using namespace consim;

/** One policy column: a static placement, optionally with a dynamic
 *  migration policy layered on top. */
struct PolicyPoint
{
    const char *label;
    SchedPolicy base;
    const char *dynSpec; ///< "" = static only
    bool isDynamic() const { return dynSpec[0] != '\0'; }
};

/** The seven policy columns every scenario runs under. The dynamic
 *  policies all start from the affinity placement (the library
 *  default), so their delta vs the "affinity" row is purely the
 *  migrations. */
const PolicyPoint kPolicies[] = {
    {"static:rr", SchedPolicy::RoundRobin, ""},
    {"static:affinity", SchedPolicy::Affinity, ""},
    {"static:aff-rr", SchedPolicy::AffinityRR, ""},
    {"static:random", SchedPolicy::Random, ""},
    {"load-balance", SchedPolicy::Affinity, "load-balance,epoch=25000"},
    {"affinity-repair", SchedPolicy::Affinity,
     "affinity-repair,epoch=25000"},
    {"contention-aware", SchedPolicy::Affinity,
     "contention-aware,epoch=25000"},
};
constexpr std::size_t kNumPolicies = std::size(kPolicies);

/** A consolidation scenario: either a Table IV mix or the bursty
 *  small-chip workload. */
struct Scenario
{
    const char *name;
    const char *mix; ///< Table IV name, or nullptr for the bursty mix
};

const Scenario kScenarios[] = {
    {"Mix 5 (hetero)", "Mix 5"},
    {"Mix A (homog)", "Mix A"},
    {"bursty x3", nullptr},
};
constexpr std::size_t kNumScenarios = std::size(kScenarios);

RunConfig
scenarioConfig(const Scenario &sc, const PolicyPoint &pp)
{
    RunConfig cfg = RunConfig::fromEnv();
    if (sc.mix != nullptr) {
        const Mix &mix = Mix::byName(sc.mix);
        cfg.workloads = mix.vms;
        cfg.vmThreads = mix.threads;
        cfg.warmupCycles = 200'000;
        cfg.measureCycles = 600'000;
    } else {
        // The bursty chip: a 2 MB L2 at sharing 2 gives eight
        // 256 KB partitions, so two packed burster threads
        // (~160 KB hot window each) overflow their partition while
        // one alone fits; three 4-thread Bursty VMs leave four
        // cores idle — headroom a migration policy can steer the
        // bursting VM's threads into.
        cfg.machine.sharing = sharingDegree(2);
        cfg.machine.l2TotalBytes = 2ull << 20;
        for (int i = 0; i < 3; ++i) {
            cfg.workloads.push_back(WorkloadKind::Bursty);
            cfg.vmThreads.push_back(4);
        }
        cfg.warmupCycles = 200'000;
        cfg.measureCycles = 1'200'000;
    }
    cfg.policy = pp.base;
    if (pp.isDynamic()) {
        std::string err;
        CONSIM_ASSERT(
            DynSchedConfig::parse(pp.dynSpec, cfg.dynSched, &err),
            "fig17 dyn spec: ", err);
    }
    return cfg;
}

/** Chip-level cycles per transaction (lower is better). */
double
aggregateCpt(const RunResult &r)
{
    std::uint64_t txns = 0;
    for (const auto &vm : r.vms)
        txns += vm.transactions;
    return txns ? static_cast<double>(r.measuredCycles) /
                      static_cast<double>(txns)
                : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    logging::setVerbose(false);

    printHeader(
        std::cout, "Fig 17: Dynamic vs Static Hypervisor Scheduling",
        "dynamic-scheduling extension (no paper counterpart; the "
        "paper's hypervisor binds threads once, before the run)",
        "bounded churn tax vs static affinity on the steady Table IV "
        "mixes; at least one dynamic policy beats the best static "
        "placement on the bursty mix");
    JsonReport jrep("fig17", "Dynamic vs Static Hypervisor Scheduling",
                    JsonReport::pathFromArgs(argc, argv));

    // One parallel sweep over every (scenario, policy) point.
    std::vector<RunConfig> configs;
    for (std::size_t s = 0; s < kNumScenarios; ++s)
        for (std::size_t p = 0; p < kNumPolicies; ++p)
            configs.push_back(
                scenarioConfig(kScenarios[s], kPolicies[p]));

    const auto results = benchSweepAveraged(configs, benchSeeds());

    // Per-scenario best static / best dynamic by aggregate cy/txn.
    double best_static[kNumScenarios];
    double best_dynamic[kNumScenarios];
    std::size_t best_static_p[kNumScenarios];
    std::size_t best_dynamic_p[kNumScenarios];

    TextTable table({"scenario", "policy", "agg cy/txn", "miss rate",
                     "migrations"});
    for (std::size_t s = 0; s < kNumScenarios; ++s) {
        best_static[s] = best_dynamic[s] = 0.0;
        best_static_p[s] = best_dynamic_p[s] = 0;
        for (std::size_t p = 0; p < kNumPolicies; ++p) {
            const std::size_t i = s * kNumPolicies + p;
            const RunResult &r = results[i];
            const double cpt = aggregateCpt(r);
            double miss = 0.0;
            for (const auto &vm : r.vms)
                miss += vm.missRate;
            miss /= static_cast<double>(r.vms.size());
            double &best = kPolicies[p].isDynamic() ? best_dynamic[s]
                                                    : best_static[s];
            std::size_t &best_p = kPolicies[p].isDynamic()
                                      ? best_dynamic_p[s]
                                      : best_static_p[s];
            if (best == 0.0 || cpt < best) {
                best = cpt;
                best_p = p;
            }
            table.addRow({kScenarios[s].name, kPolicies[p].label,
                          TextTable::num(cpt, 1),
                          TextTable::pct(miss),
                          std::to_string(r.dynMigrations)});
            if (jrep.enabled()) {
                auto jpt = runResultJson(configs[i], r);
                jpt.set("scenario", kScenarios[s].name);
                jpt.set("sched_point", kPolicies[p].label);
                jpt.set("agg_cycles_per_txn", cpt);
                jrep.point(std::move(jpt));
            }
        }
    }
    table.print(std::cout);

    // The acceptance gate lives on the bursty scenario (the last
    // one): a phase-changing workload is where migration must win.
    const std::size_t sb = kNumScenarios - 1;
    const bool dyn_wins = best_dynamic[sb] > 0.0 &&
                          best_dynamic[sb] < best_static[sb];
    std::cout << "\nbursty mix: best dynamic ("
              << kPolicies[best_dynamic_p[sb]].label << ") "
              << TextTable::num(best_dynamic[sb], 1)
              << " cy/txn vs best static ("
              << kPolicies[best_static_p[sb]].label << ") "
              << TextTable::num(best_static[sb], 1) << " : "
              << (dyn_wins ? "dynamic wins" : "VIOLATED") << "\n";
    if (jrep.enabled()) {
        auto summary = json::Value::object();
        summary.set("bursty_best_static", best_static[sb]);
        summary.set("bursty_best_static_policy",
                    kPolicies[best_static_p[sb]].label);
        summary.set("bursty_best_dynamic", best_dynamic[sb]);
        summary.set("bursty_best_dynamic_policy",
                    kPolicies[best_dynamic_p[sb]].label);
        summary.set("dynamic_beats_static", dyn_wins);
        jrep.set("summary", std::move(summary));
    }
    jrep.write();
    checkStdout();
    return 0;
}
