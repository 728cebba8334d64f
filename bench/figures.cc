#include "figures.hh"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/mix.hh"

namespace consim::paper
{

namespace
{

using P = SchedPolicy;
using S = SharingDegree;

Point
iso(WorkloadKind kind, SchedPolicy policy, SharingDegree sharing)
{
    return {{kind}, {}, policy, sharing};
}

Point
mixed(const Mix &mix, SchedPolicy policy, SharingDegree sharing)
{
    return {mix.vms, mix.threads, policy, sharing};
}

/** A cache configuration and thread placement, as a figure labels it. */
struct Placement
{
    SharingDegree sharing;
    SchedPolicy policy;
    const char *label;
};

/**
 * How a table shape turns a run into one cell: the metric, the
 * isolation run it is normalized to, the zero guard and the digits.
 */
struct Lens
{
    double (RunResult::*metric)(WorkloadKind) const;
    const char *key; ///< the bench.v1 field carrying the value
    /** Normalize to the workload alone under affinity at this degree
     *  (none: the raw metric). */
    std::optional<SharingDegree> baseline;
    bool zeroGuard = false; ///< a zero baseline reads 0, not inf
    int digits = 2;

    Point
    base(WorkloadKind kind) const
    {
        return iso(kind, P::Affinity, baseline.value());
    }

    double
    value(const Runs &runs, const Point &p, WorkloadKind kind) const
    {
        const double v = (runs.at(p).*metric)(kind);
        if (!baseline)
            return v;
        const double denom = (runs.at(base(kind)).*metric)(kind);
        if (zeroGuard)
            return denom > 0.0 ? v / denom : 0.0;
        return v / denom;
    }
};

const Lens kPerf = {&RunResult::meanCyclesPerTxn,
                    "normalized_cycles_per_txn", S::Shared16};

Lens
missRate(SharingDegree baseline)
{
    return {&RunResult::meanMissRate, "normalized_miss_rate", baseline,
            true};
}

Lens
missLatency(SharingDegree baseline)
{
    return {&RunResult::meanMissLatency, "normalized_miss_latency",
            baseline, true};
}

std::vector<WorkloadKind>
distinctKinds(const Mix &mix)
{
    std::vector<WorkloadKind> kinds;
    for (const auto k : mix.vms) {
        if (std::find(kinds.begin(), kinds.end(), k) == kinds.end())
            kinds.push_back(k);
    }
    return kinds;
}

/** Figs. 2-4: each workload alone, one row per placement. */
Figure
isolated(Figure fig, std::vector<Placement> rows, Lens lens)
{
    for (const auto &row : rows) {
        for (const auto &prof : WorkloadProfile::all()) {
            fig.points.push_back(iso(prof.kind, row.policy, row.sharing));
            if (lens.baseline)
                fig.points.push_back(lens.base(prof.kind));
        }
    }
    fig.body = [rows, lens](const Runs &runs, std::ostream &os,
                            JsonReport &json) {
        std::vector<std::string> headers = {"config"};
        for (const auto &prof : WorkloadProfile::all())
            headers.push_back(prof.name);
        TextTable table(headers);
        for (const auto &row : rows) {
            std::vector<std::string> cells = {row.label};
            for (const auto &prof : WorkloadProfile::all()) {
                const Point p = iso(prof.kind, row.policy, row.sharing);
                const double v = lens.value(runs, p, prof.kind);
                cells.push_back(TextTable::num(v, lens.digits));
                auto pt = runs.envelope(p);
                pt.set("label", row.label);
                pt.set("workload", prof.name);
                pt.set(lens.key, v);
                json.point(std::move(pt));
            }
            table.addRow(std::move(cells));
        }
        table.print(os);
    };
    return fig;
}

const SchedPolicy kPolicies[] = {P::RoundRobin, P::Affinity,
                                 P::AffinityRR, P::Random};

/** Figs. 5-7: homogeneous mixes at shared-4-way, one column per
 *  policy. */
Figure
homogeneous(Figure fig, Lens lens)
{
    for (const auto &mix : Mix::homogeneous()) {
        fig.points.push_back(lens.base(mix.vms.front()));
        for (const auto policy : kPolicies)
            fig.points.push_back(mixed(mix, policy, S::Shared4));
    }
    fig.body = [lens](const Runs &runs, std::ostream &os,
                      JsonReport &json) {
        std::vector<std::string> headers = {"mix"};
        for (const auto policy : kPolicies)
            headers.push_back(toString(policy));
        TextTable table(headers);
        for (const auto &mix : Mix::homogeneous()) {
            const WorkloadKind kind = mix.vms.front();
            std::vector<std::string> cells = {
                mix.name + " (" + toString(kind) + ")"};
            for (const auto policy : kPolicies) {
                const Point p = mixed(mix, policy, S::Shared4);
                const double v = lens.value(runs, p, kind);
                cells.push_back(TextTable::num(v, lens.digits));
                auto pt = runs.envelope(p);
                pt.set("mix", mix.name);
                pt.set("policy", toString(policy));
                pt.set(lens.key, v);
                json.point(std::move(pt));
            }
            table.addRow(std::move(cells));
        }
        table.print(os);
    };
    return fig;
}

/**
 * Figs. 8-11: heterogeneous mixes, one row per workload of a mix and
 * one column per placement. A point carries one value per workload.
 * @p isolatedRef (Fig. 8) separates the mixes and appends each
 * workload's isolated run at the same placements.
 */
Figure
heterogeneous(Figure fig, std::vector<Placement> cols, Lens lens,
              bool isolatedRef = false)
{
    for (const auto &mix : Mix::heterogeneous()) {
        for (const auto kind : mix.vms)
            fig.points.push_back(lens.base(kind));
        for (const auto &col : cols)
            fig.points.push_back(mixed(mix, col.policy, col.sharing));
    }
    if (isolatedRef) {
        for (const auto &prof : WorkloadProfile::all()) {
            fig.points.push_back(lens.base(prof.kind));
            for (const auto &col : cols)
                fig.points.push_back(
                    iso(prof.kind, col.policy, col.sharing));
        }
    }
    fig.body = [cols, lens, isolatedRef](const Runs &runs,
                                         std::ostream &os,
                                         JsonReport &json) {
        std::vector<std::string> headers = {"mix", "workload"};
        for (const auto &col : cols)
            headers.push_back(col.label);
        TextTable table(headers);
        for (const auto &mix : Mix::heterogeneous()) {
            std::vector<json::Value> values(cols.size(),
                                            json::Value::object());
            for (const auto kind : distinctKinds(mix)) {
                std::vector<std::string> cells = {
                    mix.name + " (" + std::to_string(mix.count(kind)) +
                        "x)",
                    toString(kind)};
                for (std::size_t c = 0; c < cols.size(); ++c) {
                    const double v = lens.value(
                        runs, mixed(mix, cols[c].policy, cols[c].sharing),
                        kind);
                    values[c].set(toString(kind), v);
                    cells.push_back(TextTable::num(v, lens.digits));
                }
                table.addRow(std::move(cells));
            }
            for (std::size_t c = 0; c < cols.size(); ++c) {
                auto pt = runs.envelope(
                    mixed(mix, cols[c].policy, cols[c].sharing));
                pt.set("mix", mix.name);
                pt.set(lens.key, std::move(values[c]));
                json.point(std::move(pt));
            }
            if (isolatedRef)
                table.addSeparator();
        }
        if (isolatedRef) {
            for (const auto &prof : WorkloadProfile::all()) {
                std::vector<std::string> cells = {"isolated 4-way",
                                                  prof.name};
                for (const auto &col : cols) {
                    const Point p =
                        iso(prof.kind, col.policy, col.sharing);
                    const double v = lens.value(runs, p, prof.kind);
                    cells.push_back(TextTable::num(v, lens.digits));
                    auto pt = runs.envelope(p);
                    pt.set("mix", "isolated 4-way");
                    pt.set("workload", prof.name);
                    pt.set(lens.key, v);
                    json.point(std::move(pt));
                }
                table.addRow(std::move(cells));
            }
        }
        table.print(os);
    };
    return fig;
}

/** Table II: each workload alone on private L2s, round robin. */
Figure
workloadStats(Figure fig)
{
    for (const auto &prof : WorkloadProfile::all())
        fig.points.push_back(iso(prof.kind, P::RoundRobin, S::Private));
    fig.body = [](const Runs &runs, std::ostream &os, JsonReport &json) {
        TextTable table({"workload", "c2c(all)", "paper", "clean",
                         "paper", "dirty", "paper", "blocks(model)",
                         "blocks(paper)", "blocks(touched)"});
        for (const auto &prof : WorkloadProfile::all()) {
            const Point p = iso(prof.kind, P::RoundRobin, S::Private);
            const auto &v = runs.at(p).vms.at(0);
            table.addRow(
                {prof.name, TextTable::pct(v.c2cFraction, 0),
                 TextTable::pct(prof.paperC2cAll, 0),
                 TextTable::pct(1.0 - v.c2cDirtyShare, 0),
                 TextTable::pct(prof.paperC2cClean, 0),
                 TextTable::pct(v.c2cDirtyShare, 0),
                 TextTable::pct(prof.paperC2cDirty, 0),
                 std::to_string(prof.totalBlocks() / 1000) + " K",
                 std::to_string(prof.paperBlocks / 1000) + " K",
                 std::to_string(v.distinctBlocks / 1000) + " K"});
            auto pt = runs.envelope(p);
            pt.set("workload", prof.name);
            pt.set("model_blocks", prof.totalBlocks());
            pt.set("paper_blocks", prof.paperBlocks);
            json.point(std::move(pt));
        }
        table.print(os);
    };
    return fig;
}

/**
 * Fig. 12: replicated LLC lines of the homogeneous mixes. Affinity
 * cannot replicate at shared-4-way, so it is omitted as in the paper;
 * private is the maximum-replication bound.
 */
Figure
replication(Figure fig)
{
    static const Placement cols[] = {
        {S::Shared4, P::RoundRobin, "rr"},
        {S::Shared4, P::AffinityRR, "aff-rr"},
        {S::Shared4, P::Random, "random"},
        {S::Private, P::RoundRobin, "private (max)"},
    };
    for (const auto &mix : Mix::homogeneous()) {
        for (const auto &col : cols)
            fig.points.push_back(mixed(mix, col.policy, col.sharing));
    }
    fig.body = [](const Runs &runs, std::ostream &os, JsonReport &json) {
        std::vector<std::string> headers = {"mix"};
        for (const auto &col : cols)
            headers.push_back(col.label);
        TextTable table(headers);
        for (const auto &mix : Mix::homogeneous()) {
            std::vector<std::string> cells = {
                mix.name + " (" + toString(mix.vms.front()) + ")"};
            for (const auto &col : cols) {
                const Point p = mixed(mix, col.policy, col.sharing);
                const double v =
                    runs.at(p).replication.replicatedFraction();
                cells.push_back(TextTable::pct(v));
                auto pt = runs.envelope(p);
                pt.set("mix", mix.name);
                pt.set("label", col.label);
                pt.set("replicated_fraction", v);
                json.point(std::move(pt));
            }
            table.addRow(std::move(cells));
        }
        table.print(os);
    };
    return fig;
}

/** Fig. 13: each VM's share of every shared-4-way partition, one
 *  table per heterogeneous mix under round robin. */
Figure
utilization(Figure fig)
{
    for (const auto &mix : Mix::heterogeneous())
        fig.points.push_back(mixed(mix, P::RoundRobin, S::Shared4));
    fig.body = [](const Runs &runs, std::ostream &os, JsonReport &json) {
        for (const auto &mix : Mix::heterogeneous()) {
            const Point p = mixed(mix, P::RoundRobin, S::Shared4);
            const auto &occ = runs.at(p).occupancy;
            const std::size_t groups = occ.lines.size();
            std::vector<std::string> headers = {"vm"};
            for (std::size_t g = 0; g < groups; ++g)
                headers.push_back("cache " + std::to_string(g));
            headers.push_back("mean");
            TextTable table(headers);
            for (std::size_t vm = 0; vm < mix.vms.size(); ++vm) {
                std::vector<std::string> cells = {
                    toString(mix.vms[vm]) + " #" + std::to_string(vm)};
                double sum = 0.0;
                for (std::size_t g = 0; g < groups; ++g) {
                    const double share =
                        occ.share(static_cast<GroupId>(g),
                                  static_cast<VmId>(vm));
                    sum += share;
                    cells.push_back(TextTable::pct(share, 0));
                }
                cells.push_back(TextTable::pct(
                    sum / static_cast<double>(groups), 0));
                table.addRow(std::move(cells));
            }
            os << mix.name << " (" << toString(mix.vms.front()) << " x"
               << mix.count(mix.vms.front()) << " + "
               << toString(mix.vms.back()) << " x"
               << mix.count(mix.vms.back()) << ")\n";
            table.print(os);
            os << "\n";
            auto pt = runs.envelope(p);
            pt.set("mix", mix.name);
            json.point(std::move(pt));
        }
    };
    return fig;
}

std::vector<Figure>
buildFigures()
{
    const std::vector<Placement> isoSweep = {
        {S::Shared16, P::Affinity, "shared"},
        {S::Shared8, P::Affinity, "aff 2-LL$"},
        {S::Shared8, P::RoundRobin, "rr 2-LL$"},
        {S::Shared4, P::Affinity, "aff 4-LL$"},
        {S::Shared4, P::RoundRobin, "rr 4-LL$"},
        {S::Shared2, P::Affinity, "aff 8-LL$"},
        {S::Shared2, P::RoundRobin, "rr 8-LL$"},
        {S::Private, P::RoundRobin, "private"},
    };
    const std::vector<Placement> policyCols = {
        {S::Shared4, P::Affinity, "affinity"},
        {S::Shared4, P::RoundRobin, "round-robin"},
    };
    const std::string vsShared16 =
        "\n(1.00 = isolation with 16MB fully-shared L2)\n";
    const std::string vsShared16Slower =
        "\n(1.00 = isolation with 16MB fully-shared L2; higher is "
        "slower)\n";
    const std::string vsAffinity4 =
        "\n(1.00 = isolation, affinity, shared-4-way)\n";

    std::vector<Figure> figs;
    figs.push_back(workloadStats({
        .id = "table2",
        .title = "Workload Statistics",
        .heading = "Table II: Workload Statistics",
        .paperRef = "Table II (workload characterization)",
        .shape = "TPC-H most c2c (69%, mostly dirty); SPECjbb 52% mostly "
                 "clean; SPECweb 37%; TPC-W 15%; footprints TPC-W > "
                 "SPECweb > SPECjbb > TPC-H",
        .footer = "\nNote: blocks(model) is the synthetic working set "
                  "sized to the paper's Table II;\nblocks(touched) is "
                  "coverage within this measurement window only.\n",
    }));
    figs.push_back(isolated(
        {
            .id = "fig2",
            .title = "Isolated Workload Performance",
            .heading = "Fig 2: Isolated Workload Performance",
            .paperRef = "Figure 2 (normalized cycle count, higher = "
                        "slower)",
            .shape = "slowdown grows as per-workload cache shrinks; "
                     "affinity limits reachable capacity (worst for "
                     "TPC-W)",
            .footer = vsShared16Slower,
        },
        isoSweep, kPerf));
    figs.push_back(isolated(
        {
            .id = "fig3",
            .title = "Isolated Workload Miss Rates",
            .heading = "Fig 3: Isolated Workload Miss Rates",
            .paperRef = "Figure 3 (LLC miss rate relative to "
                        "fully-shared)",
            .shape = "miss rate rises as capacity/thread falls; RR worst "
                     "at shared-4-way (replication of read-shared data)",
            .footer = "\n(1.00 = LLC miss rate with 16MB fully-shared "
                      "L2)\n",
        },
        isoSweep, missRate(S::Shared16)));
    figs.push_back(isolated(
        {
            .id = "fig4",
            .title = "Isolated Workload Miss Latencies",
            .heading = "Fig 4: Isolated Workload Miss Latencies",
            .paperRef = "Figure 4 (average miss latency, cycles)",
            .shape = "c2c-heavy workloads (TPC-H) show the lowest "
                     "latencies; capacity-bound workloads pay memory",
            .footer = "\n(average cycles from L1 miss to fill; includes "
                      "L2, c2c transfers, and memory)\n",
        },
        {
            {S::Shared16, P::Affinity, "shared aff"},
            {S::Shared16, P::RoundRobin, "shared rr"},
            {S::Shared4, P::Affinity, "4-way aff"},
            {S::Shared4, P::RoundRobin, "4-way rr"},
            {S::Private, P::Affinity, "private aff"},
            {S::Private, P::RoundRobin, "private rr"},
        },
        {&RunResult::meanMissLatency, "miss_latency_cycles", {}, false,
         1}));
    figs.push_back(homogeneous(
        {
            .id = "fig5",
            .title = "Homogeneous Mix Performance by Policy",
            .heading = "Fig 5: Homogeneous Mix Performance by Policy",
            .paperRef = "Figure 5 (cycles/txn relative to isolation)",
            .shape = "affinity best; SPECjbb/SPECweb degrade most under "
                     "round robin",
            .footer = "\n(1.00 = one instance alone with 16MB "
                      "fully-shared L2; higher is slower)\n",
        },
        kPerf));
    figs.push_back(homogeneous(
        {
            .id = "fig6",
            .title = "Homogeneous Mix Miss Latency by Policy",
            .heading = "Fig 6: Homogeneous Mix Miss Latency by Policy",
            .paperRef = "Figure 6 (miss latency relative to isolation "
                        "with affinity)",
            .shape = "TPC-W's latency rises most from isolation to mix; "
                     "affinity lowest",
            .footer = vsAffinity4,
        },
        missLatency(S::Shared4)));
    figs.push_back(homogeneous(
        {
            .id = "fig7",
            .title = "Homogeneous Mix Miss Rates by Policy",
            .heading = "Fig 7: Homogeneous Mix Miss Rates by Policy",
            .paperRef = "Figure 7 (LLC miss rate relative to isolation)",
            .shape = "all workloads miss more under consolidation; "
                     "affinity suffers least",
            .footer = vsShared16,
        },
        missRate(S::Shared16)));
    figs.push_back(heterogeneous(
        {
            .id = "fig8",
            .title = "Heterogeneous Mix Performance",
            .heading = "Fig 8: Heterogeneous Mix Performance",
            .paperRef = "Figure 8 (cycles/txn relative to isolation, "
                        "fully-shared)",
            .shape = "TPC-H barely affected; SPECjbb degrades most, "
                     "especially with TPC-W (Mixes 7-9)",
            .footer = vsShared16Slower,
        },
        policyCols, kPerf, true));
    figs.push_back(heterogeneous(
        {
            .id = "fig9",
            .title = "Heterogeneous Mix Miss Rates",
            .heading = "Fig 9: Heterogeneous Mix Miss Rates",
            .paperRef = "Figure 9 (LLC miss rate relative to isolation)",
            .shape = "SPECjbb's miss rate jumps with TPC-W (Mixes 7-9); "
                     "TPC-H/affinity stays near 1.0",
            .footer = vsShared16,
        },
        policyCols, missRate(S::Shared16)));
    figs.push_back(heterogeneous(
        {
            .id = "fig10",
            .title = "Heterogeneous Mix Miss Latencies",
            .heading = "Fig 10: Heterogeneous Mix Miss Latencies",
            .paperRef = "Figure 10 (miss latency relative to isolation, "
                        "affinity, shared-4-way)",
            .shape = "SPECjbb least latency-sensitive; TPC-W most",
            .footer = vsAffinity4,
        },
        policyCols, missLatency(S::Shared4)));
    figs.push_back(heterogeneous(
        {
            .id = "fig11",
            .title = "Miss Latency vs Degree of Sharing",
            .heading = "Fig 11: Miss Latency vs Degree of Sharing "
                       "(heterogeneous, affinity)",
            .paperRef = "Figure 11 (miss latency relative to isolation, "
                        "affinity, shared-4-way)",
            .shape = "TPC-H best at shared-4-way; SPECjbb helped by "
                     "shared-8-way; TPC-H hurt with only 2 caches",
            .footer = vsAffinity4,
        },
        {
            {S::Shared2, P::Affinity, "shared-2-way (8$)"},
            {S::Shared4, P::Affinity, "shared-4-way (4$)"},
            {S::Shared8, P::Affinity, "shared-8-way (2$)"},
        },
        missLatency(S::Shared4)));
    figs.push_back(replication({
        .id = "fig12",
        .title = "Replicated LLC Lines",
        .heading = "Fig 12: Replicated LLC Lines (homogeneous mixes)",
        .paperRef = "Figure 12 (% of valid LLC lines with a copy in "
                    "another partition)",
        .shape = "RR > aff-rr/random; SPECjbb & SPECweb most "
                 "replication; private = max bound",
        .footer = "\n(snapshot at the end of the measurement window; "
                  "paper: RR leaves only 73%/64% of SPECjbb/SPECweb "
                  "lines un-replicated)\n",
        .firstSeed = true,
    }));
    figs.push_back(utilization({
        .id = "fig13",
        .title = "Cache Utilization per Workload",
        .heading = "Fig 13: Cache Utilization per Workload "
                   "(heterogeneous, rr, shared-4-way)",
        .paperRef = "Figure 13 (per-partition capacity share by VM)",
        .shape = "TPC-H takes < its fair 25%; TPC-W squeezes SPECjbb",
        .footer = "(fair share is 25% per VM; shares below 100% column "
                  "sums are free/other lines)\n",
        .firstSeed = true,
    }));
    return figs;
}

Rendered
render(const Figure &fig, const Runs &runs, const std::string &jsonDir)
{
    Rendered out{"", JsonReport(fig.id, fig.title,
                                jsonDir.empty()
                                    ? ""
                                    : jsonDir + "/" + fig.id + ".json")};
    std::ostringstream os;
    printHeader(os, fig.heading, fig.paperRef, fig.shape);
    fig.body(runs, os, out.json);
    os << fig.footer;
    out.text = os.str();
    return out;
}

} // namespace

RunConfig
Point::config(const RunConfig &base) const
{
    RunConfig cfg = base;
    cfg.machine.sharing = sharing;
    cfg.workloads = workloads;
    cfg.vmThreads = threads;
    cfg.policy = policy;
    return cfg;
}

json::Value
Runs::envelope(const Point &p) const
{
    return runResultJson(p.config(base), at(p));
}

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> figs = buildFigures();
    return figs;
}

std::vector<Run>
plan(const std::vector<const Figure *> &figs,
     const std::vector<std::uint64_t> &seeds)
{
    std::set<Run> seen;
    std::vector<Run> runs;
    for (const Figure *fig : figs) {
        for (const Point &p : fig->points) {
            for (const auto seed : seeds) {
                if (seen.insert({p, seed}).second)
                    runs.push_back({p, seed});
                if (fig->firstSeed)
                    break;
            }
        }
    }
    return runs;
}

std::vector<Rendered>
regenerate(const std::vector<const Figure *> &figs, const RunConfig &base,
           const std::vector<std::uint64_t> &seeds,
           const std::string &jsonDir)
{
    CONSIM_ASSERT(!seeds.empty(), "need at least one seed");
    const std::vector<Run> runs = plan(figs, seeds);
    std::vector<RunConfig> configs;
    configs.reserve(runs.size());
    for (const Run &run : runs) {
        configs.push_back(run.point.config(base));
        configs.back().seed = run.seed;
    }
    std::vector<RunResult> outcomes = benchSweep(configs);

    std::map<Run, RunResult> results;
    for (std::size_t i = 0; i < runs.size(); ++i)
        results.emplace(runs[i], std::move(outcomes[i]));

    std::vector<Rendered> rendered;
    for (const Figure *fig : figs) {
        Runs view{base, {}};
        for (const Point &p : fig->points) {
            if (view.results.count(p))
                continue;
            if (fig->firstSeed) {
                view.results.emplace(p, results.at({p, seeds.front()}));
                continue;
            }
            std::vector<RunResult> group;
            for (const auto seed : seeds)
                group.push_back(results.at({p, seed}));
            view.results.emplace(p, averageRunResults(std::move(group)));
        }
        rendered.push_back(render(*fig, view, jsonDir));
    }
    return rendered;
}

std::vector<const Figure *>
parseArgs(int argc, char **argv, std::string &jsonDir)
{
    const auto &all = figures();
    std::string usage = "paper_figures [<id>...] [--json <dir>]\n  ids:";
    for (const auto &fig : all)
        usage += " " + fig.id;
    std::vector<bool> named(all.size(), false);
    jsonDir = jsonArg(argc, argv, usage, [&](const std::string &arg) {
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (all[i].id == arg) {
                named[i] = true;
                return true;
            }
        }
        return false;
    });
    const bool none = std::find(named.begin(), named.end(), true) ==
                      named.end();
    std::vector<const Figure *> figs;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (none || named[i])
            figs.push_back(&all[i]);
    }
    return figs;
}

} // namespace consim::paper
