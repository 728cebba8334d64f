#include "figures.hh"

#include <algorithm>
#include <cstring>
#include <iterator>
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
using K = WorkloadKind;

/** The paper's machine at @p sharing. */
MachineConfig
chip(SharingDegree sharing)
{
    MachineConfig m;
    m.sharing = sharing;
    return m;
}

Point
iso(WorkloadKind kind, SchedPolicy policy, SharingDegree sharing)
{
    return {{kind}, {}, policy, chip(sharing)};
}

Point
mixed(const Mix &mix, SchedPolicy policy, SharingDegree sharing)
{
    return {mix.vms, mix.threads, policy, chip(sharing)};
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

// --- the model's extensions and ablations --------------------------

/** The paper's four workloads, in the order Fig. 14 cycles them. */
const WorkloadKind kFourKinds[] = {K::SpecJbb, K::TpcW, K::TpcH,
                                   K::SpecWeb};

/** Fully committed homogeneous-size load: cores/16 copies of the
 *  paper's 4-VM consolidation (each VM 4-threaded). */
std::vector<WorkloadKind>
scaledWorkloads(int cores)
{
    std::vector<WorkloadKind> out;
    for (int i = 0; i < cores / 4; ++i)
        out.push_back(kFourKinds[i % 4]);
    return out;
}

/** Heterogeneous consolidation: 8-, 4- and 2-thread VMs filling
 *  @p cores exactly (two 8s, two 4s, four 2s per 32 cores). */
void
heteroMix(int cores, Point &p)
{
    const int sizes[] = {8, 8, 4, 4, 2, 2, 2, 2}; // sums to 32
    for (int placed = 0, i = 0; placed < cores; ++i) {
        p.workloads.push_back(kFourKinds[i % 4]);
        p.threads.push_back(sizes[i % 8]);
        placed += sizes[i % 8];
    }
}

/** One Fig. 14 row: a chip at one sharing degree and its load. */
struct ScaleRow
{
    std::string label;
    Point point;
    bool hetero;
};

/**
 * Fig. 14's rows: 16-, 32- and 64-core meshes at the five sharing
 * degrees, with the VM count scaled to commit the chip fully, plus
 * one 2/4/8-thread heterogeneous point per scaled-out chip (the
 * paper's VMs are uniformly 4-threaded).
 */
std::vector<ScaleRow>
scaleRows()
{
    std::vector<ScaleRow> rows;
    for (const auto &[x, y] : {std::pair{4, 4}, {8, 4}, {8, 8}}) {
        const std::string mesh = std::to_string(x) + "x" + std::to_string(y);
        Point p;
        p.machine.meshX = x;
        p.machine.meshY = y;
        p.workloads = scaledWorkloads(x * y);
        for (const int degree : {1, 2, 4, 8, 16}) {
            p.machine.sharing = sharingDegree(degree);
            rows.push_back({mesh, p, false});
        }
        if (x * y > 16) {
            p.machine.sharing = S::Shared4;
            p.workloads.clear();
            heteroMix(x * y, p);
            rows.push_back({mesh + " hetero", p, true});
        }
    }
    return rows;
}

/** Fig. 14: the consolidation study on larger chips. */
Figure
scaleOut(Figure fig)
{
    const std::vector<ScaleRow> rows = scaleRows();
    for (const auto &row : rows)
        fig.points.push_back(row.point);
    fig.body = [rows](const Runs &runs, std::ostream &os,
                      JsonReport &json) {
        TextTable table({"chip", "cores", "sharing", "VMs",
                         "cycles/txn (mean)", "miss latency",
                         "net latency"});
        for (const auto &row : rows) {
            const MachineConfig &m = row.point.machine;
            const RunResult &r = runs.at(row.point);
            double cpt = 0.0, lat = 0.0;
            for (const auto &v : r.vms) {
                cpt += v.cyclesPerTransaction;
                lat += v.avgMissLatency;
            }
            const double n = static_cast<double>(r.vms.size());
            table.addRow({row.label, std::to_string(m.numCores()),
                          toString(m.sharing),
                          std::to_string(row.point.workloads.size()),
                          TextTable::num(cpt / n, 1),
                          TextTable::num(lat / n, 1),
                          TextTable::num(r.netAvgLatency, 1)});
            auto pt = runs.envelope(row.point);
            pt.set("cores", m.numCores());
            pt.set("mesh", std::to_string(m.meshX) + "x" +
                               std::to_string(m.meshY));
            pt.set("cores_per_group", coresPerGroup(m.sharing));
            pt.set("heterogeneous", row.hetero);
            json.point(std::move(pt));
        }
        table.print(os);
    };
    return fig;
}

/** One Fig. 15 scenario: a chip, an LLC size and a bully intensity,
 *  plus the protected way floor its QoS modes use. */
struct Bullied
{
    int meshX;
    int meshY;
    std::uint64_t l2Bytes; ///< 0 = library default (16 MB)
    int bullies;           ///< number of bully VMs
    int bullyThreads;      ///< threads per bully VM (the intensity)
    int ways;              ///< protected way floor for static/dynamic

    std::string
    name() const
    {
        std::string s = std::to_string(meshX * meshY) + "-core";
        if (l2Bytes)
            s += "/" + std::to_string(l2Bytes >> 20) + "MB";
        return s + " x" + std::to_string(bullies) +
               " bully(t=" + std::to_string(bullyThreads) + ")";
    }
};

/** 16-core chip: 3 bullies at rising intensity on the paper's 16 MB
 *  LLC, plus the 2 MB capacity-channel point (way floor 2). 64-core
 *  chip: 15 bullies, fully committed (the scaled-up worst case). */
const Bullied kBullied[] = {{4, 4, 0, 3, 1, 4},
                            {4, 4, 0, 3, 2, 4},
                            {4, 4, 0, 3, 4, 4},
                            {4, 4, 2ull << 20, 3, 4, 2},
                            {8, 8, 0, 15, 4, 4}};

const char *const kQosModes[] = {"no-qos", "static", "dynamic"};

/**
 * The QoS spec of @p mode. tokens=1/refill=2048 caps each bully VM to
 * one memory read per 2048 cycles per controller: even the 64-core
 * chip's 15 bullies then demand ~0.007 reads/cycle/MC, under the
 * constrained channel's 1/96 capacity, so the protected VM's reads
 * stop queueing behind the bullies'. Static and dynamic share every
 * knob, so the only delta between them is the repartitioner.
 */
std::string
qosSpec(const std::string &mode, int ways)
{
    if (mode == "no-qos")
        return "off";
    std::string s = mode + ":vm=0,ways=" + std::to_string(ways) +
                    ",vcs=1,tokens=1,refill=2048";
    if (mode == "dynamic")
        s += ",epoch=100000";
    return s;
}

/**
 * The protected SPECjbb VM on @p sc's bandwidth-constrained node,
 * with its bullies under QoS @p mode, or alone (@p mode null). The
 * node raises memIssueInterval from 4 to 96 cycles: consolidation
 * nodes are sized for the average tenant, so a streaming antagonist
 * saturates the memory controllers. Fig. 15 fixes 500k + 1M windows.
 */
Point
bullied(const Bullied &sc, const char *mode)
{
    Point p{{K::SpecJbb}, {}, P::Affinity, {}};
    p.machine.meshX = sc.meshX;
    p.machine.meshY = sc.meshY;
    p.machine.sharing = sharingDegree(sc.meshX * sc.meshY);
    p.machine.memIssueInterval = 96;
    if (sc.l2Bytes)
        p.machine.l2TotalBytes = sc.l2Bytes;
    p.warmup = 500'000;
    p.measure = 1'000'000;
    if (mode == nullptr)
        return p;
    p.threads.push_back(0); // protected VM: profile default
    for (int i = 0; i < sc.bullies; ++i) {
        p.workloads.push_back(K::Bully);
        p.threads.push_back(sc.bullyThreads);
    }
    p.qos = qosSpec(mode, sc.ways);
    return p;
}

/**
 * Fig. 15: what QoS hardware buys a protected VM against LLC-streaming
 * bully VMs (~100% miss rate) on a fully shared chip, under no QoS,
 * static partitioning (fixed L2 ways + one reserved VC + MC token
 * buckets) and dynamic (the utility-driven repartitioner). The MC
 * token buckets close the memory channel, the way partition and the
 * reserved VC the LLC and NoC channels. In the 2 MB scenario the
 * bullies' fills turn the cache over, the static floor is too small
 * for the protected VM, and the repartitioner grows past it.
 * Slowdown is relative to the protected VM alone on the same node,
 * not the paper's Fig. 2 baseline.
 */
Figure
isolation(Figure fig)
{
    for (const auto &sc : kBullied) {
        for (const char *mode : kQosModes)
            fig.points.push_back(bullied(sc, mode));
        fig.points.push_back(bullied(sc, nullptr));
    }
    fig.body = [](const Runs &runs, std::ostream &os, JsonReport &json) {
        TextTable table({"scenario", "qos", "protected cy/txn",
                         "slowdown", "prot miss lat", "bully stalls"});
        // Worst-case (over scenarios) protected slowdown per mode.
        double worst[std::size(kQosModes)] = {};
        for (const auto &sc : kBullied) {
            const double alone =
                runs.at(bullied(sc, nullptr)).vms[0].cyclesPerTransaction;
            for (std::size_t m = 0; m < std::size(kQosModes); ++m) {
                const Point p = bullied(sc, kQosModes[m]);
                RunResult r = runs.at(p);
                VmResult &prot = r.vms[0];
                const double slow =
                    alone > 0.0 ? prot.cyclesPerTransaction / alone : 0.0;
                prot.slowdownVsIsolated = slow;
                std::uint64_t bully_stalls = 0;
                for (std::size_t v = 1; v < r.vms.size(); ++v)
                    bully_stalls += r.vms[v].mcThrottleStalls;
                worst[m] = std::max(worst[m], slow);
                table.addRow({sc.name(), kQosModes[m],
                              TextTable::num(prot.cyclesPerTransaction, 0),
                              TextTable::num(slow, 3),
                              TextTable::num(prot.avgMissLatency, 1),
                              std::to_string(bully_stalls)});
                auto pt = runResultJson(p.config(runs.base), r);
                pt.set("scenario", sc.name());
                pt.set("qos_mode", kQosModes[m]);
                pt.set("bully_threads", sc.bullyThreads);
                pt.set("protected_slowdown", slow);
                json.point(std::move(pt));
            }
        }
        table.print(os);
        const bool holds = worst[0] > worst[1] && worst[1] >= worst[2];
        os << "\nworst-case protected slowdown: no-qos "
           << TextTable::num(worst[0], 3) << " > static "
           << TextTable::num(worst[1], 3) << " >= dynamic "
           << TextTable::num(worst[2], 3) << " : "
           << (holds ? "holds" : "VIOLATED") << "\n";
        auto summary = json::Value::object();
        summary.set("worst_no_qos", worst[0]);
        summary.set("worst_static", worst[1]);
        summary.set("worst_dynamic", worst[2]);
        summary.set("ordering_holds", holds);
        json.set("summary", std::move(summary));
    };
    return fig;
}

/** One Fig. 17 column: a static placement, optionally with a dynamic
 *  migration policy layered on top. */
struct SchedColumn
{
    const char *label;
    SchedPolicy base;
    const char *dynSpec; ///< "off" = static only
    bool isDynamic() const { return std::strcmp(dynSpec, "off") != 0; }
};

/** The dynamic policies all start from the affinity placement, so
 *  their delta vs "static:affinity" is purely the migrations. */
const SchedColumn kSchedColumns[] = {
    {"static:rr", P::RoundRobin, "off"},
    {"static:affinity", P::Affinity, "off"},
    {"static:aff-rr", P::AffinityRR, "off"},
    {"static:random", P::Random, "off"},
    {"load-balance", P::Affinity, "load-balance,epoch=25000"},
    {"affinity-repair", P::Affinity, "affinity-repair,epoch=25000"},
    {"contention-aware", P::Affinity, "contention-aware,epoch=25000"},
};

/** A Fig. 17 scenario: a Table IV mix, or the bursty chip (no mix). */
struct SchedScenario
{
    const char *name;
    const char *mix;
};

const SchedScenario kSchedScenarios[] = {
    {"Mix 5 (hetero)", "Mix 5"},
    {"Mix A (homog)", "Mix A"},
    {"bursty x3", nullptr},
};

/** @p sc under @p col. Fig. 17 fixes a 200k warmup and a 600k
 *  measure window (1.2M on the bursty chip). */
Point
scheduled(const SchedScenario &sc, const SchedColumn &col)
{
    Point p;
    p.warmup = 200'000;
    if (sc.mix != nullptr) {
        const Mix &mix = Mix::byName(sc.mix);
        p.workloads = mix.vms;
        p.threads = mix.threads;
        p.measure = 600'000;
    } else {
        // The bursty chip: a 2 MB L2 at sharing 2 gives eight 256 KB
        // partitions, so two packed burster threads (~160 KB hot
        // window each) overflow their partition while one alone
        // fits; three 4-thread Bursty VMs leave four cores idle —
        // headroom a migration policy can steer the bursting VM's
        // threads into.
        p.machine.sharing = S::Shared2;
        p.machine.l2TotalBytes = 2ull << 20;
        p.workloads.assign(3, K::Bursty);
        p.threads.assign(3, 4);
        p.measure = 1'200'000;
    }
    p.policy = col.base;
    p.dynSched = col.dynSpec;
    return p;
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

/**
 * Fig. 17: online thread migration vs the paper's static placements.
 * The Table IV mixes have no phase changes a policy could exploit,
 * so every migration there is churn that the feedback loop (revert
 * unhelpful swaps, exponential backoff) must keep bounded, and
 * affinity-repair, whose c2c trigger never fires on an intact
 * affinity placement, must track static affinity exactly. On the
 * bursty chip one VM's sustained burst overflows a partition when
 * two of its threads share it, and four cores sit idle, so the
 * contention-aware policy can beat every static placement.
 */
Figure
dynamicScheduling(Figure fig)
{
    for (const auto &sc : kSchedScenarios) {
        for (const auto &col : kSchedColumns)
            fig.points.push_back(scheduled(sc, col));
    }
    fig.body = [](const Runs &runs, std::ostream &os, JsonReport &json) {
        TextTable table({"scenario", "policy", "agg cy/txn", "miss rate",
                         "migrations"});
        // The best static [0] and dynamic [1] column by aggregate
        // cy/txn, of the last scenario: the bursty mix.
        double best[2] = {};
        const SchedColumn *best_col[2] = {};
        for (const auto &sc : kSchedScenarios) {
            best[0] = best[1] = 0.0;
            best_col[0] = best_col[1] = &kSchedColumns[0];
            for (const auto &col : kSchedColumns) {
                const Point p = scheduled(sc, col);
                const RunResult &r = runs.at(p);
                const double cpt = aggregateCpt(r);
                double miss = 0.0;
                for (const auto &vm : r.vms)
                    miss += vm.missRate;
                miss /= static_cast<double>(r.vms.size());
                const int d = col.isDynamic();
                if (best[d] == 0.0 || cpt < best[d]) {
                    best[d] = cpt;
                    best_col[d] = &col;
                }
                table.addRow({sc.name, col.label, TextTable::num(cpt, 1),
                              TextTable::pct(miss),
                              std::to_string(r.dynMigrations)});
                auto pt = runs.envelope(p);
                pt.set("scenario", sc.name);
                pt.set("sched_point", col.label);
                pt.set("agg_cycles_per_txn", cpt);
                json.point(std::move(pt));
            }
        }
        table.print(os);
        // A phase-changing workload is where migration must win.
        const bool dyn_wins = best[1] > 0.0 && best[1] < best[0];
        os << "\nbursty mix: best dynamic (" << best_col[1]->label << ") "
           << TextTable::num(best[1], 1) << " cy/txn vs best static ("
           << best_col[0]->label << ") " << TextTable::num(best[0], 1)
           << " : " << (dyn_wins ? "dynamic wins" : "VIOLATED") << "\n";
        auto summary = json::Value::object();
        summary.set("bursty_best_static", best[0]);
        summary.set("bursty_best_static_policy", best_col[0]->label);
        summary.set("bursty_best_dynamic", best[1]);
        summary.set("bursty_best_dynamic_policy", best_col[1]->label);
        summary.set("dynamic_beats_static", dyn_wins);
        json.set("summary", std::move(summary));
    };
    return fig;
}

/** A point an ablation reports for one workload. */
struct Focused
{
    const char *title;
    Point point;
    WorkloadKind focus;
};

/**
 * Ablation of two protocol choices (DESIGN.md section 6), each on and
 * off, on a c2c-heavy point and a consolidated one: clean forwarding
 * (a Shared sharer supplies data cache-to-cache; the paper's
 * workloads are dominated by clean c2c transfers, Table II) vs
 * classic Origin (memory supplies clean data), and per-tile directory
 * caches vs none (every home lookup fetches directory state
 * off-chip).
 */
Figure
protocolAblation(Figure fig)
{
    const std::vector<Focused> grids = {
        {"TPC-H isolated, private L2s (c2c-heavy):",
         iso(K::TpcH, P::RoundRobin, S::Private), K::TpcH},
        {"Mix 5 (2x SPECjbb + 2x TPC-H), affinity, shared-4-way "
         "(SPECjbb metrics):",
         mixed(Mix::byName("Mix 5"), P::Affinity, S::Shared4),
         K::SpecJbb},
    };
    const auto point = [](const Focused &grid, bool clean_fwd,
                          bool dir_cache) {
        Point p = grid.point;
        p.machine.cleanForwarding = clean_fwd;
        p.machine.dirCacheEnabled = dir_cache;
        return p;
    };
    for (const auto &grid : grids) {
        for (const bool clean_fwd : {true, false}) {
            for (const bool dir_cache : {true, false})
                fig.points.push_back(point(grid, clean_fwd, dir_cache));
        }
    }
    fig.body = [grids, point](const Runs &runs, std::ostream &os,
                              JsonReport &json) {
        for (const auto &grid : grids) {
            TextTable table({"clean fwd", "dir cache", "miss lat (cy)",
                             "cycles/txn", "c2c fraction"});
            for (const bool clean_fwd : {true, false}) {
                for (const bool dir_cache : {true, false}) {
                    const Point p = point(grid, clean_fwd, dir_cache);
                    const RunResult &r = runs.at(p);
                    double c2c = 0.0;
                    int n = 0;
                    for (const auto &v : r.vms) {
                        if (v.kind == grid.focus) {
                            c2c += v.c2cFraction;
                            ++n;
                        }
                    }
                    table.addRow(
                        {clean_fwd ? "on" : "off", dir_cache ? "on" : "off",
                         TextTable::num(r.meanMissLatency(grid.focus), 1),
                         TextTable::num(r.meanCyclesPerTxn(grid.focus), 0),
                         TextTable::pct(n ? c2c / n : 0.0, 0)});
                    auto pt = runs.envelope(p);
                    pt.set("label", grid.title);
                    pt.set("focus", toString(grid.focus));
                    json.point(std::move(pt));
                }
            }
            os << grid.title << "\n";
            table.print(os);
            os << "\n";
        }
    };
    return fig;
}

/**
 * The flit-level mesh vs an idealized fixed-latency network under
 * affinity and round robin: how much of the policy gap is
 * interconnect congestion and distance rather than cache behaviour.
 */
Figure
nocAblation(Figure fig)
{
    const std::vector<Focused> cases = {
        {"TPC-W isolated 4-way", iso(K::TpcW, P::Affinity, S::Shared4),
         K::TpcW},
        {"Mix C (4x SPECjbb) 4-way",
         mixed(Mix::byName("Mix C"), P::Affinity, S::Shared4),
         K::SpecJbb},
    };
    const auto point = [](const Focused &c, bool ideal, SchedPolicy policy) {
        Point p = c.point;
        p.machine.idealNoc = ideal;
        p.policy = policy;
        return p;
    };
    for (const auto &c : cases) {
        for (const bool ideal : {false, true}) {
            for (const auto policy : {P::Affinity, P::RoundRobin})
                fig.points.push_back(point(c, ideal, policy));
        }
    }
    fig.body = [cases, point](const Runs &runs, std::ostream &os,
                              JsonReport &json) {
        TextTable table({"workload/mix", "network", "policy",
                         "net latency (cy)", "miss lat (cy)",
                         "cycles/txn"});
        for (const auto &c : cases) {
            for (const bool ideal : {false, true}) {
                for (const auto policy : {P::Affinity, P::RoundRobin}) {
                    const Point p = point(c, ideal, policy);
                    const RunResult &r = runs.at(p);
                    table.addRow(
                        {c.title, ideal ? "ideal" : "mesh",
                         toString(policy),
                         TextTable::num(r.netAvgLatency, 1),
                         TextTable::num(r.meanMissLatency(c.focus), 1),
                         TextTable::num(r.meanCyclesPerTxn(c.focus), 0)});
                    auto pt = runs.envelope(p);
                    pt.set("label", c.title);
                    pt.set("network", ideal ? "ideal" : "mesh");
                    json.point(std::move(pt));
                }
            }
            table.addSeparator();
        }
        table.print(os);
    };
    return fig;
}

/** A migration row of the future-work table: Mix C from the affinity
 *  placement, static or under the dyn-sched `random` churn. */
struct Migration
{
    Cycle interval; ///< 0 = static
    const char *label;
};

const Migration kMigrations[] = {{0, "static (paper)"},
                                 {400'000, "every 400K cycles"},
                                 {100'000, "every 100K cycles"},
                                 {25'000, "every 25K cycles"}};

Point
migrating(const Migration &m)
{
    Point p = mixed(Mix::byName("Mix C"), P::Affinity, S::Shared4);
    if (m.interval != 0)
        p.dynSched =
            DynSchedConfig{DynSchedPolicy::Random, m.interval}.spec();
    return p;
}

/**
 * The paper's Sec. VII future work on the same machine: (1) threads
 * migrated periodically between cores, as by a hypervisor
 * reassigning virtual CPUs (one random pair swapped every epoch;
 * sweeping the epoch prices lost cache affinity); (2) an asymmetric
 * mix, one 8-thread SPECjbb beside two 4-thread TPC-H; (3) a higher
 * consolidation degree, two 8-thread instances instead of four
 * 4-thread ones.
 */
Figure
futureWork(Figure fig)
{
    const std::vector<std::pair<const char *, Point>> per_vm = {
        {"2) Asymmetric mix: 8-thread SPECjbb + 2x 4-thread TPC-H "
         "(affinity):",
         mixed({"", {K::SpecJbb, K::TpcH, K::TpcH}, {8, 4, 4}},
               P::Affinity, S::Shared4)},
        {"3) Higher degree: 2x 8-thread SPECjbb (affinity) -- compare "
         "with Mix C's 4x4:",
         mixed({"", {K::SpecJbb, K::SpecJbb}, {8, 8}}, P::Affinity,
               S::Shared4)},
    };
    for (const auto &m : kMigrations)
        fig.points.push_back(migrating(m));
    for (const auto &[title, p] : per_vm)
        fig.points.push_back(p);
    fig.body = [per_vm](const Runs &runs, std::ostream &os,
                        JsonReport &json) {
        os << "1) Dynamic thread migration (Mix C, affinity start, "
              "shared-4-way):\n";
        TextTable table({"migration interval", "cycles/txn",
                         "LLC miss rate", "miss lat (cy)"});
        for (const auto &m : kMigrations) {
            const Point p = migrating(m);
            const RunResult &r = runs.at(p);
            auto pt = runs.envelope(p);
            pt.set("label", m.label);
            json.point(std::move(pt));
            table.addRow({m.label,
                          TextTable::num(r.meanCyclesPerTxn(K::SpecJbb), 0),
                          TextTable::pct(r.meanMissRate(K::SpecJbb)),
                          TextTable::num(r.meanMissLatency(K::SpecJbb), 1)});
        }
        table.print(os);
        os << "\n";
        for (const auto &[title, p] : per_vm) {
            const RunResult &r = runs.at(p);
            os << title << "\n";
            TextTable vms({"vm", "threads", "cycles/txn", "LLC miss rate",
                           "miss lat (cy)"});
            for (std::size_t v = 0; v < r.vms.size(); ++v) {
                const VmResult &vm = r.vms[v];
                vms.addRow({toString(vm.kind) + " #" + std::to_string(v),
                            std::to_string(p.threads[v]),
                            TextTable::num(vm.cyclesPerTransaction, 0),
                            TextTable::pct(vm.missRate),
                            TextTable::num(vm.avgMissLatency, 1)});
            }
            vms.print(os);
            os << "\n";
            auto pt = runs.envelope(p);
            pt.set("label", title);
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
    figs.push_back(scaleOut({
        .id = "fig14",
        .title = "Consolidation at Scale",
        .heading = "Fig 14: Consolidation at Scale (16 / 32 / 64 cores)",
        .paperRef = "scale-out extension (no paper counterpart; paper "
                    "machine is the 16-core point)",
        .shape = "sharing-degree tradeoff persists at 32/64 cores; miss "
                 "latency grows with mesh diameter",
        .footer = "\n(16-core rows replay the paper's machine; 32/64-core "
                  "rows scale the consolidation load with the chip)\n",
    }));
    figs.push_back(isolation({
        .id = "fig15",
        .title = "Performance Isolation under a Bully VM",
        .heading = "Fig 15: Performance Isolation under a Bully VM",
        .paperRef = "isolation extension (no paper counterpart; the "
                    "paper consolidates cooperative commercial workloads "
                    "only)",
        .shape = "protected-VM worst-case slowdown: no-QoS > static >= "
                 "dynamic; bullies absorb the MC throttle stalls",
    }));
    figs.push_back(dynamicScheduling({
        .id = "fig17",
        .title = "Dynamic vs Static Hypervisor Scheduling",
        .heading = "Fig 17: Dynamic vs Static Hypervisor Scheduling",
        .paperRef = "dynamic-scheduling extension (no paper counterpart; "
                    "the paper's hypervisor binds threads once, before "
                    "the run)",
        .shape = "bounded churn tax vs static affinity on the steady "
                 "Table IV mixes; at least one dynamic policy beats the "
                 "best static placement on the bursty mix",
    }));
    figs.push_back(protocolAblation({
        .id = "ablation_protocol",
        .title = "Protocol design choices",
        .heading = "Ablation: protocol design choices",
        .paperRef = "DESIGN.md ablation index",
        .shape = "clean forwarding should cut miss latency for c2c-heavy "
                 "workloads; directory caches should cut latency "
                 "everywhere",
    }));
    figs.push_back(nocAblation({
        .id = "ablation_noc",
        .title = "Mesh vs ideal interconnect",
        .heading = "Ablation: mesh vs ideal interconnect",
        .paperRef = "DESIGN.md ablation index; paper SS V-A interconnect "
                    "latency discussion",
        .shape = "the RR-vs-affinity network-latency gap exists only on "
                 "the real mesh",
        .footer = "\n(ideal = fixed-latency, infinite-bandwidth network; "
                  "mesh = 4x4 VC wormhole mesh)\n",
    }));
    figs.push_back(futureWork({
        .id = "ext_future_work",
        .title = "Paper SSVII future work",
        .heading = "Extensions: paper SSVII future work",
        .paperRef = "dynamic scheduling; asymmetric thread counts; higher "
                    "consolidation degree",
        .shape = "migration churn should cost cache affinity; bigger "
                 "instances amplify intra-workload sharing",
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
    cfg.machine = machine;
    cfg.workloads = workloads;
    cfg.vmThreads = threads;
    cfg.policy = policy;
    std::string err;
    CONSIM_ASSERT(QosConfig::parse(qos, cfg.qos, &err), "qos spec: ", err);
    CONSIM_ASSERT(DynSchedConfig::parse(dynSched, cfg.dynSched, &err),
                  "dyn-sched spec: ", err);
    if (warmup != 0)
        cfg.warmupCycles = warmup;
    if (measure != 0)
        cfg.measureCycles = measure;
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
