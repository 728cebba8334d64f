#include "core/scheduler.hh"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "core/checkpoint.hh"
#include "core/system.hh"

namespace consim
{

namespace
{

/** Free-core bookkeeping per group. */
struct GroupSlots
{
    std::vector<std::vector<CoreId>> freeCores; // per group, ascending
    const MachineConfig &cfg;

    explicit GroupSlots(const MachineConfig &c)
        : freeCores(c.numGroups()), cfg(c)
    {
        refill();
    }

    /** Claim a core in @p g; invalidCore when the group is full. */
    CoreId
    claim(GroupId g)
    {
        auto &v = freeCores[g];
        if (v.empty())
            return invalidCore;
        const CoreId c = v.front();
        v.erase(v.begin());
        return c;
    }

    /**
     * Start a new over-commit layer: every slot becomes free again,
     * so further claims double up threads on already-claimed cores.
     * Called only once the whole machine is full, which keeps layers
     * balanced (no core holds thread k+2 before every core holds
     * k+1).
     */
    void
    refill()
    {
        for (GroupId g = 0; g < cfg.numGroups(); ++g)
            freeCores[g] = cfg.coresOfGroup(g);
    }

    int free(GroupId g) const
    {
        return static_cast<int>(freeCores[g].size());
    }
};

/**
 * Probe every group starting at @p g for a free core; when the
 * machine is full, open a new over-commit layer and claim again.
 * @param g in/out: updated to the group that supplied the core.
 */
CoreId
claimOrOverCommit(GroupSlots &slots, int num_groups, GroupId &g)
{
    for (int layer = 0; layer < 2; ++layer) {
        for (int probe = 0; probe < num_groups; ++probe) {
            const GroupId cand = (g + probe) % num_groups;
            const CoreId core = slots.claim(cand);
            if (core != invalidCore) {
                g = cand;
                return core;
            }
        }
        slots.refill();
    }
    CONSIM_FATAL("unreachable: refilled slots yielded no core");
}

std::vector<ThreadPlacement>
scheduleRoundRobin(const MachineConfig &cfg,
                   const std::vector<int> &threads_per_vm)
{
    GroupSlots slots(cfg);
    const int num_groups = cfg.numGroups();
    std::vector<ThreadPlacement> out;
    // Each VM starts again at group 0, so every partition receives
    // one thread from each workload (Fig. 1, round robin).
    for (VmId vm = 0; vm < static_cast<VmId>(threads_per_vm.size());
         ++vm) {
        GroupId g = 0;
        for (int t = 0; t < threads_per_vm[vm]; ++t) {
            const CoreId core = claimOrOverCommit(slots, num_groups, g);
            g = (g + 1) % num_groups;
            out.push_back({vm, t, core});
        }
    }
    return out;
}

std::vector<ThreadPlacement>
scheduleAffinity(const MachineConfig &cfg,
                 const std::vector<int> &threads_per_vm)
{
    GroupSlots slots(cfg);
    const int num_groups = cfg.numGroups();
    std::vector<ThreadPlacement> out;
    GroupId g = 0;
    // Pack each VM's threads into as few partitions as possible,
    // filling a partition completely before moving on.
    for (VmId vm = 0; vm < static_cast<VmId>(threads_per_vm.size());
         ++vm) {
        for (int t = 0; t < threads_per_vm[vm]; ++t) {
            // claimOrOverCommit leaves g at the supplying group, so
            // the VM stays in this group until it fills.
            const CoreId core = claimOrOverCommit(slots, num_groups, g);
            out.push_back({vm, t, core});
        }
    }
    return out;
}

std::vector<ThreadPlacement>
scheduleAffinityRr(const MachineConfig &cfg,
                   const std::vector<int> &threads_per_vm)
{
    GroupSlots slots(cfg);
    const int num_groups = cfg.numGroups();
    const int pair = std::min(2, coresPerGroup(cfg.sharing));
    std::vector<ThreadPlacement> out;
    GroupId g = 0;
    // Round robin over partitions in units of thread pairs, so at
    // least two threads of a workload co-reside (paper hybrid). With
    // private caches this degenerates to plain round robin.
    for (VmId vm = 0; vm < static_cast<VmId>(threads_per_vm.size());
         ++vm) {
        int placed_in_group = 0;
        for (int t = 0; t < threads_per_vm[vm]; ++t) {
            if (placed_in_group == pair) {
                g = (g + 1) % num_groups;
                placed_in_group = 0;
            }
            const GroupId prev = g;
            const CoreId core = claimOrOverCommit(slots, num_groups, g);
            if (g != prev)
                placed_in_group = 0;
            ++placed_in_group;
            out.push_back({vm, t, core});
        }
        g = (g + 1) % num_groups;
        placed_in_group = 0;
    }
    return out;
}

std::vector<ThreadPlacement>
scheduleRandom(const MachineConfig &cfg,
               const std::vector<int> &threads_per_vm,
               std::uint64_t seed)
{
    std::vector<CoreId> cores(cfg.numCores());
    std::iota(cores.begin(), cores.end(), 0);
    Rng rng(seed ^ 0xc0ffee);
    rng.shuffle(cores);

    std::vector<ThreadPlacement> out;
    std::size_t next = 0;
    for (VmId vm = 0; vm < static_cast<VmId>(threads_per_vm.size());
         ++vm) {
        for (int t = 0; t < threads_per_vm[vm]; ++t) {
            // Over-commit wraps around the shuffled order, layering
            // a second thread on every core before a third, etc.
            out.push_back({vm, t, cores[next % cores.size()]});
            ++next;
        }
    }
    return out;
}

} // namespace

std::vector<ThreadPlacement>
scheduleThreads(const MachineConfig &cfg,
                const std::vector<int> &threads_per_vm,
                SchedPolicy policy, std::uint64_t seed)
{
    const int total =
        std::accumulate(threads_per_vm.begin(), threads_per_vm.end(), 0);

    std::vector<ThreadPlacement> out;
    switch (policy) {
      case SchedPolicy::RoundRobin:
        out = scheduleRoundRobin(cfg, threads_per_vm);
        break;
      case SchedPolicy::Affinity:
        out = scheduleAffinity(cfg, threads_per_vm);
        break;
      case SchedPolicy::AffinityRR:
        out = scheduleAffinityRr(cfg, threads_per_vm);
        break;
      case SchedPolicy::Random:
        out = scheduleRandom(cfg, threads_per_vm, seed);
        break;
    }

    // Sanity: over-commit fills in balanced layers — no core holds
    // more than ceil(total / numCores) threads, and none holds a
    // second thread unless every core holds a first.
    const int layers =
        (total + cfg.numCores() - 1) / std::max(1, cfg.numCores());
    std::vector<int> used(cfg.numCores(), 0);
    for (const auto &p : out) {
        ++used[p.core];
        CONSIM_ASSERT(used[p.core] <= layers, "core ", p.core,
                      " over-booked (", used[p.core], " threads, ",
                      layers, " layers)");
    }
    return out;
}

// ---------------------------------------------------------------- //
// Dynamic-scheduling spec grammar.                                  //
// ---------------------------------------------------------------- //

namespace
{

constexpr const char *dynGrammar =
    "off | load-balance[,epoch=E] | affinity-repair[,epoch=E] | "
    "contention-aware[,epoch=E] | random[,epoch=E]";

bool
dynFail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg + " (valid: " + dynGrammar + ")";
    return false;
}

} // namespace

const char *
toString(DynSchedPolicy p)
{
    switch (p) {
      case DynSchedPolicy::Off:
        return "off";
      case DynSchedPolicy::LoadBalance:
        return "load-balance";
      case DynSchedPolicy::AffinityRepair:
        return "affinity-repair";
      case DynSchedPolicy::ContentionAware:
        return "contention-aware";
      case DynSchedPolicy::Random:
        return "random";
    }
    return "?";
}

bool
DynSchedConfig::parse(const std::string &text, DynSchedConfig &out,
                      std::string *err)
{
    DynSchedConfig d;
    const std::vector<std::string> parts = splitSpec(text, ',');
    if (parts.empty())
        return dynFail(err, "empty dyn-sched spec");
    const std::string &policy = parts[0];
    if (policy == "off") {
        if (parts.size() > 1)
            return dynFail(err,
                           "dyn-sched policy 'off' takes no parameters");
        out = d;
        return true;
    }
    if (policy == "load-balance") {
        d.policy = DynSchedPolicy::LoadBalance;
    } else if (policy == "affinity-repair") {
        d.policy = DynSchedPolicy::AffinityRepair;
    } else if (policy == "contention-aware") {
        d.policy = DynSchedPolicy::ContentionAware;
    } else if (policy == "random") {
        d.policy = DynSchedPolicy::Random;
    } else {
        return dynFail(err, "unknown dyn-sched policy '" + policy +
                                "' (off|load-balance|affinity-repair|"
                                "contention-aware|random)");
    }
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &kv = parts[i];
        const auto eq = kv.find('=');
        if (eq == std::string::npos)
            return dynFail(err, "expected key=value, got '" + kv + "'");
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        std::uint64_t v = 0;
        if (!parseU64(val, v))
            return dynFail(err, "bad number '" + val + "' for " + key);
        if (key == "epoch") {
            d.epochCycles = v;
        } else {
            return dynFail(err,
                           "unknown dyn-sched parameter '" + key + "'");
        }
    }
    if (d.epochCycles < 1)
        return dynFail(err, "epoch must be >= 1");
    out = d;
    return true;
}

std::string
DynSchedConfig::spec() const
{
    if (policy == DynSchedPolicy::Off)
        return "off";
    std::ostringstream os;
    os << toString(policy) << ",epoch=" << epochCycles;
    return os.str();
}

json::Value
DynSchedConfig::toJson() const
{
    auto v = json::Value::object();
    v.set("policy", toString(policy));
    if (policy == DynSchedPolicy::Off)
        return v;
    v.set("epoch_cycles", epochCycles);
    return v;
}

// ---------------------------------------------------------------- //
// The migration policies.                                           //
// ---------------------------------------------------------------- //

namespace
{

/**
 * Shared partner scan: the best swap partner inside @p g — idle
 * eligible cores first (a migration, not an exchange), otherwise the
 * eligible core scoring lowest under @p score; ties toward the lowest
 * core id. @p exclude is skipped. invalidCore when the group offers
 * no eligible endpoint.
 */
template <typename ScoreFn>
CoreId
pickPartnerInGroup(const MachineConfig &cfg, const DynSample &s,
                   GroupId g, CoreId exclude, ScoreFn score)
{
    CoreId best = invalidCore;
    double best_score = 0.0;
    for (const CoreId c : cfg.coresOfGroup(g)) {
        if (c == exclude || !s.cores[c].eligible)
            continue;
        if (s.cores[c].idle)
            return c; // ascending scan: lowest-id idle core wins
        const double sc = score(c);
        if (best == invalidCore || sc < best_score) {
            best = c;
            best_score = sc;
        }
    }
    return best;
}

/**
 * Load balance: equalize per-group aggregate retired load. Moves the
 * busiest thread of the heaviest group toward the lightest group when
 * the spread exceeds 1/8 of the heavy group's load.
 */
class LoadBalancePolicy : public MigrationPolicy
{
  public:
    const char *name() const override { return "load-balance"; }

    ThreadSwap
    decide(const MachineConfig &cfg, const DynSample &s) const override
    {
        std::vector<std::uint64_t> load(cfg.numGroups(), 0);
        for (CoreId c = 0; c < static_cast<CoreId>(s.cores.size());
             ++c)
            load[cfg.groupOfCore(c)] += s.cores[c].retired;
        GroupId hi = 0, lo = 0;
        for (GroupId g = 1; g < cfg.numGroups(); ++g) {
            if (load[g] > load[hi])
                hi = g;
            if (load[g] < load[lo])
                lo = g;
        }
        if (hi == lo || load[hi] == 0 ||
            load[hi] - load[lo] < load[hi] / 8)
            return {};
        // Victim: the busiest migratable thread of the heavy group.
        CoreId victim = invalidCore;
        for (const CoreId c : cfg.coresOfGroup(hi)) {
            if (!s.cores[c].eligible || s.cores[c].idle)
                continue;
            if (victim == invalidCore ||
                s.cores[c].retired > s.cores[victim].retired)
                victim = c;
        }
        if (victim == invalidCore)
            return {};
        const CoreId partner = pickPartnerInGroup(
            cfg, s, lo, victim,
            [&](CoreId c) {
                return static_cast<double>(s.cores[c].retired);
            });
        // Swapping two equally-busy threads is churn, not balance.
        if (partner == invalidCore ||
            (!s.cores[partner].idle &&
             s.cores[partner].retired >= s.cores[victim].retired))
            return {};
        return {victim, partner};
    }
};

/**
 * Affinity repair: when a VM pays a high cache-to-cache fraction, its
 * sharers are split across L2 partitions — re-pack a stray thread
 * into the VM's most-populated (home) group.
 */
class AffinityRepairPolicy : public MigrationPolicy
{
  public:
    const char *name() const override { return "affinity-repair"; }

    ThreadSwap
    decide(const MachineConfig &cfg, const DynSample &s) const override
    {
        // VMs by c2c fraction, worst first; ties toward the lower id.
        std::vector<VmId> order;
        for (VmId v = 0; v < static_cast<VmId>(s.vms.size()); ++v) {
            const DynVmSample &vm = s.vms[v];
            if (vm.l2Misses >= kMinMisses &&
                vm.c2cTransfers * 5 >= vm.l2Misses) // >= 20% c2c
                order.push_back(v);
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](VmId a, VmId b) {
                             return frac(s.vms[a]) > frac(s.vms[b]);
                         });
        for (const VmId vm : order) {
            // Thread census per group for this VM.
            std::vector<int> pop(cfg.numGroups(), 0);
            for (CoreId c = 0;
                 c < static_cast<CoreId>(s.cores.size()); ++c)
                if (s.cores[c].vm == vm && !s.cores[c].idle)
                    ++pop[cfg.groupOfCore(c)];
            GroupId home = 0;
            int spread = 0;
            for (GroupId g = 0; g < cfg.numGroups(); ++g) {
                if (pop[g] > 0)
                    ++spread;
                if (pop[g] > pop[home])
                    home = g;
            }
            if (spread <= 1)
                continue; // already packed
            // Stray: the lowest-id migratable thread outside home.
            CoreId stray = invalidCore;
            for (CoreId c = 0;
                 c < static_cast<CoreId>(s.cores.size()); ++c) {
                if (s.cores[c].vm == vm && !s.cores[c].idle &&
                    s.cores[c].eligible &&
                    cfg.groupOfCore(c) != home) {
                    stray = c;
                    break;
                }
            }
            if (stray == invalidCore)
                continue;
            // Partner: a non-sharer slot inside home (idle preferred,
            // else the lightest foreign thread).
            CoreId partner = invalidCore;
            double partner_score = 0.0;
            for (const CoreId c : cfg.coresOfGroup(home)) {
                if (!s.cores[c].eligible || s.cores[c].vm == vm)
                    continue;
                if (s.cores[c].idle) {
                    partner = c;
                    break;
                }
                const double sc =
                    static_cast<double>(s.cores[c].retired);
                if (partner == invalidCore || sc < partner_score) {
                    partner = c;
                    partner_score = sc;
                }
            }
            if (partner == invalidCore)
                continue;
            return {stray, partner};
        }
        return {};
    }

  private:
    static constexpr std::uint64_t kMinMisses = 64;

    static double
    frac(const DynVmSample &v)
    {
        return static_cast<double>(v.c2cTransfers) /
               static_cast<double>(v.l2Misses);
    }
};

/**
 * Contention aware: evict the thread with the worst per-VM L2
 * miss-rate delta from the most-contended partition toward the
 * least-contended one.
 */
class ContentionAwarePolicy : public MigrationPolicy
{
  public:
    const char *name() const override { return "contention-aware"; }

    ThreadSwap
    decide(const MachineConfig &cfg, const DynSample &s) const override
    {
        GroupId hi = invalidGroup, lo = invalidGroup;
        double hi_rate = 0.0, lo_rate = 0.0;
        // A quiet partition is the perfect migration target but a
        // meaningless eviction source, so only the source needs a
        // minimum-traffic gate. The gate is relative — a quarter of
        // the mean per-group traffic, floored at kMinAccesses — so
        // short epochs on small partitions still expose their
        // thrashers while a trickle next to busy groups stays gated.
        std::uint64_t total = 0;
        for (const DynGroupSample &gs : s.groups)
            total += gs.l2Hits + gs.l2Misses;
        const std::uint64_t gate = std::max<std::uint64_t>(
            kMinAccesses,
            total / (4 * static_cast<std::uint64_t>(cfg.numGroups())));
        for (GroupId g = 0; g < cfg.numGroups(); ++g) {
            const DynGroupSample &gs = s.groups[g];
            const std::uint64_t acc = gs.l2Hits + gs.l2Misses;
            const double rate =
                acc ? static_cast<double>(gs.l2Misses) /
                          static_cast<double>(acc)
                    : 0.0;
            if (acc >= gate &&
                (hi == invalidGroup || rate > hi_rate)) {
                hi = g;
                hi_rate = rate;
            }
            if (lo == invalidGroup || rate < lo_rate) {
                lo = g;
                lo_rate = rate;
            }
        }
        if (hi == invalidGroup || hi == lo ||
            hi_rate - lo_rate < kMinMargin)
            return {};
        // Victim: the thread whose VM suffers the worst miss rate.
        CoreId victim = invalidCore;
        double victim_rate = 0.0;
        for (const CoreId c : cfg.coresOfGroup(hi)) {
            if (!s.cores[c].eligible || s.cores[c].idle)
                continue;
            const double r = vmMissRate(s, c);
            if (victim == invalidCore || r > victim_rate) {
                victim = c;
                victim_rate = r;
            }
        }
        if (victim == invalidCore)
            return {};
        const CoreId partner = pickPartnerInGroup(
            cfg, s, lo, victim,
            [&](CoreId c) { return vmMissRate(s, c); });
        if (partner == invalidCore)
            return {};
        return {victim, partner};
    }

  private:
    static constexpr std::uint64_t kMinAccesses = 32;
    static constexpr double kMinMargin = 0.05;

    static double
    vmMissRate(const DynSample &s, CoreId c)
    {
        const DynVmSample &v = s.vms[s.cores[c].vm];
        return static_cast<double>(v.l2Misses) /
               static_cast<double>(std::max<std::uint64_t>(
                   1, v.l2Accesses));
    }
};

/**
 * Random: the paper's SSVII hypervisor churn. Every epoch swaps a
 * pair drawn uniformly from the legal pairs (two distinct eligible
 * cores, not both idle). The draw hashes (run seed, epoch index), so
 * the policy keeps no RNG state and a resumed run draws the same
 * pairs.
 */
class RandomPolicy : public MigrationPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed) : seed_(seed) {}

    const char *name() const override { return "random"; }

    ThreadSwap
    decide(const MachineConfig &, const DynSample &s) const override
    {
        std::vector<CoreId> eligible;
        bool busy = false;
        for (CoreId c = 0; c < static_cast<CoreId>(s.cores.size()); ++c) {
            if (s.cores[c].eligible) {
                eligible.push_back(c);
                busy |= !s.cores[c].idle;
            }
        }
        if (!busy || eligible.size() < 2)
            return {};
        // Rejection sampling ends: a legal pair exists.
        Rng rng(mixBits(seed_) ^ s.epoch);
        for (;;) {
            const CoreId a = eligible[rng.below(eligible.size())];
            const CoreId b = eligible[rng.below(eligible.size())];
            if (a != b && !(s.cores[a].idle && s.cores[b].idle))
                return {a, b};
        }
    }

  private:
    std::uint64_t seed_;
};

} // namespace

std::unique_ptr<MigrationPolicy>
makeMigrationPolicy(DynSchedPolicy p, std::uint64_t seed)
{
    switch (p) {
      case DynSchedPolicy::LoadBalance:
        return std::make_unique<LoadBalancePolicy>();
      case DynSchedPolicy::AffinityRepair:
        return std::make_unique<AffinityRepairPolicy>();
      case DynSchedPolicy::ContentionAware:
        return std::make_unique<ContentionAwarePolicy>();
      case DynSchedPolicy::Random:
        return std::make_unique<RandomPolicy>(seed);
      case DynSchedPolicy::Off:
        break;
    }
    CONSIM_FATAL("no migration policy for '", toString(p), "'");
}

namespace
{

/** Baseline rows as a JSON array of arrays. */
template <std::size_t N>
json::Value
rowsJson(const std::vector<std::array<std::uint64_t, N>> &rows)
{
    auto out = json::Value::array();
    for (const auto &r : rows) {
        auto row = json::Value::array();
        for (const std::uint64_t x : r)
            row.push(x);
        out.push(std::move(row));
    }
    return out;
}

/** Inverse of rowsJson; the row count must match the machine's. */
template <std::size_t N>
void
loadRows(const json::Value &v,
         std::vector<std::array<std::uint64_t, N>> &rows, const char *what)
{
    CONSIM_ASSERT(v.size() == rows.size(), "checkpoint: dyn-sched ",
                  what, "-baseline count mismatch");
    for (std::size_t i = 0; i < rows.size(); ++i)
        for (std::size_t k = 0; k < N; ++k)
            rows[i][k] = v.at(i).at(k).asUint();
}

} // namespace

void
DynScheduler::configure(const DynSchedConfig &dyn, std::uint64_t seed,
                        const MachineConfig &m, int num_vms)
{
    if (dyn.enabled()) {
        CONSIM_ASSERT(m.numGroups() >= 1,
                      "dyn-sched needs at least one sharing group");
    }
    *this = DynScheduler();
    cfg_ = dyn;
    policy_ =
        dyn.enabled() ? makeMigrationPolicy(dyn.policy, seed) : nullptr;
    lastRetired_.assign(m.numCores(), 0);
    lastVm_.assign(num_vms, {0, 0, 0});
    lastGroup_.assign(m.numGroups(), {0, 0});
}

void
DynScheduler::rebaseline()
{
    std::fill(lastRetired_.begin(), lastRetired_.end(), 0);
    std::fill(lastVm_.begin(), lastVm_.end(),
              std::array<std::uint64_t, 3>{0, 0, 0});
    std::fill(lastGroup_.begin(), lastGroup_.end(),
              std::array<std::uint64_t, 2>{0, 0});
}

DynSample
DynScheduler::takeSample(System &sys)
{
    const MachineConfig &m = sys.config();
    DynSample s;
    s.epoch = sys.now() / cfg_.epochCycles;
    s.cores.resize(m.numCores());
    for (CoreId c = 0; c < m.numCores(); ++c) {
        const Core &core = sys.core(c);
        DynCoreSample &cs = s.cores[c];
        cs.vm = core.vm();
        cs.idle = core.idle();
        // Migration legality: over-committed cores rotate a run
        // queue the swap would fight with, and wedged cores never
        // reach the instruction boundary a deferred rebind lands on.
        // Cores blocked on a miss ARE eligible — in a memory-bound
        // workload a busy core is mid-miss at almost every epoch
        // boundary, so requiring !blocked() here would starve every
        // policy; scheduleRebind() parks the migration until the
        // fill returns instead.
        cs.eligible = !core.multiplexed() && !core.wedged();
        const std::uint64_t now = core.coreStats().instructions.value();
        cs.retired = now - lastRetired_[c];
        lastRetired_[c] = now;
    }
    s.vms.resize(lastVm_.size());
    for (VmId v = 0; v < sys.numVms(); ++v) {
        const VmStats &vs = sys.vm(v).vmStats();
        const std::uint64_t acc = vs.l2Accesses.value();
        const std::uint64_t miss = vs.l2Misses.value();
        const std::uint64_t c2c =
            vs.c2cClean.value() + vs.c2cDirty.value();
        DynVmSample &out = s.vms[v];
        out.l2Accesses = acc - lastVm_[v][0];
        out.l2Misses = miss - lastVm_[v][1];
        out.c2cTransfers = c2c - lastVm_[v][2];
        lastVm_[v] = {acc, miss, c2c};
    }
    s.groups.resize(m.numGroups());
    std::vector<std::array<std::uint64_t, 2>> totals(
        m.numGroups(), std::array<std::uint64_t, 2>{0, 0});
    for (CoreId t = 0; t < m.numCores(); ++t) {
        const L2BankStats &bs = sys.bank(t).bankStats();
        totals[sys.groupOfTile(t)][0] += bs.hits.value();
        totals[sys.groupOfTile(t)][1] += bs.misses.value();
    }
    for (GroupId g = 0; g < m.numGroups(); ++g) {
        s.groups[g].l2Hits = totals[g][0] - lastGroup_[g][0];
        s.groups[g].l2Misses = totals[g][1] - lastGroup_[g][1];
        lastGroup_[g] = totals[g];
    }
    return s;
}

void
DynScheduler::epoch(System &sys)
{
    // A prior swap whose endpoints were mid-miss may still be
    // parked; deciding on top of it would double-bind a stream.
    // Miss latencies are orders of magnitude below any epoch, so
    // this skip fires only when an epoch boundary races a fill.
    for (CoreId c = 0; c < sys.config().numCores(); ++c)
        if (sys.core(c).rebindPending())
            return;
    // Baselines advance every epoch even while holding, so a
    // decision after a backoff window sees one epoch's delta, not a
    // stale accumulation.
    const DynSample s = takeSample(sys);
    std::uint64_t epochMiss = 0, epochAcc = 0;
    for (const DynVmSample &v : s.vms) {
        epochMiss += v.l2Misses;
        epochAcc += v.l2Accesses;
    }
    if (hold_ > 0) {
        --hold_;
        return;
    }
    if (eval_.decided()) {
        // Verdict on the last swap: the chip miss rate must have
        // dropped by at least one point (integer cross-product
        // comparison; no float rounding in the resume path). A swap
        // that did not pay is reverted and the policy backs off
        // exponentially, so steady workloads converge to near-zero
        // churn while a later phase change re-engages within epochs.
        const bool helped =
            epochAcc > 0 && preAcc_ > 0 &&
            100 * epochMiss * preAcc_ + epochAcc * preAcc_ <=
                100 * preMiss_ * epochAcc;
        if (helped) {
            backoff_ = 1;
        } else {
            // Revert unless an endpoint was wedged by fault
            // injection in the meantime (it can never reach the
            // rebind boundary).
            if (!sys.core(eval_.a).wedged() && !sys.core(eval_.b).wedged())
                applySwap(sys, eval_);
            hold_ = backoff_;
            backoff_ = std::min<std::uint32_t>(backoff_ * 2, 64);
            eval_ = {};
            return;
        }
        eval_ = {};
    }
    const ThreadSwap swap = policy_->decide(sys.config(), s);
    if (!swap.decided())
        return;
    const Core &ca = sys.core(swap.a);
    const Core &cb = sys.core(swap.b);
    CONSIM_ASSERT(swap.a != swap.b && !ca.multiplexed() &&
                      !cb.multiplexed() && !ca.wedged() &&
                      !cb.wedged() && !(ca.idle() && cb.idle()),
                  "policy '", policy_->name(),
                  "' proposed an illegal swap (", swap.a, " <-> ",
                  swap.b, ")");
    applySwap(sys, swap);
    // Random swaps model churn, not a search for a better placement:
    // the feedback loop never judges (or reverts) them.
    if (cfg_.policy == DynSchedPolicy::Random)
        return;
    eval_ = swap;
    preMiss_ = epochMiss;
    preAcc_ = epochAcc;
    hold_ = 1; // one warm-up epoch before the verdict
}

void
DynScheduler::applySwap(System &sys, const ThreadSwap &swap)
{
    // Exchange the bindings; each endpoint installs at its own next
    // clean instruction boundary (immediately when free, at the fill
    // return when blocked).
    Core &ca = sys.core(swap.a);
    Core &cb = sys.core(swap.b);
    InstrStream *sa = ca.stream();
    const VmId va = ca.vm();
    InstrStream *sb = cb.stream();
    const VmId vb = cb.vm();
    ca.scheduleRebind(sb, vb);
    cb.scheduleRebind(sa, va);
    ++migrations_;
}

json::Value
DynScheduler::saveState() const
{
    auto d = json::Value::object();
    d.set("migrations", migrations_);
    auto retired = json::Value::array();
    for (const std::uint64_t r : lastRetired_)
        retired.push(r);
    d.set("last_retired", std::move(retired));
    d.set("last_vm", rowsJson(lastVm_));
    d.set("last_group", rowsJson(lastGroup_));
    // Feedback-loop state: backoff window and (when a swap awaits its
    // verdict) the swap plus the pre-swap epoch miss/access totals it
    // is judged against.
    d.set("hold", hold_);
    d.set("backoff", backoff_);
    if (eval_.decided()) {
        auto ev = json::Value::array();
        ev.push(eval_.a);
        ev.push(eval_.b);
        ev.push(preMiss_);
        ev.push(preAcc_);
        d.set("eval", std::move(ev));
    }
    return d;
}

void
DynScheduler::restoreState(const json::Value &d)
{
    CONSIM_ASSERT(enabled(),
                  "checkpoint carries dynamic-scheduling "
                  "runtime state but the rebuilt machine has "
                  "it off — reinstall the dyn-sched config "
                  "before restore");
    migrations_ = ckptField(d, "migrations").asUint();
    const json::Value &retired = ckptField(d, "last_retired");
    CONSIM_ASSERT(retired.size() == lastRetired_.size(),
                  "checkpoint: dyn-sched core-baseline count "
                  "mismatch");
    for (std::size_t i = 0; i < retired.size(); ++i)
        lastRetired_[i] = retired.at(i).asUint();
    loadRows(ckptField(d, "last_vm"), lastVm_, "VM");
    loadRows(ckptField(d, "last_group"), lastGroup_, "group");
    hold_ = static_cast<std::uint32_t>(ckptField(d, "hold").asUint());
    backoff_ =
        static_cast<std::uint32_t>(ckptField(d, "backoff").asUint());
    if (const json::Value *ev = d.find("eval")) {
        eval_.a = static_cast<CoreId>(ev->at(0).number());
        eval_.b = static_cast<CoreId>(ev->at(1).number());
        preMiss_ = ev->at(2).asUint();
        preAcc_ = ev->at(3).asUint();
    }
}

} // namespace consim
