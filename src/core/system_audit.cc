/**
 * @file
 * System's hardening layer: fault injection, the forward-progress
 * watchdog and the cycle deadline (run()'s last two service points,
 * which trip through one helper), the window and quiescence audits,
 * and the `consim.diag.v1` dump every trip carries.
 */

#include "core/system.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"
#include "noc/mesh.hh"

namespace consim
{

namespace
{

/** Age past which a transaction counts as leaked (stuck-txn audit). */
constexpr Cycle kStuckTxnLimit = 20'000;

/**
 * @return the blocks a directory audit walks, ascending: every
 * stored entry, and every block in @p cached (keyed by block). An
 * absent entry reads as Invalid, so a cached block without one is a
 * violation only the second set shows.
 */
template <typename Map>
std::vector<BlockAddr>
auditedBlocks(const DirectoryStorage &dir, const Map &cached)
{
    std::vector<BlockAddr> blocks = dir.blocks();
    for (const auto &kv : cached) {
        if (!dir.contains(kv.first))
            blocks.push_back(kv.first);
    }
    std::sort(blocks.begin(), blocks.end());
    return blocks;
}

} // namespace

// ---------------------------------------------------------------------
// Faults, watchdog, deadline
// ---------------------------------------------------------------------

void
System::setFaultPlan(const FaultPlan &plan)
{
    faultPlan_ = plan;
    for (const auto &e : faultPlan_.events) {
        switch (e.kind) {
          case FaultKind::WedgeCore: {
            CONSIM_ASSERT(e.core >= 0 && e.core < cfg_.numCores(),
                          "wedge fault for nonexistent core ", e.core);
            const CoreId c = e.core;
            if (e.at <= now_) {
                cores_[c]->wedge();
            } else {
                enqueue(sysSrc_, e.at - now_,
                        SimEvent(SimEventKind::WedgeCore, c, 0));
            }
            break;
          }
          case FaultKind::DropResponse:
            dropArmed_ = true;
            dropCountdown_ = e.nth;
            break;
          case FaultKind::MemBurst:
            memBurstArmed_ = true;
            memBurstStart_ = e.at;
            memBurstEnd_ = e.at + e.len;
            memBurstExtra_ = e.extra;
            break;
        }
    }
}

void
System::trip(SimErrorKind kind, const std::string &msg,
             const std::string &reason) const
{
    SimError err(kind, msg, diagJson(reason).dump(2));
    err.setCkpt(ckptLatest_);
    throw err;
}

void
System::deadlineCheck() const
{
    if (now_ < runEnd_) {
        trip(SimErrorKind::Deadline,
             logging::format("cycle deadline ", services_[Deadline].at,
                             " reached with ", runEnd_ - now_,
                             " cycles of work remaining"),
             "cycle deadline exceeded");
    }
}

void
System::setWatchdogInterval(Cycle interval)
{
    watchdogInterval_ = interval;
    services_[Watchdog].at = kNever;
    if (interval != 0)
        watchdogBaseline();
}

void
System::watchdogBaseline()
{
    services_[Watchdog].at = now_ + watchdogInterval_;
    wdSnap_.executed = events_.executed();
    wdSnap_.ejected = netStats_.ejectedTotal;
    wdSnap_.retired.resize(cores_.size());
    wdSnap_.blocked.resize(cores_.size());
    wdSnap_.retiredSum = 0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        wdSnap_.retired[i] = cores_[i]->retiredTotal();
        wdSnap_.retiredSum += wdSnap_.retired[i];
        wdSnap_.blocked[i] = cores_[i]->blocked() ? 1 : 0;
    }
}

void
System::watchdogCheck()
{
    std::uint64_t retiredSum = 0;
    for (const auto &c : cores_)
        retiredSum += c->retiredTotal();

    // Condition A: the machine as a whole did nothing over the whole
    // interval — no events executed, no packets delivered, no
    // instructions retired — yet work is still in flight.
    const bool globalProgress =
        events_.executed() != wdSnap_.executed ||
        netStats_.ejectedTotal != wdSnap_.ejected ||
        retiredSum != wdSnap_.retiredSum;
    if (!globalProgress && !quiesced()) {
        trip(SimErrorKind::Watchdog,
             logging::format("no forward progress over ",
                             watchdogInterval_, " cycles (cycle ", now_,
                             ")"),
             "watchdog: no global progress");
    }

    // Condition B: a core with a bound thread sat blocked at both
    // interval boundaries and retired nothing in between. No
    // legitimate miss takes a full watchdog interval.
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const Core &c = *cores_[i];
        if (!c.idle() && c.blocked() && wdSnap_.blocked[i] &&
            c.retiredTotal() == wdSnap_.retired[i]) {
            trip(SimErrorKind::Watchdog,
                 logging::format("core ", i, " made no progress over ",
                                 watchdogInterval_, " cycles (cycle ",
                                 now_, c.wedged() ? ", wedged" : "", ")"),
                 logging::format("watchdog: core ", i, " stalled"));
        }
    }

    watchdogBaseline();
}

// ---------------------------------------------------------------------
// Audits
// ---------------------------------------------------------------------

void
System::checkInvariants() const
{
    for (const auto &l1 : l1s_)
        l1->checkInvariants();
    for (const auto &b : banks_)
        b->checkInvariants();
    // Binding audit: a thread runs on one core at a time. Threads
    // need not all be held (tests bind hand-built streams).
    std::unordered_map<const InstrStream *, CoreId> holder;
    for (const auto &c : cores_) {
        c->forEachHeld([&](const InstrStream *stream) {
            const auto [it, fresh] = holder.emplace(stream, c->tile());
            CONSIM_ASSERT(fresh, "instruction stream held by 2 cores (",
                          it->second, " and ", c->tile(), ")");
        });
    }
}

void
System::auditDirectory() const
{
    // The ground truth: which partitions hold each block, which of
    // them hold it E/M or dirty, and whether one partition holds two
    // copies.
    struct Copies
    {
        GroupSet held;
        GroupSet dirty;
        bool doubled = false;
    };
    std::unordered_map<BlockAddr, Copies> copies;
    for (CoreId t = 0; t < cfg_.numCores(); ++t) {
        const GroupId g = groupOf_[t];
        banks_[t]->forEachLine(
            [&](BlockAddr block, const L2CacheLine &line) {
                Copies &c = copies[block];
                c.doubled = c.doubled || c.held.test(g);
                c.held.set(g);
                if (line.state == L2State::Exclusive ||
                    line.state == L2State::Modified || line.dirty)
                    c.dirty.set(g);
            });
    }

    static const Copies none;
    for (const BlockAddr block : auditedBlocks(dirStorage_, copies)) {
        const DirEntry &e = dirStorage_.entry(block);
        const auto it = copies.find(block);
        const Copies &c = it == copies.end() ? none : it->second;
        // The block's first disagreement, if any.
        std::string bad;
        if (c.doubled) {
            bad = "has two copies in one partition";
        } else if (e.state == L2State::Invalid) {
            bad = c.held.none()
                      ? "has a stored default directory entry"
                      : logging::format("cached in ", c.held.count(),
                                        " partition(s) but directory "
                                        "says Invalid");
        } else if (e.state == L2State::Shared) {
            // Only owned lines may be dirty or exclusive in a cache.
            if (e.sharers.none())
                bad = "is Shared with no sharers";
            else if (c.held != e.sharers)
                bad = logging::format("sharer mismatch (dir=",
                                      e.sharers.count(), " groups, held=",
                                      c.held.count(), " groups)");
            else if (c.dirty.any())
                bad = "has a dirty/exclusive copy under a Shared entry";
        } else if (e.owner < 0 || !c.held.isExactly(e.owner)) {
            bad = logging::format("owner mismatch (dir owner=",
                                  static_cast<int>(e.owner), " held=",
                                  c.held.count(), " groups)");
        }
        if (!bad.empty() && quiet(block)) {
            CONSIM_CHECK_FAIL("directory audit: block 0x", std::hex,
                              block, std::dec, " ", bad);
        }
    }
}

bool
System::quiet(BlockAddr block) const
{
    if (dirs_[homeTileFor(block)]->hasActivity(block))
        return false;
    for (GroupId g = 0; g < cfg_.numGroups(); ++g) {
        if (banks_[bankTileFor(g, block)]->hasActivity(block))
            return false;
    }
    return true;
}

void
System::checkGlobalCoherence() const
{
    CONSIM_ASSERT(quiesced(),
                  "global coherence check on a non-quiesced machine");
    auditDirectory();
    auditInclusion({});
}

void
System::auditInclusion(const std::vector<BlockAddr> &moving) const
{
    for (CoreId t = 0; t < cfg_.numCores(); ++t) {
        const GroupId g = groupOf_[t];
        // The bank names an owner by its index among the members.
        const std::vector<CoreId> &members = membersOf_[g].tiles;
        const auto member = static_cast<int>(
            std::find(members.begin(), members.end(), t) -
            members.begin());
        l1s_[t]->forEachL1Line([&](BlockAddr block, L1State state) {
            const L2CacheLine *line =
                banks_[bankTileFor(g, block)]->lookup(block);
            // A Modified L1 line is its bank's owner; a Shared one is
            // not.
            if ((line && (state == L1State::Modified) ==
                             (line->ownerCore == member)) ||
                !quiet(block) ||
                std::binary_search(moving.begin(), moving.end(), block))
                return;
            if (line == nullptr) {
                CONSIM_CHECK_FAIL("L1 line not backed by its partition "
                                  "(inclusion violated), block 0x",
                                  std::hex, block, std::dec, " core ",
                                  t);
            }
            CONSIM_CHECK_FAIL("L1 line ", toString(state),
                              " at core ", t, " but its bank's owner is ",
                              int(line->ownerCore), ", block 0x",
                              std::hex, block);
        });
    }
}

void
System::auditWindow() const
{
    try {
        // Per-component protocol invariants (CONSIM_ASSERT throws
        // under basic+ levels, so violations surface as SimError
        // here).
        checkInvariants();

        // NoC credit/flit conservation and packet census.
        if (mesh_)
            mesh_->checkConservation();

        // Stuck transactions: a leaked entry never completes, so its
        // age grows without bound. Anything older than the limit is
        // dead.
        for (const auto &l1 : l1s_)
            l1->auditStuckMiss(now_, kStuckTxnLimit);
        for (const auto &b : banks_)
            b->auditStuckTxns(now_, kStuckTxnLimit);
        for (const auto &d : dirs_)
            d->auditStuckTxns(now_, kStuckTxnLimit);

        auditDirectory();
    } catch (const SimError &e) {
        // Checkers throw from deep inside components with no machine
        // context; attach the full diag dump here, where we have it.
        if (!e.diag().empty())
            throw;
        throw SimError(e.kind(), e.what(),
                       diagJson("window audit failed").dump(2));
    }
}

// ---------------------------------------------------------------------
// Diag dump
// ---------------------------------------------------------------------

json::Value
System::diagJson(const std::string &reason) const
{
    auto v = json::Value::object();
    v.set("schema", "consim.diag.v1");
    v.set("reason", reason);
    v.set("cycle", now_);
    v.set("quiesced", quiesced());

    auto eq = json::Value::object();
    eq.set("pending", static_cast<std::uint64_t>(events_.size()));
    eq.set("executed_total", events_.executed());
    v.set("event_queue", std::move(eq));

    auto cores = json::Value::array();
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const Core &c = *cores_[i];
        const L1Controller &l1 = *l1s_[i];
        auto e = json::Value::object();
        e.set("tile", static_cast<int>(i));
        e.set("bound", !c.idle());
        e.set("vm", c.vm());
        e.set("blocked", c.blocked());
        e.set("wedged", c.wedged());
        e.set("retired_total", c.retiredTotal());
        if (c.blocked())
            e.set("block_start", c.blockStart());
        if (!l1.idle()) {
            auto p = json::Value::object();
            p.set("block", l1.pendingBlock());
            p.set("start", l1.pendingStart());
            p.set("write", l1.pendingIsWrite());
            e.set("l1_pending", std::move(p));
        }
        cores.push(std::move(e));
    }
    v.set("cores", std::move(cores));

    auto banks = json::Value::array();
    for (const auto &b : banks_) {
        if (!b->idle())
            banks.push(b->diagJson());
    }
    v.set("l2_banks", std::move(banks));

    auto dirs = json::Value::array();
    for (const auto &d : dirs_) {
        if (!d->idle())
            dirs.push(d->diagJson());
    }
    v.set("directories", std::move(dirs));

    v.set("net", mesh_ ? mesh_->diagJson() : json::Value::object());

    // Per-VM L2 occupancy (valid lines chip-wide): which VM holds
    // the shared cache when a run hangs or trips its deadline.
    {
        const OccupancySnapshot snap = occupancySnapshot();
        auto occ = json::Value::array();
        for (std::size_t vm = 0; vm < vms_.size(); ++vm) {
            std::uint64_t lines = 0;
            for (const auto &group : snap.lines)
                lines += group[vm];
            auto e = json::Value::object();
            e.set("vm", static_cast<int>(vm));
            e.set("l2_lines", lines);
            occ.push(std::move(e));
        }
        v.set("vm_l2_occupancy", std::move(occ));
    }

    // Memory-controller queue depth: outstanding reads plus how far
    // ahead of the clock each channel is booked.
    {
        auto mcs = json::Value::array();
        for (const auto &mc : mcs_) {
            auto e = json::Value::object();
            e.set("tile", mc->tile());
            e.set("outstanding", mc->outstandingReads());
            e.set("next_free_delta",
                  mc->nextFree() > now_ ? mc->nextFree() - now_
                                        : 0);
            mcs.push(std::move(e));
        }
        v.set("mem_controllers", std::move(mcs));
    }

    if (isolation_.enabled())
        v.set("qos", isolation_.diagJson());

    if (!faultPlan_.empty())
        v.set("faults", faultPlan_.toJson());
    return v;
}

} // namespace consim
