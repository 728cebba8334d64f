#include "core/system.hh"

#include <algorithm>
#include <unordered_map>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "noc/mesh.hh"

namespace consim
{

namespace
{

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

System::System(const MachineConfig &cfg,
               std::vector<VirtualMachine *> vms,
               const std::vector<ThreadPlacement> &placements)
    : cfg_(cfg), vms_(std::move(vms))
{
    cfg_.validate();
    const int n = cfg_.numCores();

    // Adopt the run's VM-window width from the VMs (they encode
    // block addresses with it, so the decode side must match; a
    // mixed-width run would alias windows).
    for (std::size_t i = 0; i < vms_.size(); ++i) {
        CONSIM_ASSERT(vms_[i] != nullptr &&
                          vms_[i]->id() == static_cast<VmId>(i),
                      "VM ids must be dense and ordered");
        if (i == 0)
            spanBits_ = vms_[i]->spanBits();
        CONSIM_ASSERT(vms_[i]->spanBits() == spanBits_,
                      "VMs disagree on the window width");
    }
    dirStorage_.setSpanBits(spanBits_);
    for (std::size_t i = 0; i < vms_.size(); ++i)
        dirStorage_.registerVm(vms_[i]->id(), vms_[i]->totalBlocks());
    // The directory stores only non-default entries. A non-default
    // entry names at least one group (the owner, or a sharer), and
    // each group it names
    //  (a) caches the block in its L2 partition: the partitions
    //      together hold l2TotalBytes / blockBytes lines;
    //  (b) was granted the block and has not filled it yet: a fill
    //      serves an L1 demand miss, and an in-order core has one
    //      outstanding, so numCores such blocks at most; or
    //  (c) evicted the block, and its Put has not reached the home:
    //      the evicting bank keeps the victim in its writeback
    //      buffer until the PutAck, and each of the numCores banks
    //      pre-sizes that buffer for L2Bank::tableSlots() entries,
    //      which the zero-allocation steady state keeps it within.
    // BlockMap::reserve adds load-factor headroom and rounds to a
    // power of two on top. Every insert asserts the bound, so a
    // bound that is wrong shows up as an invariant failure, not as
    // mid-run allocation.
    dirStorage_.reserve(
        static_cast<std::size_t>(cfg_.l2TotalBytes / blockBytes) +
            static_cast<std::size_t>(n) * (1 + L2Bank::tableSlots(cfg_)),
        cfg_.numGroups());

    groupOf_.resize(n);
    for (CoreId t = 0; t < n; ++t)
        groupOf_[t] = cfg_.groupOfCore(t);
    membersOf_.resize(cfg_.numGroups());
    for (GroupId g = 0; g < cfg_.numGroups(); ++g) {
        auto &lut = membersOf_[g];
        lut.tiles = cfg_.coresOfGroup(g);
        lut.size = lut.tiles.size();
        lut.pow2 = isPow2(lut.size);
        lut.mask = lut.pow2 ? lut.size - 1 : 0;
    }

    // Memory controllers at the mesh corners (then wrap for more).
    const std::vector<CoreId> corner_order = {
        0, n - 1, cfg_.meshX - 1, n - cfg_.meshX};
    mcIndexOfTile_.assign(n, -1);
    for (int i = 0; i < cfg_.numMemCtrls; ++i) {
        const CoreId tile =
            corner_order[i % corner_order.size()] ;
        CONSIM_ASSERT(mcIndexOfTile_[tile] < 0,
                      "two memory controllers on tile ", tile);
        mcTiles_.push_back(tile);
        mcIndexOfTile_[tile] = i;
    }

    // Event-ordering key domains: one per tile plus the network and
    // the system itself.
    netSrc_ = n;
    sysSrc_ = n + 1;
    seqBySrc_.assign(static_cast<std::size_t>(n) + 2, 0);

    if (cfg_.idealNoc)
        net_ = std::make_unique<IdealNetwork>(cfg_.idealNocLatency);
    else
        net_ = std::make_unique<Mesh>(cfg_);
    // The ideal network's constant latency is modelled as scheduled
    // NetDeliver events (transport bypass) so same-cycle arrivals
    // follow the canonical (src, seq) order instead of global
    // injection order; inflight_ stays empty and tick() is skipped.
    netBypass_ = cfg_.idealNoc;
    netHandoff_ = std::max<Cycle>(
        3, static_cast<Cycle>(cfg_.meshX + cfg_.meshY) / 4);
    // Pre-size the calendar ring from the machine size: a few events
    // per core per cycle covers the observed steady-state peak, so
    // the measure window never grows a bucket (the zero-allocation
    // contract tests/test_alloc_steady_state.cc enforces).
    events_.reserveBuckets(static_cast<std::size_t>(4 * n));
    // Mesh ejections reach their destination unit netHandoff_ cycles
    // after ejection, as a NET-keyed event (the NI->protocol latency).
    net_->setDeliver([this](const Msg &m) {
        enqueue(netSrc_, netHandoff_, SimEvent(SimEventKind::Deliver, m));
    });

    for (CoreId t = 0; t < n; ++t) {
        l1s_.push_back(std::make_unique<L1Controller>(*this, t));
        cores_.push_back(std::make_unique<Core>(*this, t, *l1s_[t]));
        banks_.push_back(std::make_unique<L2Bank>(*this, t));
        dirs_.push_back(
            std::make_unique<DirectorySlice>(*this, t, dirStorage_));
    }
    for (int i = 0; i < cfg_.numMemCtrls; ++i)
        mcs_.push_back(
            std::make_unique<MemoryController>(*this, mcTiles_[i]));

    for (const auto &p : placements) {
        CONSIM_ASSERT(p.vm >= 0 &&
                          p.vm < static_cast<VmId>(vms_.size()),
                      "placement for unknown VM ", p.vm);
        VirtualMachine &vm = *vms_[p.vm];
        // enqueue, not bind: an over-committed schedule places
        // several threads on one core, which then time-slices
        // between them (Core::enqueueContext).
        cores_.at(p.core)->enqueueContext(
            &vm.instance().thread(p.thread), p.vm);
    }

    // Link every component's registry node into one tree rooted at
    // "sys": full stat names read sys.tile03.l1.misses, sys.net.*,
    // sys.vm00.*. VM groups are re-parented (a VM may be adopted by
    // a fresh System in tests), so adoption order defines the tree.
    for (CoreId t = 0; t < n; ++t) {
        tileGroups_.push_back(std::make_unique<stats::Group>(
            indexedName("tile", t), &statsRoot_));
        stats::Group &tg = *tileGroups_.back();
        tg.addChild(&cores_[t]->statsGroup());
        tg.addChild(&l1s_[t]->statsGroup());
        tg.addChild(&banks_[t]->statsGroup());
        tg.addChild(&dirs_[t]->statsGroup());
    }
    for (std::size_t i = 0; i < mcs_.size(); ++i)
        tileGroups_[mcTiles_[i]]->addChild(&mcs_[i]->statsGroup());
    statsRoot_.addChild(&net_->statsGroup());
    for (auto *vm : vms_)
        statsRoot_.addChild(&vm->statsGroup());
}

System::~System() = default;

// ---------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------

Cycle
System::memFaultExtraLatency() const
{
    return (memBurstArmed_ && now_ >= memBurstStart_ &&
            now_ < memBurstEnd_)
               ? memBurstExtra_
               : 0;
}

void
System::setQosConfig(const QosConfig &qos)
{
    if (qos.enabled()) {
        CONSIM_ASSERT(qos.protectedVm >= 0 &&
                          qos.protectedVm <
                              static_cast<VmId>(vms_.size()),
                      "QoS protects VM ", qos.protectedVm,
                      " but the mix has ", vms_.size(), " VMs");
        CONSIM_ASSERT(qos.protectedWays >= 1 &&
                          qos.protectedWays < cfg_.l2Assoc,
                      "QoS ways must leave the other VMs at least "
                      "one way (ways=", qos.protectedWays,
                      " assoc=", cfg_.l2Assoc, ")");
        CONSIM_ASSERT(cfg_.l2Assoc <= 64,
                      "QoS way masks support at most 64 ways");
        CONSIM_ASSERT(qos.reservedVcs >= 0 &&
                          qos.reservedVcs < cfg_.vcsPerVnet,
                      "QoS must leave at least one shared VC per "
                      "vnet (vcs=", qos.reservedVcs,
                      " vcsPerVnet=", cfg_.vcsPerVnet, ")");
    }
    qos_ = qos;
    qosDynWays_ = qos.enabled() ? qos.protectedWays : 0;
    qosLastMissTotal_ = 0;
    qosPrevDelta_ = 0;
    net_->setQos(qos.enabled() ? qos.protectedVm : invalidVm,
                 qos.enabled() ? qos.reservedVcs : 0);
    for (auto &mc : mcs_) {
        mc->setQos(qos.protectedVm, static_cast<int>(vms_.size()),
                   qos.enabled() ? qos.mcTokens : 0,
                   qos.mcRefillCycles);
    }
}

std::uint64_t
System::qosWayMask(VmId vm) const
{
    if (!qos_.enabled())
        return ~0ull;
    // CAT-style exclusive partition: the protected VM fills only the
    // low qosDynWays_ ways of every set; everyone else fills only the
    // remaining high ways. Existing lines stay valid wherever they
    // are — the mask governs fills and victim choice, not lookups.
    const std::uint64_t all =
        cfg_.l2Assoc >= 64 ? ~0ull
                           : ((1ull << cfg_.l2Assoc) - 1);
    const std::uint64_t prot = (1ull << qosDynWays_) - 1;
    return vm == qos_.protectedVm ? prot : (all & ~prot);
}

void
System::qosRecordThrottleStall(VmId vm)
{
    if (vm < 0 || vm >= static_cast<VmId>(vms_.size()))
        return;
    ++vms_[vm]->vmStats().mcThrottleStalls;
}

void
System::qosRepartition()
{
    if (qos_.mode != QosMode::Dynamic)
        return;
    // Miss-curve sample: how many LLC misses did the protected VM
    // take this epoch, and did the last way granted help?
    const std::uint64_t total =
        vms_[qos_.protectedVm]->vmStats().l2Misses.value();
    const std::uint64_t delta = total - qosLastMissTotal_;

    // Occupancy gate: granting another way is pointless (and unfair)
    // while the protected VM is not close to filling its current
    // allocation somewhere on chip.
    const OccupancySnapshot occ = occupancySnapshot();
    double share = 0.0;
    for (GroupId g = 0; g < cfg_.numGroups(); ++g)
        share = std::max(share, occ.share(g, qos_.protectedVm));
    const double allocFrac = static_cast<double>(qosDynWays_) /
                             static_cast<double>(cfg_.l2Assoc);

    if (delta == 0 && qosDynWays_ > qos_.protectedWays) {
        // The VM stopped missing: hand a way back (never below the
        // configured floor).
        --qosDynWays_;
    } else if (qosDynWays_ < cfg_.l2Assoc - 1 && delta > 0 &&
               delta >= qosPrevDelta_ && share >= 0.8 * allocFrac) {
        // Still missing at least as hard as last epoch and actually
        // using the space it has: grow the partition.
        ++qosDynWays_;
    }
    qosPrevDelta_ = delta;
    qosLastMissTotal_ = total;
}

void
System::setDynSched(const DynSchedConfig &dyn)
{
    if (dyn.enabled()) {
        CONSIM_ASSERT(cfg_.numGroups() >= 1,
                      "dyn-sched needs at least one sharing group");
    }
    dynSched_ = dyn;
    dynPolicy_ =
        dyn.enabled() ? makeMigrationPolicy(dyn.policy) : nullptr;
    dynMigrations_ = 0;
    dynLastRetired_.assign(cfg_.numCores(), 0);
    dynLastVm_.assign(vms_.size(), {0, 0, 0});
    dynLastGroup_.assign(cfg_.numGroups(), {0, 0});
    dynHold_ = 0;
    dynBackoff_ = 1;
    dynEval_ = {};
    dynPreMiss_ = 0;
    dynPreAcc_ = 0;
}

DynSample
System::dynTakeSample()
{
    DynSample s;
    s.cores.resize(cfg_.numCores());
    for (CoreId c = 0; c < cfg_.numCores(); ++c) {
        const Core &core = *cores_[c];
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
        const std::uint64_t now =
            core.coreStats().instructions.value();
        cs.retired = now - dynLastRetired_[c];
        dynLastRetired_[c] = now;
    }
    s.vms.resize(vms_.size());
    for (VmId v = 0; v < static_cast<VmId>(vms_.size()); ++v) {
        const VmStats &vs = vms_[v]->vmStats();
        const std::uint64_t acc = vs.l2Accesses.value();
        const std::uint64_t miss = vs.l2Misses.value();
        const std::uint64_t c2c =
            vs.c2cClean.value() + vs.c2cDirty.value();
        DynVmSample &out = s.vms[v];
        out.l2Accesses = acc - dynLastVm_[v][0];
        out.l2Misses = miss - dynLastVm_[v][1];
        out.c2cTransfers = c2c - dynLastVm_[v][2];
        dynLastVm_[v] = {acc, miss, c2c};
    }
    s.groups.resize(cfg_.numGroups());
    std::vector<std::array<std::uint64_t, 2>> totals(
        cfg_.numGroups(), std::array<std::uint64_t, 2>{0, 0});
    for (CoreId t = 0; t < cfg_.numCores(); ++t) {
        const L2BankStats &bs = banks_[t]->bankStats();
        totals[groupOf_[t]][0] += bs.hits.value();
        totals[groupOf_[t]][1] += bs.misses.value();
    }
    for (GroupId g = 0; g < cfg_.numGroups(); ++g) {
        s.groups[g].l2Hits = totals[g][0] - dynLastGroup_[g][0];
        s.groups[g].l2Misses = totals[g][1] - dynLastGroup_[g][1];
        dynLastGroup_[g] = totals[g];
    }
    return s;
}

void
System::dynSchedEpoch()
{
    if (!dynPolicy_)
        return;
    // A prior swap whose endpoints were mid-miss may still be
    // parked; deciding on top of it would double-bind a stream.
    // Miss latencies are orders of magnitude below any epoch, so
    // this skip fires only when an epoch boundary races a fill.
    for (const auto &core : cores_)
        if (core->rebindPending())
            return;
    // Baselines advance every epoch even while holding, so a
    // decision after a backoff window sees one epoch's delta, not a
    // stale accumulation.
    const DynSample s = dynTakeSample();
    std::uint64_t epochMiss = 0, epochAcc = 0;
    for (const DynVmSample &v : s.vms) {
        epochMiss += v.l2Misses;
        epochAcc += v.l2Accesses;
    }
    if (dynHold_ > 0) {
        --dynHold_;
        return;
    }
    if (dynEval_.decided()) {
        // Verdict on the last swap: the chip miss rate must have
        // dropped by at least one point (integer cross-product
        // comparison; no float rounding in the resume path). A swap
        // that did not pay is reverted and the policy backs off
        // exponentially, so steady workloads converge to near-zero
        // churn while a later phase change re-engages within epochs.
        const bool helped =
            epochAcc > 0 && dynPreAcc_ > 0 &&
            100 * epochMiss * dynPreAcc_ + epochAcc * dynPreAcc_ <=
                100 * dynPreMiss_ * epochAcc;
        if (helped) {
            dynBackoff_ = 1;
        } else {
            // Revert unless an endpoint was wedged by fault
            // injection in the meantime (it can never reach the
            // rebind boundary).
            if (!cores_.at(dynEval_.a)->wedged() &&
                !cores_.at(dynEval_.b)->wedged())
                applySwap(dynEval_);
            dynHold_ = dynBackoff_;
            dynBackoff_ = std::min<std::uint32_t>(dynBackoff_ * 2, 64);
            dynEval_ = {};
            return;
        }
        dynEval_ = {};
    }
    const ThreadSwap swap = dynPolicy_->decide(cfg_, s);
    if (!swap.decided())
        return;
    Core &ca = *cores_.at(swap.a);
    Core &cb = *cores_.at(swap.b);
    CONSIM_ASSERT(!ca.multiplexed() && !cb.multiplexed() &&
                      !ca.wedged() && !cb.wedged() &&
                      !(ca.idle() && cb.idle()),
                  "policy '", dynPolicy_->name(),
                  "' proposed an illegal swap (", swap.a, " <-> ",
                  swap.b, ")");
    applySwap(swap);
    dynEval_ = swap;
    dynPreMiss_ = epochMiss;
    dynPreAcc_ = epochAcc;
    dynHold_ = 1; // one warm-up epoch before the verdict
}

void
System::applySwap(const ThreadSwap &swap)
{
    // Exchange the bindings; each endpoint installs at its own next
    // clean instruction boundary (immediately when free, at the fill
    // return when blocked).
    Core &ca = *cores_.at(swap.a);
    Core &cb = *cores_.at(swap.b);
    InstrStream *sa = ca.stream();
    const VmId va = ca.vm();
    InstrStream *sb = cb.stream();
    const VmId vb = cb.vm();
    ca.scheduleRebind(sb, vb);
    cb.scheduleRebind(sa, va);
    ++dynMigrations_;
}

void
System::send(Msg m)
{
    m.injectCycle = now_;
    const auto src = static_cast<std::int32_t>(m.srcTile);
    if (m.srcTile == m.dstTile) {
        // Local hop: fixed one-cycle on-tile transfer.
        enqueue(src, 1, SimEvent(SimEventKind::Deliver, m));
        return;
    }
    if (cfg_.flatIntraGroup && isIntraGroup(m.type)) {
        // On-partition path: the paper models a constant L2 access
        // latency regardless of sharing degree, so traffic between a
        // core and its partition's banks bypasses the mesh.
        enqueue(src, cfg_.intraGroupLatency,
                SimEvent(SimEventKind::Deliver, m));
        return;
    }
    if (netBypass_) {
        // Ideal network, modelled as a scheduled arrival (see ctor).
        net_->countInject();
        enqueue(src, cfg_.idealNocLatency,
                SimEvent(SimEventKind::NetDeliver, m));
        return;
    }
    net_->inject(std::move(m));
}

void
System::scheduleEvent(SimEvent ev, Cycle delay)
{
    const CoreId owner = ownerTileOf(ev);
    CONSIM_ASSERT(owner >= 0 && owner < cfg_.numCores(),
                  "event without an owning tile");
    enqueue(static_cast<std::int32_t>(owner), delay, ev);
}

void
System::enqueue(std::int32_t src, Cycle delay, SimEvent ev)
{
    ev.src = src;
    ev.seq = seqBySrc_[static_cast<std::size_t>(src)]++;
    events_.schedule(now_, delay, ev);
}

CoreId
System::ownerTileOf(const SimEvent &ev) const
{
    switch (ev.kind) {
      case SimEventKind::Deliver:
      case SimEventKind::NetDeliver:
        return ev.msg.dstTile;
      case SimEventKind::MemDone:
        return ev.msg.srcTile; // the MC's own tile
      default:
        return ev.tile;
    }
}

CoreId
System::bankTileFor(GroupId g, BlockAddr block) const
{
    const auto &lut = membersOf_[g];
    return lut.pow2 ? lut.tiles[block & lut.mask]
                    : lut.tiles[block % lut.size];
}

CoreId
System::homeTileFor(BlockAddr block) const
{
    return static_cast<CoreId>(mixBits(block) %
                               static_cast<std::uint64_t>(
                                   cfg_.numCores()));
}

CoreId
System::memTileFor(BlockAddr block) const
{
    const auto h = mixBits(block * 0x9e3779b97f4a7c15ull + 1);
    return mcTiles_[h % mcTiles_.size()];
}

void
System::recordL2Access(VmId vm)
{
    if (vm < 0)
        return;
    ++vms_[vm]->vmStats().l2Accesses;
}

void
System::recordL2Miss(VmId vm, bool c2c, bool c2c_dirty)
{
    if (vm < 0)
        return;
    auto &s = vms_[vm]->vmStats();
    ++s.l2Misses;
    if (c2c) {
        if (c2c_dirty)
            ++s.c2cDirty;
        else
            ++s.c2cClean;
    }
}

void
System::recordL1Miss(VmId vm, Cycle latency)
{
    if (vm < 0)
        return;
    auto &s = vms_[vm]->vmStats();
    ++s.l1Misses;
    s.missLatency.sample(static_cast<double>(latency));
}

void
System::recordTransaction(VmId vm)
{
    if (vm < 0)
        return;
    ++vms_[vm]->vmStats().transactions;
}

void
System::recordInstructions(VmId vm, std::uint64_t n)
{
    if (vm < 0)
        return;
    vms_[vm]->vmStats().instructions += n;
}

// ---------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------

void
System::deliver(const Msg &m)
{
    // Fault injection: the nth response-class message vanishes in
    // transit (models a lost fill; the waiting transaction never
    // completes, which the watchdog / stuck-transaction audit must
    // then catch).
    if (dropArmed_ && vnetOf(m.type) == 2 && --dropCountdown_ == 0) {
        dropArmed_ = false;
        return;
    }
    switch (m.dstUnit) {
      case Unit::L1:
        l1s_.at(m.dstTile)->handle(m);
        break;
      case Unit::L2Bank:
        banks_.at(m.dstTile)->handle(m);
        break;
      case Unit::Dir:
        dirs_.at(m.dstTile)->handle(m);
        break;
      case Unit::Mem: {
        const int idx = mcIndexOfTile_.at(m.dstTile);
        CONSIM_ASSERT(idx >= 0, "no memory controller at tile ",
                      m.dstTile);
        mcs_.at(idx)->handle(m);
        break;
      }
    }
}

void
System::execEvent(const SimEvent &ev)
{
    switch (ev.kind) {
      case SimEventKind::Deliver:
        deliver(ev.msg);
        break;
      case SimEventKind::BankDispatch:
        banks_.at(ev.tile)->dispatchLocal(ev.block);
        break;
      case SimEventKind::BankFillRetry:
        banks_.at(ev.tile)->fillRetry(ev.block);
        break;
      case SimEventKind::DirProcess:
        dirs_.at(ev.tile)->process(ev.block);
        break;
      case SimEventKind::MemDone: {
        const int idx = mcIndexOfTile_.at(ev.msg.srcTile);
        CONSIM_ASSERT(idx >= 0, "MemDone from a tile without an MC");
        mcs_.at(idx)->finishAccess(ev.msg);
        break;
      }
      case SimEventKind::WedgeCore:
        cores_.at(ev.tile)->wedge();
        break;
      case SimEventKind::NetDeliver: {
        // Transport-bypass arrival: account the ejection the ideal
        // network would have recorded, then deliver.
        net_->countEject(ev.msg, now_, carriesData(ev.msg.type) ? 5 : 1);
        deliver(ev.msg);
        break;
      }
    }
}

void
System::tick()
{
    events_.runDue(now_, [this](const SimEvent &ev) { execEvent(ev); });
    for (auto &c : cores_)
        c->tick();
    if (!netBypass_)
        net_->tick(now_);
    ++now_;
}

void
System::run(Cycle cycles)
{
    const Cycle end = now_ + cycles;
    const Cycle qosEpoch = qosEpochInterval();
    const Cycle dynEpoch = dynEpochInterval();
    if (watchdogInterval_ == 0 && deadline_ == 0 &&
        ckptInterval_ == 0 && qosEpoch == 0 && dynEpoch == 0) {
        // Fast path: the per-cycle loop carries no hardening checks.
        while (now_ < end)
            tick();
        return;
    }
    while (now_ < end) {
        Cycle chunkEnd = end;
        // Epochs are absolute multiples of the interval, so a resumed
        // run lands on the same boundaries as the original.
        const Cycle epochAt =
            qosEpoch ? (now_ / qosEpoch + 1) * qosEpoch : 0;
        if (qosEpoch != 0)
            chunkEnd = std::min(chunkEnd, epochAt);
        const Cycle dynAt =
            dynEpoch ? (now_ / dynEpoch + 1) * dynEpoch : 0;
        if (dynEpoch != 0)
            chunkEnd = std::min(chunkEnd, dynAt);
        if (watchdogInterval_ != 0)
            chunkEnd = std::min(chunkEnd, nextWatchdogCheck_);
        if (deadline_ != 0)
            chunkEnd = std::min(chunkEnd, deadline_);
        if (ckptInterval_ != 0)
            chunkEnd = std::min(chunkEnd, nextCkpt_);
        while (now_ < chunkEnd)
            tick();
        // Repartition before the snapshot so a checkpoint taken at a
        // shared boundary captures the post-epoch allocation.
        if (qosEpoch != 0 && now_ >= epochAt)
            qosRepartition();
        // Remap before the snapshot for the same reason: a resumed
        // run must not redo a migration the snapshot already holds.
        if (dynEpoch != 0 && now_ >= dynAt)
            dynSchedEpoch();
        // Snapshot before the deadline check: a run tripping at its
        // deadline then carries a checkpoint taken at that very
        // cycle, so a resume loses no work.
        if (ckptInterval_ != 0 && now_ >= nextCkpt_) {
            takeSnapshot();
            nextCkpt_ = now_ + ckptInterval_;
        }
        if (deadline_ != 0 && now_ >= deadline_ && now_ < end) {
            SimError err(
                SimErrorKind::Deadline,
                logging::format("cycle deadline ", deadline_,
                                " reached with ", end - now_,
                                " cycles of work remaining"),
                diagJson("cycle deadline exceeded").dump(2));
            err.setCkpt(latestCheckpoint());
            throw err;
        }
        if (watchdogInterval_ != 0 && now_ >= nextWatchdogCheck_) {
            watchdogCheck();
            nextWatchdogCheck_ = now_ + watchdogInterval_;
        }
    }
}

void
System::setCheckpointInterval(Cycle interval)
{
    ckptInterval_ = interval;
    if (interval != 0)
        nextCkpt_ = now_ + interval;
}

void
System::takeSnapshot()
{
    ckptLatest_ ^= 1;
    ckptRing_[ckptLatest_] = saveCheckpoint().dump(1);
}

bool
System::runUntilQuiescent(Cycle max_cycles)
{
    const Cycle end = now_ + max_cycles;
    while (now_ < end) {
        tick();
        if (quiesced())
            return true;
    }
    return quiesced();
}

bool
System::quiesced() const
{
    if (!events_.empty() || !net_->idle())
        return false;
    for (const auto &l1 : l1s_) {
        if (!l1->idle())
            return false;
    }
    for (const auto &b : banks_) {
        if (!b->idle())
            return false;
    }
    for (const auto &d : dirs_) {
        if (!d->idle())
            return false;
    }
    for (const auto &mc : mcs_) {
        if (!mc->idle())
            return false;
    }
    return true;
}

void
System::resetStats()
{
    statsRoot_.resetAll();
    // Re-baseline the dynamic repartitioner's miss-curve samples:
    // the counters it diffs just went back to zero.
    qosLastMissTotal_ = 0;
    qosPrevDelta_ = 0;
    // Same for the migration policies' epoch baselines.
    std::fill(dynLastRetired_.begin(), dynLastRetired_.end(), 0);
    std::fill(dynLastVm_.begin(), dynLastVm_.end(),
              std::array<std::uint64_t, 3>{0, 0, 0});
    std::fill(dynLastGroup_.begin(), dynLastGroup_.end(),
              std::array<std::uint64_t, 2>{0, 0});
}

bool
System::swapRandomThreads(Rng &rng)
{
    const int n = cfg_.numCores();
    for (int attempt = 0; attempt < 32; ++attempt) {
        const auto a = static_cast<CoreId>(rng.below(n));
        const auto b = static_cast<CoreId>(rng.below(n));
        if (a == b)
            continue;
        Core &ca = *cores_[a];
        Core &cb = *cores_[b];
        if (ca.blocked() || cb.blocked())
            continue;
        if (ca.idle() && cb.idle())
            continue;
        // Over-committed cores rotate through a run queue; swapping
        // the live binding out from under it would be undone at the
        // next timeslice boundary. Skip them.
        if (ca.multiplexed() || cb.multiplexed())
            continue;
        InstrStream *sa = ca.stream();
        const VmId va = ca.vm();
        InstrStream *sb = cb.stream();
        const VmId vb = cb.vm();
        ca.bindThread(sb, vb);
        cb.bindThread(sa, va);
        return true;
    }
    return false;
}

void
System::dumpStats(std::ostream &os) const
{
    statsRoot_.dump(os);
}

// ---------------------------------------------------------------------
// Snapshots & invariants
// ---------------------------------------------------------------------

ReplicationSnapshot
System::replicationSnapshot() const
{
    ReplicationSnapshot snap;
    snap.validPerVm.assign(vms_.size(), 0);
    snap.replicatedPerVm.assign(vms_.size(), 0);

    // Count partition-level copies per block. Each group's partition
    // holds at most one copy of a block, so counting valid lines per
    // block across banks counts partitions.
    std::unordered_map<BlockAddr, std::uint32_t> copies;
    for (const auto &b : banks_) {
        b->forEachLine([&](BlockAddr block, const L2CacheLine &line) {
            if (!line.valid)
                return;
            ++copies[block];
        });
    }
    snap.distinctBlocks = copies.size();
    for (const auto &b : banks_) {
        b->forEachLine([&](BlockAddr block, const L2CacheLine &line) {
            if (!line.valid)
                return;
            ++snap.validLines;
            const VmId vm = vmOfBlock(block);
            if (vm >= 0 && vm < static_cast<VmId>(vms_.size()))
                ++snap.validPerVm[vm];
            if (copies[block] > 1) {
                ++snap.replicatedLines;
                if (vm >= 0 && vm < static_cast<VmId>(vms_.size()))
                    ++snap.replicatedPerVm[vm];
            }
        });
    }
    return snap;
}

OccupancySnapshot
System::occupancySnapshot() const
{
    OccupancySnapshot snap;
    const int num_groups = cfg_.numGroups();
    snap.lines.assign(num_groups,
                      std::vector<std::uint64_t>(vms_.size(), 0));
    snap.capacity.assign(num_groups, 0);

    const std::uint64_t lines_per_bank =
        cfg_.l2TotalBytes /
        static_cast<std::uint64_t>(cfg_.numCores()) / blockBytes;
    for (CoreId t = 0; t < cfg_.numCores(); ++t) {
        const GroupId g = groupOf_[t];
        snap.capacity[g] += lines_per_bank;
        banks_[t]->forEachLine(
            [&](BlockAddr block, const L2CacheLine &line) {
                if (!line.valid)
                    return;
                const VmId vm = vmOfBlock(block);
                if (vm >= 0 && vm < static_cast<VmId>(vms_.size()))
                    ++snap.lines[g][vm];
            });
    }
    return snap;
}

void
System::checkInvariants() const
{
    for (const auto &l1 : l1s_)
        l1->checkInvariants();
    for (const auto &b : banks_)
        b->checkInvariants();
}

void
System::checkGlobalCoherence() const
{
    CONSIM_ASSERT(quiesced(),
                  "global coherence check on a non-quiesced machine");

    // Gather the ground truth: which partitions hold which blocks,
    // and in what state.
    struct Copy
    {
        GroupSet groups;   // partitions with a valid line
        GroupSet dirtyish; // partitions with E/M or dirty
    };
    std::unordered_map<BlockAddr, Copy> copies;
    for (CoreId t = 0; t < cfg_.numCores(); ++t) {
        const GroupId g = groupOf_[t];
        banks_[t]->forEachLine(
            [&](BlockAddr block, const L2CacheLine &line) {
                if (!line.valid)
                    return;
                auto &c = copies[block];
                CONSIM_ASSERT(!c.groups.test(g),
                              "two copies of block in one partition");
                c.groups.set(g);
                if (line.state == L2State::Exclusive ||
                    line.state == L2State::Modified || line.dirty) {
                    c.dirtyish.set(g);
                }
            });
    }

    // Directory agreement in both directions.
    for (const BlockAddr block : auditedBlocks(dirStorage_, copies)) {
        const DirEntry &e = dirStorage_.entry(block);
        auto it = copies.find(block);
        static const GroupSet no_copies;
        const GroupSet &held =
            it == copies.end() ? no_copies : it->second.groups;
        switch (e.state) {
          case L2State::Invalid:
            CONSIM_ASSERT(held.none(),
                          "cached block directory thinks invalid: 0x",
                          std::hex, block);
            CONSIM_ASSERT(!dirStorage_.contains(block),
                          "stored default directory entry, block 0x",
                          std::hex, block);
            break;
          case L2State::Shared:
            CONSIM_ASSERT(e.sharers.any(), "S entry with no sharers");
            CONSIM_ASSERT(held == e.sharers,
                          "sharer mismatch for block 0x", std::hex,
                          block);
            break;
          case L2State::Exclusive:
          case L2State::Modified:
            CONSIM_ASSERT(e.owner >= 0, "owned entry without owner");
            CONSIM_ASSERT(held.isExactly(e.owner),
                          "owner mismatch for block 0x", std::hex,
                          block);
            break;
        }
        // Only owned lines may be dirty or exclusive in a cache.
        if (it != copies.end() && e.state == L2State::Shared) {
            CONSIM_ASSERT(it->second.dirtyish.none(),
                          "dirty/exclusive cache line under a Shared "
                          "directory entry, block 0x",
                          std::hex, block);
        }
    }

    // L1 inclusion: every valid L1 line is covered by its group's
    // partition line and presence bits.
    for (CoreId t = 0; t < cfg_.numCores(); ++t) {
        const GroupId g = groupOf_[t];
        l1s_[t]->forEachL1Line([&](BlockAddr block, L1State state) {
            const CoreId bank_tile = bankTileFor(g, block);
            bool covered = false;
            banks_[bank_tile]->forEachLine(
                [&](BlockAddr b, const L2CacheLine &line) {
                    if (!line.valid || b != block)
                        return;
                    covered = true;
                    if (state == L1State::Modified) {
                        CONSIM_ASSERT(
                            line.ownerCore >= 0,
                            "L1 owner unknown to its bank, block 0x",
                            std::hex, block);
                    }
                });
            CONSIM_ASSERT(covered,
                          "L1 line not backed by its partition "
                          "(inclusion violated), block 0x",
                          std::hex, block, std::dec, " core ", t);
        });
    }
}

// ---------------------------------------------------------------------
// Hardening layer
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
System::setWatchdogInterval(Cycle interval)
{
    watchdogInterval_ = interval;
    if (interval == 0)
        return;
    nextWatchdogCheck_ = now_ + interval;
    // Take the baseline snapshot the first check will diff against.
    wdSnap_.executed = events_.executed();
    wdSnap_.ejected = net_->ejectedTotal();
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
        net_->ejectedTotal() != wdSnap_.ejected ||
        retiredSum != wdSnap_.retiredSum;
    if (!globalProgress && !quiesced()) {
        SimError err(
            SimErrorKind::Watchdog,
            logging::format("no forward progress over ",
                            watchdogInterval_, " cycles (cycle ",
                            now_, ")"),
            diagJson("watchdog: no global progress").dump(2));
        err.setCkpt(latestCheckpoint());
        throw err;
    }

    // Condition B: a core with a bound thread sat blocked at both
    // interval boundaries and retired nothing in between. No
    // legitimate miss takes a full watchdog interval.
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const Core &c = *cores_[i];
        if (!c.idle() && c.blocked() && wdSnap_.blocked[i] &&
            c.retiredTotal() == wdSnap_.retired[i]) {
            SimError err(
                SimErrorKind::Watchdog,
                logging::format("core ", i, " made no progress over ",
                                watchdogInterval_, " cycles (cycle ",
                                now_, c.wedged() ? ", wedged" : "",
                                ")"),
                diagJson(logging::format("watchdog: core ", i,
                                         " stalled"))
                    .dump(2));
            err.setCkpt(latestCheckpoint());
            throw err;
        }
    }

    wdSnap_.executed = events_.executed();
    wdSnap_.ejected = net_->ejectedTotal();
    wdSnap_.retiredSum = retiredSum;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        wdSnap_.retired[i] = cores_[i]->retiredTotal();
        wdSnap_.blocked[i] = cores_[i]->blocked() ? 1 : 0;
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
        net_->checkConservation();

        // Stuck transactions: a leaked entry never completes, so its
        // age grows without bound. Anything older than the limit is
        // dead.
        for (const auto &l1 : l1s_)
            l1->auditStuckMiss(now_, stuckLimit_);
        for (const auto &b : banks_)
            b->auditStuckTxns(now_, stuckLimit_);
        for (const auto &d : dirs_)
            d->auditStuckTxns(now_, stuckLimit_);

        auditSharerState();
    } catch (const SimError &e) {
        // Checkers throw from deep inside components with no machine
        // context; attach the full diag dump here, where we have it.
        if (!e.diag().empty())
            throw;
        throw SimError(e.kind(), e.what(),
                       diagJson("window audit failed").dump(2));
    }
}

void
System::auditSharerState() const
{
    // Directory-vs-cache consistency on a live machine: blocks with
    // any in-flight transaction are skipped (their dir entry and
    // cache copies legitimately disagree mid-protocol); the rest must
    // agree exactly. checkGlobalCoherence() remains the stronger
    // quiesced-only variant.
    std::unordered_map<BlockAddr, GroupSet> held;
    for (CoreId t = 0; t < cfg_.numCores(); ++t) {
        const GroupId g = groupOf_[t];
        banks_[t]->forEachLine(
            [&](BlockAddr block, const L2CacheLine &line) {
                if (line.valid)
                    held[block].set(g);
            });
    }

    const auto quiet = [&](BlockAddr block) {
        if (dirs_[homeTileFor(block)]->hasActivity(block))
            return false;
        for (GroupId g = 0; g < cfg_.numGroups(); ++g) {
            if (banks_[bankTileFor(g, block)]->hasActivity(block))
                return false;
        }
        return true;
    };

    for (const BlockAddr block : auditedBlocks(dirStorage_, held)) {
        const DirEntry &e = dirStorage_.entry(block);
        const auto it = held.find(block);
        static const GroupSet no_copies;
        const GroupSet &copies =
            it == held.end() ? no_copies : it->second;
        if (!quiet(block))
            continue;
        switch (e.state) {
          case L2State::Invalid:
            if (copies.none()) {
                CONSIM_CHECK_FAIL("sharer audit: block 0x", std::hex,
                                  block, std::dec, " has a stored "
                                  "default directory entry");
            }
            CONSIM_CHECK_FAIL("sharer audit: block 0x", std::hex,
                              block, std::dec, " cached in ",
                              copies.count(), " partition(s) but "
                              "directory says Invalid");
            break;
          case L2State::Shared:
            if (copies != e.sharers) {
                CONSIM_CHECK_FAIL("sharer audit: block 0x", std::hex,
                                  block, std::dec,
                                  " sharer mismatch (dir=",
                                  e.sharers.count(), " groups, held=",
                                  copies.count(), " groups)");
            }
            break;
          case L2State::Exclusive:
          case L2State::Modified:
            if (e.owner < 0 || !copies.isExactly(e.owner)) {
                CONSIM_CHECK_FAIL("sharer audit: block 0x", std::hex,
                                  block, std::dec,
                                  " owner mismatch (dir owner=",
                                  static_cast<int>(e.owner),
                                  " held=", copies.count(),
                                  " groups)");
            }
            break;
        }
    }
}

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

    v.set("net", net_->diagJson());

    // Per-VM L2 occupancy (valid lines chip-wide): which VM holds
    // the shared cache when a run hangs or trips its deadline.
    {
        std::vector<std::uint64_t> linesPerVm(vms_.size(), 0);
        for (const auto &b : banks_) {
            b->forEachLine(
                [&](BlockAddr block, const L2CacheLine &line) {
                    if (!line.valid)
                        return;
                    const VmId vm = vmOfBlock(block);
                    if (vm >= 0 &&
                        vm < static_cast<VmId>(vms_.size()))
                        ++linesPerVm[vm];
                });
        }
        auto occ = json::Value::array();
        for (std::size_t vm = 0; vm < linesPerVm.size(); ++vm) {
            auto e = json::Value::object();
            e.set("vm", static_cast<int>(vm));
            e.set("l2_lines", linesPerVm[vm]);
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

    if (qos_.enabled()) {
        auto q = json::Value::object();
        q.set("mode", toString(qos_.mode));
        q.set("protected_vm", qos_.protectedVm);
        q.set("dyn_ways", qosDynWays_);
        v.set("qos", std::move(q));
    }

    if (!faultPlan_.empty())
        v.set("faults", faultPlan_.toJson());
    return v;
}

} // namespace consim
