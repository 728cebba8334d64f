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

/** @return @p cfg once validate() accepts it (a fatal error if not),
 *  so no table is sized from a config it refuses. */
const MachineConfig &
validated(const MachineConfig &cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

System::System(const MachineConfig &cfg,
               std::vector<VirtualMachine *> vms,
               const std::vector<ThreadPlacement> &placements)
    : cfg_(validated(cfg)), vms_(std::move(vms)), bankTables_(cfg_),
      dirTables_(cfg_, bankTables_.wb.census().bound()),
      wake_(cfg_.numCores(), kWakeSpan)
{
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
    //      the evicting bank keeps the victim in its write-back
    //      buffer until the PutAck, and the banks' write-back table
    //      holds at most its bound machine-wide.
    // BlockMap::reserve adds load-factor headroom and rounds to a
    // power of two on top. Every insert asserts the bound, so a
    // bound that is wrong shows up as an invariant failure, not as
    // mid-run allocation.
    dirStorage_.reserve(
        static_cast<std::size_t>(cfg_.l2TotalBytes / blockBytes) +
            static_cast<std::size_t>(n) + bankTables_.wb.census().bound(),
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

    netHandoff_ = std::max<Cycle>(
        3, static_cast<Cycle>(cfg_.meshX + cfg_.meshY) / 4);
    // Pre-size the calendar ring from the machine size: a few events
    // per core per cycle covers the observed steady-state peak, so
    // the measure window never grows a bucket (the zero-allocation
    // contract tests/test_alloc_steady_state.cc enforces).
    events_.reserveBuckets(static_cast<std::size_t>(4 * n));
    // Mesh ejections reach their destination unit netHandoff_ cycles
    // after ejection, as a NET-keyed event (the NI->protocol latency).
    // The ideal network builds no mesh: its constant latency is
    // modelled as scheduled NetDeliver events, so same-cycle arrivals
    // follow the canonical (src, seq) order instead of global
    // injection order.
    if (!cfg_.idealNoc) {
        mesh_ = std::make_unique<Mesh>(cfg_, netStats_, [this](const Msg &m) {
            enqueue(netSrc_, netHandoff_,
                    SimEvent(SimEventKind::Deliver, m));
        });
    }

    for (CoreId t = 0; t < n; ++t) {
        l1s_.push_back(std::make_unique<L1Controller>(*this, t));
        cores_.push_back(
            std::make_unique<Core>(*this, t, *l1s_[t], wake_));
        banks_.push_back(std::make_unique<L2Bank>(*this, t, bankTables_));
        dirs_.push_back(std::make_unique<DirectorySlice>(
            *this, t, dirStorage_, dirTables_));
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
    statsRoot_.addChild(&netStats_.group);
    for (auto *vm : vms_)
        statsRoot_.addChild(&vm->statsGroup());

    // run()'s service points, in firing order (see Service). Each is
    // off until its arming call.
    services_[QosEpoch].fire = [this] { isolation_.repartition(*this); };
    services_[DynEpoch].fire = [this] { scheduler_.epoch(*this); };
    services_[Snapshot].fire = [this] { takeSnapshot(); };
    services_[Deadline].fire = [this] { deadlineCheck(); };
    services_[Watchdog].fire = [this] { watchdogCheck(); };
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
    isolation_.configure(qos, cfg_, numVms());
    services_[QosEpoch].epoch = isolation_.epochCycles();
    if (mesh_) {
        mesh_->setQos(qos.enabled() ? qos.protectedVm : invalidVm,
                      qos.enabled() ? qos.reservedVcs : 0);
    }
    for (auto &mc : mcs_) {
        mc->setQos(qos.protectedVm, numVms(),
                   qos.enabled() ? qos.mcTokens : 0,
                   qos.mcRefillCycles);
    }
}

void
System::qosRecordThrottleStall(VmId vm)
{
    if (vm < 0 || vm >= static_cast<VmId>(vms_.size()))
        return;
    ++vms_[vm]->vmStats().mcThrottleStalls;
}

void
System::setDynSched(const DynSchedConfig &dyn, std::uint64_t seed)
{
    scheduler_.configure(dyn, seed, cfg_, numVms());
    services_[DynEpoch].epoch = scheduler_.epochCycles();
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
    if (!mesh_) {
        // Ideal network, modelled as a scheduled arrival (see ctor).
        netStats_.countInject();
        enqueue(src, cfg_.idealNocLatency,
                SimEvent(SimEventKind::NetDeliver, m));
        return;
    }
    mesh_->inject(std::move(m));
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
        // Ideal-network arrival: account the ejection, then deliver.
        netStats_.countEject(ev.msg, now_,
                             carriesData(ev.msg.type) ? 5 : 1);
        deliver(ev.msg);
        break;
      }
    }
}

void
System::tick()
{
    events_.runDue(now_, [this](const SimEvent &ev) { execEvent(ev); });
    // Only the cores armed for this cycle: any other core's tick
    // would return without touching state (Core).
    wake_.walk(now_, [this](CoreId t) { cores_[t]->tick(now_); });
    if (mesh_)
        mesh_->tick(now_);
    ++now_;
}

void
System::run(Cycle cycles)
{
    runEnd_ = now_ + cycles;
    std::array<Cycle, NumServices> due{};
    while (now_ < runEnd_) {
        // Tick to the earliest due point, then fire every point due
        // on that cycle, in list order.
        Cycle until = runEnd_;
        for (std::size_t i = 0; i < NumServices; ++i) {
            due[i] = services_[i].next(now_);
            until = std::min(until, due[i]);
        }
        while (now_ < until)
            tick();
        for (std::size_t i = 0; i < NumServices; ++i) {
            if (now_ >= due[i])
                services_[i].fire();
        }
    }
}

void
System::setCheckpointInterval(Cycle interval)
{
    ckptInterval_ = interval;
    services_[Snapshot].at = interval != 0 ? now_ + interval : kNever;
}

void
System::takeSnapshot()
{
    ckptLatest_ = saveCheckpoint().dump(1);
    services_[Snapshot].at = now_ + ckptInterval_;
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
    const auto idle = [](const auto &units) {
        return std::all_of(units.begin(), units.end(),
                           [](const auto &u) { return u->idle(); });
    };
    return events_.empty() && (!mesh_ || mesh_->idle()) && idle(l1s_) &&
           idle(banks_) && idle(dirs_) && idle(mcs_);
}

void
System::resetStats()
{
    statsRoot_.resetAll();
    // The counters the controllers diff just went back to zero.
    isolation_.rebaseline();
    scheduler_.rebaseline();
}

void
System::dumpStats(std::ostream &os) const
{
    statsRoot_.dump(os);
}

// ---------------------------------------------------------------------
// Snapshots
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
        b->forEachLine([&](BlockAddr block, const L2CacheLine &) {
            ++copies[block];
        });
    }
    snap.distinctBlocks = copies.size();
    for (const auto &b : banks_) {
        b->forEachLine([&](BlockAddr block, const L2CacheLine &) {
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
            [&](BlockAddr block, const L2CacheLine &) {
                const VmId vm = vmOfBlock(block);
                if (vm >= 0 && vm < static_cast<VmId>(vms_.size()))
                    ++snap.lines[g][vm];
            });
    }
    return snap;
}

} // namespace consim
