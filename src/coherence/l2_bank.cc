#include "coherence/l2_bank.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/parse.hh"

namespace consim
{

namespace
{

std::size_t
cores(const MachineConfig &cfg)
{
    return static_cast<std::size_t>(cfg.numCores());
}

CacheGeometry
bankGeometry(const MachineConfig &cfg)
{
    // Every tile holds 1/numCores of the aggregate L2 regardless of
    // sharing degree; the sharing degree decides which cores may use
    // it and how blocks interleave.
    CacheGeometry g;
    g.sizeBytes = cfg.l2TotalBytes /
                  static_cast<std::uint64_t>(cfg.numCores());
    g.assoc = cfg.l2Assoc;
    return g;
}

} // namespace

L2Bank::Tables::Tables(const MachineConfig &cfg)
    : active("bank transactions", 2 * cores(cfg), cfg.numCores()),
      waiting("bank queued messages", 2 * cores(cfg), cfg.numCores()),
      wb("write-backs", 4 * cores(cfg), cfg.numCores()),
      victimExtract("victim extractions", cores(cfg), cfg.numCores())
{
}

L2Bank::L2Bank(Fabric &fabric, CoreId tile, Tables &tables)
    : fab_(fabric), tile_(tile), group_(fabric.groupOfTile(tile)),
      members_(fabric.config().coresOfGroup(group_)),
      groupSize_(static_cast<int>(members_.size())),
      array_(bankGeometry(fabric.config())),
      active_(tables.active.view(tile)),
      waiting_(tables.waiting.view(tile)), wb_(tables.wb.view(tile)),
      victimExtract_(tables.victimExtract.view(tile))
{
    auto it = std::find(members_.begin(), members_.end(), tile_);
    CONSIM_ASSERT(it != members_.end(), "tile not in its own group");
    myBankIdx_ = static_cast<int>(it - members_.begin());
    stats_.registerIn(statsGroup_);
}

BlockAddr
L2Bank::localOf(BlockAddr block) const
{
    CONSIM_ASSERT(static_cast<int>(block % groupSize_) == myBankIdx_,
                  "block 0x", std::hex, block, std::dec,
                  " does not belong to bank at tile ", tile_);
    return block / static_cast<BlockAddr>(groupSize_);
}

BlockAddr
L2Bank::globalOf(BlockAddr local) const
{
    return local * static_cast<BlockAddr>(groupSize_) +
           static_cast<BlockAddr>(myBankIdx_);
}

int
L2Bank::idxOfCore(CoreId core) const
{
    auto it = std::find(members_.begin(), members_.end(), core);
    CONSIM_ASSERT(it != members_.end(), "core ", core,
                  " is not a member of group ", group_);
    return static_cast<int>(it - members_.begin());
}

void
L2Bank::handle(const Msg &msg)
{
    // Decimal or 0x-hex (the form describe() prints); junk is fatal
    // rather than silently tracing block 0. Unset disables the trace.
    static const char *trace_env = std::getenv("CONSIM_TRACE_BLOCK");
    static const BlockAddr trace_block = [] {
        std::uint64_t b = 0;
        if (trace_env && !parseU64OrHex(trace_env, b))
            CONSIM_FATAL("CONSIM_TRACE_BLOCK='", trace_env,
                         "' is not a block address; pass a decimal or "
                         "0x-prefixed hex value");
        return static_cast<BlockAddr>(b);
    }();
    if (trace_env != nullptr && msg.block == trace_block) {
        std::fprintf(stderr,
                     "[%llu] bank%d %s act=%zu wait=%zu wb=%zu\n",
                     (unsigned long long)fab_.now(), tile_,
                     describe(msg).c_str(), active_.count(msg.block),
                     waiting_.depth(msg.block), wb_.count(msg.block));
    }
    switch (msg.type) {
      case MsgType::L1GetS:
      case MsgType::L1GetM:
        onL1Request(msg);
        break;
      case MsgType::L1PutM:
        onL1PutM(msg);
        break;
      case MsgType::L1InvAck:
        break; // fire-and-forget back-invalidation acks
      case MsgType::L1WbData:
        onL1WbData(msg);
        break;
      case MsgType::FwdGetS:
      case MsgType::FwdGetM:
        onFwd(msg);
        break;
      case MsgType::Inv:
        onInv(msg);
        break;
      case MsgType::Data:
        onData(msg);
        break;
      case MsgType::Grant:
        onGrant(msg);
        break;
      case MsgType::PutAck:
        onPutAck(msg);
        break;
      default:
        CONSIM_PANIC("L2 bank ", tile_, " got ", describe(msg));
    }
}

// ---------------------------------------------------------------------
// Local (member L1) requests
// ---------------------------------------------------------------------

void
L2Bank::onL1Request(const Msg &m)
{
    const BlockAddr block = m.block;
    fab_.recordL2Access(m.vm);
    if (active_.contains(block) || wb_.contains(block) ||
        waiting_.has(block)) {
        waiting_.pushBack(block, m);
        return;
    }
    BankTxn t;
    t.phase = Phase::Lookup;
    t.req = m;
    t.started = fab_.now();
    active_[block] = std::move(t);
    fab_.scheduleEvent(
        SimEvent(SimEventKind::BankDispatch, tile_, block),
        fab_.config().l2Latency);
}

void
L2Bank::dispatchLocal(BlockAddr block)
{
    BankTxn *tp = active_.find(block);
    CONSIM_ASSERT(tp, "dispatch for inactive block");
    BankTxn &t = *tp;
    CONSIM_ASSERT(t.phase == Phase::Lookup, "bad dispatch phase");
    const Msg &m = t.req;
    L2CacheLine *line = array_.lookup(localOf(block));
    const bool is_write = m.type == MsgType::L1GetM;

    if (line == nullptr) {
        // Partition miss: go to the home directory.
        t.phase = Phase::WaitHome;
        ++stats_.misses;
        sendToHome(is_write ? MsgType::GetM : MsgType::GetS, m);
        drainGlobalOps(block);
        return;
    }

    if (is_write && line->state == L2State::Shared) {
        // Upgrade: other partitions may hold copies.
        t.phase = Phase::WaitHome;
        ++stats_.upgrades;
        sendToHome(MsgType::GetM, m);
        drainGlobalOps(block);
        return;
    }

    const int req_idx = idxOfCore(m.reqCore);
    if (line->ownerCore >= 0 && line->ownerCore != req_idx) {
        // A member L1 holds the line dirty; extract before granting.
        t.phase = Phase::WaitL1Data;
        t.extractTarget = members_[line->ownerCore];
        sendL1(MsgType::L1WbReq, members_[line->ownerCore], block,
               is_write, /*to_invalid=*/is_write);
        return;
    }
    CONSIM_ASSERT(line->ownerCore != req_idx,
                  "L1 owner re-requesting block 0x", std::hex, block);

    ++stats_.hits;
    grantLocal(m, line);
    finishLocal(block);
}

void
L2Bank::grantLocal(const Msg &req, L2CacheLine *line)
{
    const bool is_write = req.type == MsgType::L1GetM;
    const int req_idx = idxOfCore(req.reqCore);

    if (is_write) {
        CONSIM_ASSERT(line->state == L2State::Exclusive ||
                          line->state == L2State::Modified,
                      "write grant without partition ownership");
        // Invalidate every other member copy inside the partition.
        line->presence.forEachSet([&](int i) {
            if (i == req_idx)
                return;
            sendL1(MsgType::L1Inv, members_[i], req.block, false);
            ++stats_.backInvals;
        });
        line->presence.assignSingle(req_idx);
        line->ownerCore = static_cast<std::int16_t>(req_idx);
        line->state = L2State::Modified; // silent E->M upgrade
    } else {
        line->presence.set(req_idx);
    }
    array_.touch(line);

    Msg d = makeMsg(MsgType::L1Data, req.block, req.reqCore, Unit::L1);
    d.reqCore = req.reqCore;
    d.vm = req.vm;
    d.isWrite = is_write;
    fab_.send(d);
}

void
L2Bank::finishLocal(BlockAddr block)
{
    active_.erase(block);
    pumpQueue(block);
}

void
L2Bank::pumpQueue(BlockAddr block)
{
    // Start queued operations until one occupies the block (creates
    // an active transaction), the block enters writeback (the PutAck
    // resumes the pump), or the queue drains. Forwards and
    // invalidations may complete synchronously without occupying the
    // block, so a single pop is not enough.
    while (!active_.contains(block)) {
        if (wb_.contains(block))
            return;
        if (!waiting_.has(block))
            return;
        startOp(waiting_.popFront(block));
    }
}

void
L2Bank::drainGlobalOps(BlockAddr block)
{
    // A transaction that is now parked waiting on the home must not
    // hold up forwards/invalidations that queued behind it while it
    // was in its lookup window: the home is blocked on those, and our
    // request is queued behind the home's current transaction --
    // letting them wait would deadlock the pair.
    while (waiting_.has(block)) {
        const MsgType t = waiting_.front(block).type;
        if (t != MsgType::FwdGetS && t != MsgType::FwdGetM &&
            t != MsgType::Inv) {
            break;
        }
        Msg m = waiting_.popFront(block);
        if (m.type == MsgType::Inv)
            onInv(m);
        else
            processFwdOnLine(m);
    }
}

void
L2Bank::startOp(Msg m)
{
    switch (m.type) {
      case MsgType::L1GetS:
      case MsgType::L1GetM: {
        const BlockAddr block = m.block;
        CONSIM_ASSERT(!wb_.count(block),
                      "pump started an op during writeback");
        BankTxn t;
        t.phase = Phase::Lookup;
        t.req = std::move(m);
        t.started = fab_.now();
        active_[block] = std::move(t);
        fab_.scheduleEvent(
            SimEvent(SimEventKind::BankDispatch, tile_, block),
            fab_.config().l2Latency);
        break;
      }
      case MsgType::FwdGetS:
      case MsgType::FwdGetM:
        processFwdOnLine(m);
        break;
      case MsgType::Inv:
        onInv(m);
        break;
      default:
        CONSIM_PANIC("bad queued op ", describe(m));
    }
}

// ---------------------------------------------------------------------
// L1 writebacks and extraction data
// ---------------------------------------------------------------------

void
L2Bank::onL1PutM(const Msg &m)
{
    const BlockAddr block = m.block;
    bool line_found = false;
    if (L2CacheLine *line = array_.lookup(localOf(block))) {
        const int idx = idxOfCore(m.srcTile);
        line->dirty = true;
        line->presence.clear(idx);
        if (line->ownerCore == idx)
            line->ownerCore = -1;
        line_found = true;
    }
    // Crossing with an extraction: the PutM carries the data an
    // outstanding L1WbReq was trying to pull (the WbReq will come
    // back marked stale). This applies whether or not the line is
    // still in the array (it is pinned there for victim extractions).
    BlockAddr txn_block = block;
    if (const BlockAddr *vt = victimExtract_.find(block))
        txn_block = *vt;
    const BankTxn *t = active_.find(txn_block);
    if (t &&
        (t->phase == Phase::WaitL1Data ||
         t->phase == Phase::WaitFwdL1Data ||
         t->phase == Phase::WaitVictimL1) &&
        t->extractTarget == m.srcTile) {
        handleExtractionData(txn_block);
        return;
    }
    if (line_found)
        return;
    if (WbEntry *wb = wb_.find(block)) {
        wb->dirty = true;
        return;
    }
    ++stats_.staleWrites;
}

void
L2Bank::onL1WbData(const Msg &m)
{
    BlockAddr txn_block = m.block;
    if (const BlockAddr *vt = victimExtract_.find(m.block))
        txn_block = *vt;
    BankTxn *tp = active_.find(txn_block);
    if (!tp) {
        // The extraction was satisfied by a crossing L1PutM already.
        CONSIM_ASSERT(m.stale, "WbData without extraction, ",
                      describe(m));
        return;
    }
    BankTxn &t = *tp;
    if ((t.phase != Phase::WaitL1Data &&
         t.phase != Phase::WaitFwdL1Data &&
         t.phase != Phase::WaitVictimL1) ||
        t.extractTarget != m.srcTile) {
        // Leftover response from an extraction that a crossing PutM
        // already completed; only a stale marker may remain.
        CONSIM_ASSERT(m.stale, "WbData in phase ",
                      static_cast<int>(t.phase));
        return;
    }
    if (m.stale) {
        // The L1 evicted concurrently; its L1PutM carries the data.
        t.expectPutM = true;
        return;
    }
    handleExtractionData(txn_block);
}

void
L2Bank::handleExtractionData(BlockAddr txn_block)
{
    BankTxn *tp = active_.find(txn_block);
    CONSIM_ASSERT(tp, "extraction without txn");
    BankTxn &t = *tp;

    switch (t.phase) {
      case Phase::WaitL1Data: {
        // Local grant was waiting on the previous owner's data.
        L2CacheLine *line = array_.lookup(localOf(txn_block));
        CONSIM_ASSERT(line, "extraction target vanished");
        const bool is_write = t.req.type == MsgType::L1GetM;
        line->dirty = true;
        if (line->ownerCore >= 0) {
            if (is_write)
                line->presence.clear(line->ownerCore);
            line->ownerCore = -1;
        }
        ++stats_.hits;
        grantLocal(t.req, line);
        finishLocal(txn_block);
        break;
      }
      case Phase::WaitFwdL1Data: {
        L2CacheLine *line = array_.lookup(localOf(txn_block));
        CONSIM_ASSERT(line, "forward target vanished");
        line->dirty = true;
        if (line->ownerCore >= 0) {
            if (t.req.type == MsgType::FwdGetM)
                line->presence.clear(line->ownerCore);
            line->ownerCore = -1;
        }
        const Msg fwd = t.req;
        active_.erase(txn_block);
        serveFwdFromLine(fwd, line);
        // serveFwdFromLine never re-enters a txn for this block; pop
        // any queued work now.
        finishLocal(txn_block);
        break;
      }
      case Phase::WaitVictimL1: {
        // The victim's data arrived; evict it and complete the fill.
        const BlockAddr victim = t.victimBlock;
        victimExtract_.erase(victim);
        L2CacheLine *vline = array_.lookup(localOf(victim));
        CONSIM_ASSERT(vline && vline->pinned, "pinned victim vanished");
        vline->dirty = true;
        vline->ownerCore = -1;
        evictLineNow(vline);
        installAndFinish(txn_block);
        break;
      }
      default:
        CONSIM_PANIC("extraction data in bad phase");
    }
}

// ---------------------------------------------------------------------
// Inbound global protocol traffic
// ---------------------------------------------------------------------

void
L2Bank::onFwd(const Msg &m)
{
    const BlockAddr block = m.block;
    ++stats_.fwdsServed;
    if (WbEntry *wb = wb_.find(block)) {
        serveFwdFromWb(m, *wb);
        return;
    }
    const BankTxn *t = active_.find(block);
    if (t && t->phase != Phase::WaitHome) {
        // A local-service operation is mid-flight; it finishes
        // without the home, so the forward waits at the front.
        waiting_.pushFront(block, m);
        return;
    }
    processFwdOnLine(m);
}

void
L2Bank::processFwdOnLine(const Msg &m)
{
    const BlockAddr block = m.block;
    L2CacheLine *line = array_.lookup(localOf(block));
    CONSIM_ASSERT(line, "forward for absent block 0x", std::hex, block,
                  std::dec, " at tile ", tile_);

    if (line->ownerCore >= 0) {
        // Pull the dirty data out of the owning member L1 first.
        CONSIM_ASSERT(!active_.count(block),
                      "fwd extraction over active txn");
        BankTxn t;
        t.phase = Phase::WaitFwdL1Data;
        t.req = m;
        t.started = fab_.now();
        t.extractTarget = members_[line->ownerCore];
        active_[block] = std::move(t);
        sendL1(MsgType::L1WbReq, members_[line->ownerCore], block,
               false, /*to_invalid=*/m.type == MsgType::FwdGetM);
        return;
    }
    serveFwdFromLine(m, line);
}

void
L2Bank::serveFwdFromLine(const Msg &m, L2CacheLine *line)
{
    const bool dirty = line->dirty;
    sendFwdReply(m, dirty);
    if (m.type == MsgType::FwdGetS) {
        // Downgrade: the home performs the sharing writeback, so our
        // retained copy is clean Shared.
        line->state = L2State::Shared;
        line->dirty = false;
    } else {
        // FwdGetM: surrender the block entirely.
        line->presence.forEachSet([&](int i) {
            sendL1(MsgType::L1Inv, members_[i], m.block, false);
            ++stats_.backInvals;
        });
        array_.invalidate(line);
    }
}

void
L2Bank::serveFwdFromWb(const Msg &m, WbEntry &wb)
{
    sendFwdReply(m, wb.dirty);
    // The pending Put is now stale; the home will treat it as such.
    wb.dirty = false;
}

void
L2Bank::sendFwdReply(const Msg &fwd, bool dirty)
{
    Msg data = makeMsg(MsgType::Data, fwd.block, fwd.reqBankTile,
                       Unit::L2Bank);
    data.reqCore = fwd.reqCore;
    data.reqBankTile = fwd.reqBankTile;
    data.reqGroup = fwd.reqGroup;
    data.vm = fwd.vm;
    data.c2cTransfer = true;
    data.dirtyData = dirty;
    fab_.send(data);

    Msg ack = makeMsg(MsgType::FwdAck, fwd.block,
                      fab_.homeTileFor(fwd.block), Unit::Dir);
    ack.vm = fwd.vm;
    ack.dirtyData = dirty;
    fab_.send(ack);
}

void
L2Bank::onInv(const Msg &m)
{
    const BlockAddr block = m.block;
    ++stats_.invsReceived;
    if (WbEntry *wb = wb_.find(block)) {
        wb->dirty = false; // data is dead; Put becomes stale
    } else {
        L2CacheLine *line = array_.lookup(localOf(block));
        CONSIM_ASSERT(line, "Inv for absent block 0x", std::hex, block,
                      std::dec, " at tile ", tile_);
        CONSIM_ASSERT(line->ownerCore < 0, "Inv for owned line");
        line->presence.forEachSet([&](int i) {
            sendL1(MsgType::L1Inv, members_[i], block, false);
            ++stats_.backInvals;
        });
        array_.invalidate(line);
    }
    Msg ack = makeMsg(MsgType::InvAck, block,
                      fab_.homeTileFor(block), Unit::Dir);
    ack.vm = m.vm;
    fab_.send(ack);
}

// ---------------------------------------------------------------------
// Fill path (home responses)
// ---------------------------------------------------------------------

void
L2Bank::onData(const Msg &m)
{
    BankTxn *tp = active_.find(m.block);
    CONSIM_ASSERT(tp && (tp->phase == Phase::WaitHome ||
                         tp->phase == Phase::WaitVictimL1),
                  "Data without fill in flight: ", describe(m));
    BankTxn &t = *tp;
    t.dataArrived = true;
    t.dataMsg = m;
    if (t.phase == Phase::WaitHome)
        tryCompleteFill(m.block);
}

void
L2Bank::onGrant(const Msg &m)
{
    BankTxn *tp = active_.find(m.block);
    CONSIM_ASSERT(tp && (tp->phase == Phase::WaitHome ||
                         tp->phase == Phase::WaitVictimL1),
                  "Grant without fill in flight: ", describe(m));
    BankTxn &t = *tp;
    t.grantArrived = true;
    t.grantMsg = m;
    if (t.phase == Phase::WaitHome)
        tryCompleteFill(m.block);
}

void
L2Bank::tryCompleteFill(BlockAddr block)
{
    BankTxn *tp = active_.find(block);
    CONSIM_ASSERT(tp, "completeFill inactive");
    BankTxn &t = *tp;
    if (t.phase != Phase::WaitHome)
        return;
    if (!t.grantArrived)
        return;
    if (!t.grantMsg.noDataNeeded && !t.dataArrived)
        return;

    if (t.grantMsg.noDataNeeded) {
        // Upgrade grant: the S line must still be present (the home
        // would have supplied data had we been invalidated).
        L2CacheLine *line = array_.lookup(localOf(block));
        CONSIM_ASSERT(line, "noData grant with absent line");
        CONSIM_ASSERT(t.grantMsg.grantState == L2State::Modified,
                      "noData grant must be an upgrade");
        line->state = L2State::Modified;
        line->dirty = true;
        grantLocal(t.req, line);
        sendDone(block);
        finishLocal(block);
        return;
    }

    L2CacheLine *slot = pickVictim(block);
    if (slot == nullptr) {
        // Every candidate in the set is mid-operation; retry shortly.
        ++stats_.fillRetries;
        fab_.scheduleEvent(
            SimEvent(SimEventKind::BankFillRetry, tile_, block), 8);
        return;
    }
    if (const auto held = array_.blockAt(slot)) {
        if (slot->ownerCore >= 0) {
            // The victim's data lives dirty in a member L1.
            const BlockAddr victim = globalOf(*held);
            t.phase = Phase::WaitVictimL1;
            t.victimBlock = victim;
            t.extractTarget = members_[slot->ownerCore];
            slot->pinned = true;
            victimExtract_[victim] = block;
            sendL1(MsgType::L1WbReq, members_[slot->ownerCore], victim,
                   false, /*to_invalid=*/true);
            return;
        }
        evictLineNow(slot);
    }
    installAndFinish(block);
}

void
L2Bank::fillRetry(BlockAddr block)
{
    if (active_.count(block))
        tryCompleteFill(block);
}

void
L2Bank::installAndFinish(BlockAddr block)
{
    BankTxn *tp = active_.find(block);
    CONSIM_ASSERT(tp, "install without txn");
    BankTxn &t = *tp;

    // Fills honour the owning VM's QoS way mask (all-ones when
    // partitioning is off).
    const std::uint64_t mask = fab_.qosWayMask(fab_.vmOfBlock(block));
    L2CacheLine *slot = array_.victim(localOf(block), mask);
    CONSIM_ASSERT(slot && !array_.blockAt(slot),
                  "no free slot at install time");
    if (CONSIM_CHECK_ACTIVE(Full)) {
        const int way = array_.wayOf(localOf(block), slot);
        if (!((mask >> way) & 1))
            CONSIM_CHECK_FAIL("QoS way-mask violation: fill of block ",
                              block, " (vm ", fab_.vmOfBlock(block),
                              ") landed in way ", way,
                              " outside mask ", mask);
    }
    array_.install(slot, localOf(block));
    slot->state = t.grantMsg.grantState;
    slot->dirty = t.grantMsg.grantState == L2State::Modified &&
                  t.dataMsg.dirtyData;
    slot->vm = fab_.vmOfBlock(block);

    fab_.recordL2Miss(t.req.vm, t.dataMsg.c2cTransfer,
                      t.dataMsg.c2cTransfer && t.dataMsg.dirtyData);

    grantLocal(t.req, slot);
    sendDone(block);
    finishLocal(block);
}

L2CacheLine *
L2Bank::pickVictim(BlockAddr block)
{
    // Only ways the owning VM's QoS mask allows are candidates (the
    // mask is all-ones when off). A pinned line is mid-extraction,
    // and a line with an operation in flight or queued cannot go yet.
    return array_.victim(
        localOf(block), fab_.qosWayMask(fab_.vmOfBlock(block)),
        [this](BlockAddr local, const L2CacheLine &line) {
            const BlockAddr held = globalOf(local);
            return !line.pinned && !active_.contains(held) &&
                   !wb_.contains(held) && !waiting_.has(held);
        });
}

void
L2Bank::evictLineNow(L2CacheLine *line)
{
    const auto local = array_.blockAt(line);
    CONSIM_ASSERT(local && line->ownerCore < 0,
                  "evicting an owned line");
    const BlockAddr block = globalOf(*local);
    line->presence.forEachSet([&](int i) {
        sendL1(MsgType::L1Inv, members_[i], block, false);
        ++stats_.backInvals;
    });
    const bool dirty = line->dirty;
    if (dirty)
        ++stats_.evictDirty;
    else
        ++stats_.evictClean;
    wb_[block] = WbEntry{dirty, line->vm, fab_.now()};

    Msg put = makeMsg(dirty ? MsgType::PutM : MsgType::PutS, block,
                      fab_.homeTileFor(block), Unit::Dir);
    put.reqGroup = group_;
    put.vm = line->vm;
    put.dirtyData = dirty;
    fab_.send(put);

    array_.invalidate(line);
}

void
L2Bank::onPutAck(const Msg &m)
{
    const auto erased = wb_.erase(m.block);
    CONSIM_ASSERT(erased == 1, "PutAck without writeback entry");
    pumpQueue(m.block);
}

// ---------------------------------------------------------------------
// Message helpers and invariants
// ---------------------------------------------------------------------

Msg
L2Bank::makeMsg(MsgType t, BlockAddr block, CoreId dst_tile,
                Unit dst_unit) const
{
    Msg m;
    m.type = t;
    m.block = block;
    m.srcTile = tile_;
    m.srcUnit = Unit::L2Bank;
    m.dstTile = dst_tile;
    m.dstUnit = dst_unit;
    return m;
}

void
L2Bank::sendToHome(MsgType t, const Msg &req)
{
    Msg m = makeMsg(t, req.block, fab_.homeTileFor(req.block),
                    Unit::Dir);
    m.reqCore = req.reqCore;
    m.reqBankTile = tile_;
    m.reqGroup = group_;
    m.vm = req.vm;
    m.isWrite = t == MsgType::GetM;
    fab_.send(m);
}

void
L2Bank::sendL1(MsgType t, CoreId core, BlockAddr block, bool is_write,
               bool to_invalid)
{
    Msg m = makeMsg(t, block, core, Unit::L1);
    m.isWrite = is_write;
    m.toInvalid = to_invalid;
    m.vm = fab_.vmOfBlock(block);
    fab_.send(m);
}

void
L2Bank::sendDone(BlockAddr block)
{
    Msg m = makeMsg(MsgType::Done, block, fab_.homeTileFor(block),
                    Unit::Dir);
    m.vm = fab_.vmOfBlock(block);
    fab_.send(m);
}

const char *
L2Bank::lineFault(BlockAddr local, const L2CacheLine &line) const
{
    if (line.state != L2State::Shared && line.state != L2State::Exclusive &&
        line.state != L2State::Modified)
        return "held line in no valid state";
    bool outside = false;
    line.presence.forEachSet([&](int idx) { outside |= idx >= groupSize_; });
    if (outside)
        return "presence bit outside the group";
    if (line.ownerCore >= groupSize_ || line.ownerCore < -1)
        return "L1 owner outside the group";
    if (line.ownerCore >= 0 && !line.presence.test(line.ownerCore))
        return "owner without presence bit";
    if (line.ownerCore >= 0 && line.state == L2State::Shared)
        return "L1 owner under a Shared partition line";
    if (line.vm != fab_.vmOfBlock(globalOf(local)))
        return "line of another VM's block";
    return nullptr;
}

void
L2Bank::checkInvariants() const
{
    array_.forEachLine([&](BlockAddr local, const L2CacheLine &line) {
        const char *fault = lineFault(local, line);
        CONSIM_ASSERT(fault == nullptr, "bank ", tile_, " block 0x",
                      std::hex, globalOf(local), std::dec, ": ", fault);
    });
}

void
L2Bank::auditStuckTxns(Cycle now, Cycle limit) const
{
    active_.forEach([&](BlockAddr block, const BankTxn &t) {
        if (now - t.started > limit) {
            CONSIM_CHECK_FAIL("bank ", tile_, ": transaction on block "
                              "0x", std::hex, block, std::dec,
                              " stuck for ", now - t.started,
                              " cycles (phase ",
                              static_cast<int>(t.phase), ", req ",
                              describe(t.req), ")");
        }
    });
    wb_.forEach([&](BlockAddr block, const WbEntry &wb) {
        if (now - wb.started > limit) {
            CONSIM_CHECK_FAIL("bank ", tile_, ": writeback of block "
                              "0x", std::hex, block, std::dec,
                              " awaiting PutAck for ",
                              now - wb.started, " cycles");
        }
    });
}

namespace
{

/** Sorted keys of a block-indexed map (deterministic diag output). */
template <typename Map>
std::vector<BlockAddr>
sortedBlocks(const Map &m)
{
    std::vector<BlockAddr> keys = m.keys();
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

json::Value
L2Bank::diagJson() const
{
    auto v = json::Value::object();
    v.set("tile", tile_);
    auto act = json::Value::array();
    for (const BlockAddr block : sortedBlocks(active_)) {
        const BankTxn &t = active_.at(block);
        auto e = json::Value::object();
        e.set("block", block);
        e.set("phase", static_cast<int>(t.phase));
        e.set("started", t.started);
        e.set("req", describe(t.req));
        if (t.extractTarget != invalidCore)
            e.set("extract_target", t.extractTarget);
        act.push(std::move(e));
    }
    v.set("active", std::move(act));
    auto waitv = json::Value::array();
    for (const BlockAddr block : sortedBlocks(waiting_)) {
        auto e = json::Value::object();
        e.set("block", block);
        e.set("depth",
              static_cast<std::uint64_t>(waiting_.depth(block)));
        e.set("front", describe(waiting_.front(block)));
        waitv.push(std::move(e));
    }
    v.set("waiting", std::move(waitv));
    auto wbv = json::Value::array();
    for (const BlockAddr block : sortedBlocks(wb_)) {
        const WbEntry &wb = wb_.at(block);
        auto e = json::Value::object();
        e.set("block", block);
        e.set("dirty", wb.dirty);
        e.set("started", wb.started);
        wbv.push(std::move(e));
    }
    v.set("writebacks", std::move(wbv));
    return v;
}

} // namespace consim
