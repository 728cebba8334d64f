#include "coherence/directory.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/bitops.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "noc/routing.hh"

namespace consim
{

namespace
{

CacheGeometry
dirCacheGeometry(const MachineConfig &cfg)
{
    // The CacheArray is a tag array here; one "line" per entry.
    CacheGeometry g;
    g.sizeBytes = cfg.dirCacheEntries * blockBytes;
    g.assoc = cfg.dirCacheAssoc;
    return g;
}

} // namespace

DirectorySlice::DirectorySlice(Fabric &fabric, CoreId tile,
                               DirectoryStorage &store)
    : fab_(fabric), tile_(tile), store_(store),
      dirCache_(dirCacheGeometry(fabric.config()))
{
    // Pre-size from the machine so the transaction table and wait
    // pool never grow mid-run (the zero-allocation steady-state
    // contract); a home slice can have every core's request queued.
    const auto n = std::max<std::size_t>(
        128, static_cast<std::size_t>(fabric.config().numCores()));
    active_.reserve(n);
    waiting_.reserve(n, 2 * n);
    stats_.registerIn(statsGroup_);
}

void
DirectorySlice::handle(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetM:
      case MsgType::PutM:
      case MsgType::PutS:
        ++stats_.requests;
        startTxn(msg);
        break;
      case MsgType::InvAck:
        onInvAck(msg);
        break;
      case MsgType::FwdAck:
        onFwdAck(msg);
        break;
      case MsgType::Done:
        onDone(msg);
        break;
      default:
        CONSIM_PANIC("directory slice ", tile_, " got ",
                     describe(msg));
    }
}

void
DirectorySlice::startTxn(Msg m)
{
    const BlockAddr block = m.block;
    if (active_.contains(block)) {
        ++stats_.queuedRequests;
        waiting_.pushBack(block, std::move(m));
        return;
    }
    Txn &t = active_[block];
    t.req = std::move(m);
    t.started = fab_.now();

    Cycle lat = fab_.config().dirLatency;
    if (fab_.config().dirCacheEnabled) {
        if (dirCacheAccess(block)) {
            ++stats_.dirCacheHits;
        } else {
            ++stats_.dirCacheMisses;
            lat += fab_.config().memLatency;
            t.dirFetched = true;
        }
    } else {
        // No directory cache: every lookup fetches state off-chip.
        lat += fab_.config().memLatency;
        t.dirFetched = true;
    }
    fab_.scheduleEvent(SimEvent(SimEventKind::DirProcess, tile_, block),
                       lat);
}

bool
DirectorySlice::dirCacheAccess(BlockAddr block)
{
    if (auto *line = dirCache_.lookup(block)) {
        dirCache_.touch(line);
        return true;
    }
    auto *victim = dirCache_.victim(block);
    // Victim state lives in the backing store; eviction is silent.
    dirCache_.install(victim, block);
    return false;
}

void
DirectorySlice::process(BlockAddr block)
{
    Txn *tp = active_.find(block);
    CONSIM_ASSERT(tp, "process() for inactive block");
    Txn &t = *tp;

    // A request leaves its block's entry non-default, so it is
    // inserted; a Put only looks its entry up.
    switch (t.req.type) {
      case MsgType::GetS:
        processGetS(t, store_.insert(block));
        break;
      case MsgType::GetM:
        processGetM(t, store_.insert(block));
        break;
      case MsgType::PutM:
      case MsgType::PutS:
        processPut(t);
        break;
      default:
        CONSIM_PANIC("bad txn type ", toString(t.req.type));
    }
}

void
DirectorySlice::processGetS(Txn &t, DirEntry &e)
{
    const GroupId req = t.req.reqGroup;
    switch (e.state) {
      case L2State::Invalid:
        sendMemRead(t.req);
        e.state = L2State::Exclusive;
        e.owner = static_cast<std::int16_t>(req);
        e.sharers.assignSingle(req);
        sendGrant(t, L2State::Exclusive, false);
        break;
      case L2State::Exclusive:
      case L2State::Modified: {
        const auto owner = static_cast<GroupId>(e.owner);
        CONSIM_ASSERT(owner != req,
                      "owner group re-requesting GetS, block ",
                      t.req.block);
        sendToBank(MsgType::FwdGetS, owner, t.req);
        ++stats_.forwards;
        t.fwdAckPending = true;
        e.state = L2State::Shared;
        e.sharers.assignSingle(owner);
        e.sharers.set(req);
        e.owner = -1;
        sendGrant(t, L2State::Shared, false);
        break;
      }
      case L2State::Shared: {
        CONSIM_ASSERT(!e.sharers.test(req),
                      "sharer re-requesting GetS, block ", t.req.block);
        if (fab_.config().cleanForwarding) {
            const GroupId fwd = closestSharer(e.sharers, invalidGroup,
                                              t.req.block,
                                              t.req.reqBankTile);
            sendToBank(MsgType::FwdGetS, fwd, t.req);
            ++stats_.forwards;
            t.fwdAckPending = true;
        } else {
            sendMemRead(t.req);
        }
        e.sharers.set(req);
        sendGrant(t, L2State::Shared, false);
        break;
      }
    }
}

void
DirectorySlice::processGetM(Txn &t, DirEntry &e)
{
    const GroupId req = t.req.reqGroup;
    switch (e.state) {
      case L2State::Invalid:
        sendMemRead(t.req);
        e.state = L2State::Modified;
        e.owner = static_cast<std::int16_t>(req);
        e.sharers.assignSingle(req);
        sendGrant(t, L2State::Modified, false);
        break;
      case L2State::Exclusive:
      case L2State::Modified: {
        const auto owner = static_cast<GroupId>(e.owner);
        CONSIM_ASSERT(owner != req,
                      "owner group re-requesting GetM, block ",
                      t.req.block);
        sendToBank(MsgType::FwdGetM, owner, t.req);
        ++stats_.forwards;
        t.fwdAckPending = true;
        e.state = L2State::Modified;
        e.owner = static_cast<std::int16_t>(req);
        e.sharers.assignSingle(req);
        sendGrant(t, L2State::Modified, false);
        break;
      }
      case L2State::Shared: {
        // Work on the sharer set in place (a deep copy would churn
        // the spill vector at >64 groups); the requester's bit is
        // re-established at the end.
        const bool has_copy = e.sharers.test(req);
        e.sharers.clear(req);
        if (e.sharers.none()) {
            // Requester is the sole sharer: silent data, pure grant.
            e.state = L2State::Modified;
            e.owner = static_cast<std::int16_t>(req);
            e.sharers.assignSingle(req);
            sendGrant(t, L2State::Modified, true);
            break;
        }
        GroupId fwd = invalidGroup;
        if (!has_copy) {
            // One sharer forwards data and invalidates itself.
            fwd = closestSharer(e.sharers, invalidGroup, t.req.block,
                                t.req.reqBankTile);
            sendToBank(MsgType::FwdGetM, fwd, t.req);
            ++stats_.forwards;
            t.fwdAckPending = true;
        }
        e.sharers.forEachSet([&](int g) {
            if (g == fwd)
                return;
            sendToBank(MsgType::Inv, g, t.req);
            ++stats_.invalidations;
            ++t.acksPending;
        });
        e.state = L2State::Modified;
        e.owner = static_cast<std::int16_t>(req);
        e.sharers.assignSingle(req);
        sendGrant(t, L2State::Modified, has_copy);
        break;
      }
    }
}

void
DirectorySlice::processPut(Txn &t)
{
    const GroupId g = t.req.reqGroup;
    const bool is_put_m = t.req.type == MsgType::PutM;

    // An entry that returns to default leaves the store. An absent
    // entry is Invalid, so a Put that finds none is stale.
    if (DirEntry *e = store_.find(t.req.block)) {
        const bool is_owner = (e->state == L2State::Exclusive ||
                               e->state == L2State::Modified) &&
                              static_cast<GroupId>(e->owner) == g;
        if (is_owner) {
            if (is_put_m && t.req.dirtyData)
                sendMemWrite(t.req);
            store_.erase(*e);
        } else if (e->state == L2State::Shared && e->sharers.test(g)) {
            // A demoted owner's PutM degenerates to PutS; any dirty
            // data was already written back when the line was
            // forwarded.
            e->sharers.clear(g);
            if (e->sharers.none())
                store_.erase(*e);
        }
    }
    // Otherwise the Put is stale (the line moved on); just ack.

    Msg ack;
    ack.type = MsgType::PutAck;
    ack.block = t.req.block;
    ack.vm = t.req.vm;
    ack.srcTile = tile_;
    ack.srcUnit = Unit::Dir;
    ack.dstTile = t.req.srcTile;
    ack.dstUnit = Unit::L2Bank;
    fab_.send(ack);

    finishTxn(t.req.block);
}

void
DirectorySlice::onInvAck(const Msg &m)
{
    Txn *tp = active_.find(m.block);
    CONSIM_ASSERT(tp, "InvAck for inactive block ", m.block);
    Txn &t = *tp;
    CONSIM_ASSERT(t.acksPending > 0, "unexpected InvAck, block ",
                  m.block);
    --t.acksPending;
    tryFinish(m.block);
}

void
DirectorySlice::onFwdAck(const Msg &m)
{
    Txn *tp = active_.find(m.block);
    CONSIM_ASSERT(tp, "FwdAck for inactive block ", m.block);
    Txn &t = *tp;
    CONSIM_ASSERT(t.fwdAckPending, "unexpected FwdAck, block ",
                  m.block);
    t.fwdAckPending = false;
    // A dirty line forwarded on GetS performs a sharing writeback so
    // that memory is clean while the line is Shared.
    if (t.req.type == MsgType::GetS && m.dirtyData)
        sendMemWrite(t.req);
    tryFinish(m.block);
}

void
DirectorySlice::onDone(const Msg &m)
{
    Txn *tp = active_.find(m.block);
    CONSIM_ASSERT(tp, "Done for inactive block ", m.block);
    Txn &t = *tp;
    CONSIM_ASSERT(t.grantSent, "Done before grant, block ", m.block);
    CONSIM_ASSERT(!t.doneReceived, "double Done, block ", m.block);
    t.doneReceived = true;
    tryFinish(m.block);
}

void
DirectorySlice::tryFinish(BlockAddr block)
{
    // A transaction retires only when the requester has confirmed the
    // fill (Done) and every invalidation/forward ack has returned; the
    // blocking home then admits the next queued request for the block.
    const Txn *t = active_.find(block);
    CONSIM_ASSERT(t, "tryFinish of inactive txn");
    if (t->doneReceived && t->acksPending == 0 && !t->fwdAckPending)
        finishTxn(block);
}

void
DirectorySlice::finishTxn(BlockAddr block)
{
    const Txn *t = active_.find(block);
    CONSIM_ASSERT(t, "finish of inactive txn");
    CONSIM_ASSERT(t->acksPending == 0 && !t->fwdAckPending,
                  "finishing txn with outstanding acks, block ", block);
    active_.erase(block);

    if (!waiting_.has(block))
        return;
    startTxn(waiting_.popFront(block));
}

GroupId
DirectorySlice::closestSharer(const GroupSet &sharers, GroupId exclude,
                              BlockAddr block, CoreId req_bank) const
{
    GroupId best = invalidGroup;
    int best_dist = std::numeric_limits<int>::max();
    sharers.forEachSet([&](int g) {
        if (g == exclude)
            return;
        const CoreId bank = fab_.bankTileFor(g, block);
        const int d = hopDistance(bank, req_bank, fab_.config().meshX);
        if (d < best_dist) {
            best_dist = d;
            best = g;
        }
    });
    CONSIM_ASSERT(best != invalidGroup, "no sharer to pick");
    return best;
}

void
DirectorySlice::sendMemRead(const Msg &req)
{
    ++stats_.memReads;
    Msg m = req;
    m.type = MsgType::MemRead;
    m.srcTile = tile_;
    m.srcUnit = Unit::Dir;
    m.dstTile = fab_.memTileFor(req.block);
    m.dstUnit = Unit::Mem;
    // If this transaction already fetched directory state off-chip,
    // the data came up with it (state sits beside the block in DRAM);
    // the controller then only charges a transfer cost.
    const Txn *t = active_.find(req.block);
    m.overlappedFetch = t && t->dirFetched;
    fab_.send(m);
}

void
DirectorySlice::sendMemWrite(const Msg &req)
{
    ++stats_.memWrites;
    Msg m = req;
    m.type = MsgType::MemWrite;
    m.srcTile = tile_;
    m.srcUnit = Unit::Dir;
    m.dstTile = fab_.memTileFor(req.block);
    m.dstUnit = Unit::Mem;
    m.dirtyData = true;
    fab_.send(m);
}

void
DirectorySlice::sendGrant(Txn &t, L2State grant, bool no_data)
{
    CONSIM_ASSERT(!t.grantSent, "double grant");
    t.grantSent = true;
    Msg m = t.req;
    m.type = MsgType::Grant;
    m.srcTile = tile_;
    m.srcUnit = Unit::Dir;
    m.dstTile = t.req.reqBankTile;
    m.dstUnit = Unit::L2Bank;
    m.grantState = grant;
    m.noDataNeeded = no_data;
    fab_.send(m);
}

void
DirectorySlice::sendToBank(MsgType type, GroupId g, const Msg &req)
{
    Msg m = req;
    m.type = type;
    m.srcTile = tile_;
    m.srcUnit = Unit::Dir;
    m.dstTile = fab_.bankTileFor(g, req.block);
    m.dstUnit = Unit::L2Bank;
    fab_.send(m);
}

void
DirectorySlice::auditStuckTxns(Cycle now, Cycle limit) const
{
    active_.forEach([&](BlockAddr block, const Txn &t) {
        if (now - t.started > limit) {
            CONSIM_CHECK_FAIL("dir ", tile_, ": transaction on block "
                              "0x", std::hex, block, std::dec,
                              " stuck for ", now - t.started,
                              " cycles (req ", describe(t.req),
                              ", acks_pending=", t.acksPending,
                              ", grant_sent=", t.grantSent,
                              ", done=", t.doneReceived, ")");
        }
    });
}

json::Value
DirectorySlice::diagJson() const
{
    std::vector<BlockAddr> keys = active_.keys();
    std::sort(keys.begin(), keys.end());

    auto v = json::Value::object();
    v.set("tile", tile_);
    auto act = json::Value::array();
    for (const BlockAddr block : keys) {
        const Txn &t = active_.at(block);
        auto e = json::Value::object();
        e.set("block", block);
        e.set("req", describe(t.req));
        e.set("started", t.started);
        e.set("acks_pending", t.acksPending);
        e.set("fwd_ack_pending", t.fwdAckPending);
        e.set("grant_sent", t.grantSent);
        e.set("done_received", t.doneReceived);
        act.push(std::move(e));
    }
    v.set("active", std::move(act));

    keys = waiting_.keys();
    std::sort(keys.begin(), keys.end());
    auto waitv = json::Value::array();
    for (const BlockAddr block : keys) {
        auto e = json::Value::object();
        e.set("block", block);
        e.set("depth",
              static_cast<std::uint64_t>(waiting_.depth(block)));
        waitv.push(std::move(e));
    }
    v.set("waiting", std::move(waitv));
    return v;
}

void
DirectorySlice::debugDump() const
{
    active_.forEach([&](BlockAddr block, const Txn &t) {
        std::fprintf(stderr,
                     "  dir%d blk=0x%llx req=%s from=%d acks=%d "
                     "fwdAck=%d grant=%d done=%d\n",
                     tile_, (unsigned long long)block,
                     toString(t.req.type), t.req.srcTile,
                     t.acksPending, t.fwdAckPending, t.grantSent,
                     t.doneReceived);
    });
    for (const BlockAddr block : waiting_.keys()) {
        std::fprintf(stderr, "  dir%d blk=0x%llx waiting=%zu\n",
                     tile_, (unsigned long long)block,
                     waiting_.depth(block));
    }
}

} // namespace consim
