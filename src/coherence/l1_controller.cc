#include "coherence/l1_controller.hh"

#include "common/check.hh"
#include "common/logging.hh"

namespace consim
{

namespace
{

CacheGeometry
geo(std::uint64_t bytes, int assoc)
{
    CacheGeometry g;
    g.sizeBytes = bytes;
    g.assoc = assoc;
    return g;
}

} // namespace

L1Controller::L1Controller(Fabric &fabric, CoreId tile)
    : fab_(fabric), tile_(tile), group_(fabric.groupOfTile(tile)),
      l0_(geo(fabric.config().l0Bytes, fabric.config().l0Assoc)),
      l1_(geo(fabric.config().l1Bytes, fabric.config().l1Assoc))
{
    stats_.registerIn(statsGroup_);
}

AccessResult
L1Controller::access(BlockAddr block, bool is_write)
{
    CONSIM_ASSERT(!pending_.active, "access while miss outstanding");
    const auto &cfg = fab_.config();
    PrivateCacheLine *l1line = l1_.lookup(block);

    if (!is_write) {
        if (PrivateCacheLine *l0line = l0_.lookup(block)) {
            CONSIM_ASSERT(l1line, "L0 line without L1 line");
            l0_.touch(l0line);
            ++stats_.l0Hits;
            return {true, cfg.l0Latency};
        }
        if (l1line) {
            l1_.touch(l1line);
            fillL0(block);
            ++stats_.l1Hits;
            return {true, cfg.l0Latency + cfg.l1Latency};
        }
    } else if (l1line && l1line->state == L1State::Modified) {
        const bool in_l0 = l0_.lookup(block) != nullptr;
        l1_.touch(l1line);
        if (!in_l0)
            fillL0(block);
        if (in_l0) {
            ++stats_.l0Hits;
            return {true, cfg.l0Latency};
        }
        ++stats_.l1Hits;
        return {true, cfg.l0Latency + cfg.l1Latency};
    }

    // Miss to the last private level: hand off to the partition bank.
    ++stats_.misses;
    pending_ = {true, block, is_write, fab_.now()};
    sendToBank(is_write ? MsgType::L1GetM : MsgType::L1GetS, block);
    return {false, 0};
}

void
L1Controller::handle(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::L1Data: {
        CONSIM_ASSERT(pending_.active && pending_.block == msg.block,
                      "unexpected fill: ", describe(msg));
        PrivateCacheLine *line = l1_.lookup(msg.block);
        if (line == nullptr) {
            PrivateCacheLine *victim = l1_.victim(msg.block);
            if (const auto old = l1_.blockAt(victim)) {
                if (victim->state == L1State::Modified) {
                    ++stats_.writebacks;
                    sendToBank(MsgType::L1PutM, *old);
                }
                // Keep L0 c L1 inclusion.
                if (auto *l0v = l0_.lookup(*old))
                    l0_.invalidate(l0v);
            }
            l1_.install(victim, msg.block);
            line = victim;
        }
        line->state =
            msg.isWrite ? L1State::Modified : L1State::Shared;
        l1_.touch(line);
        fillL0(msg.block);

        const Cycle lat = fab_.now() - pending_.start;
        stats_.missLatency.sample(lat);
        fab_.recordL1Miss(msg.vm, lat);
        pending_.active = false;
        CONSIM_ASSERT(missDone_, "no miss callback registered");
        missDone_();
        break;
      }
      case MsgType::L1Inv: {
        ++stats_.invalsReceived;
        if (PrivateCacheLine *line = l1_.lookup(msg.block)) {
            CONSIM_ASSERT(line->state != L1State::Modified,
                          "Inv for a line this L1 owns");
            l1_.invalidate(line);
            if (auto *l0line = l0_.lookup(msg.block))
                l0_.invalidate(l0line);
        }
        Msg ack;
        ack.type = MsgType::L1InvAck;
        ack.block = msg.block;
        ack.vm = msg.vm;
        ack.srcTile = tile_;
        ack.srcUnit = Unit::L1;
        ack.dstTile = msg.srcTile;
        ack.dstUnit = Unit::L2Bank;
        fab_.send(ack);
        break;
      }
      case MsgType::L1WbReq: {
        ++stats_.wbReqsServed;
        PrivateCacheLine *line = l1_.lookup(msg.block);
        Msg wb;
        wb.type = MsgType::L1WbData;
        wb.block = msg.block;
        wb.vm = msg.vm;
        wb.srcTile = tile_;
        wb.srcUnit = Unit::L1;
        wb.dstTile = msg.srcTile;
        wb.dstUnit = Unit::L2Bank;
        if (line && line->state == L1State::Modified) {
            wb.stale = false;
            if (msg.toInvalid) {
                l1_.invalidate(line);
                if (auto *l0line = l0_.lookup(msg.block))
                    l0_.invalidate(l0line);
            } else {
                line->state = L1State::Shared;
            }
        } else {
            // The line crossed with our own eviction; the L1PutM in
            // flight carries the data.
            CONSIM_ASSERT(line == nullptr,
                          "WbReq for non-owned line in state ",
                          line ? toString(line->state) : "I");
            wb.stale = true;
        }
        fab_.send(wb);
        break;
      }
      default:
        CONSIM_PANIC("L1 at tile ", tile_, " got ", describe(msg));
    }
}

void
L1Controller::fillL0(BlockAddr block)
{
    if (l0_.lookup(block))
        return;
    PrivateCacheLine *victim = l0_.victim(block);
    l0_.install(victim, block); // L0 evictions are silent (clean)
}

void
L1Controller::sendToBank(MsgType t, BlockAddr block)
{
    Msg m;
    m.type = t;
    m.block = block;
    m.srcTile = tile_;
    m.srcUnit = Unit::L1;
    m.dstTile = fab_.bankTileFor(group_, block);
    m.dstUnit = Unit::L2Bank;
    m.reqCore = tile_;
    m.reqGroup = group_;
    m.vm = fab_.vmOfBlock(block);
    fab_.send(m);
}

void
L1Controller::auditStuckMiss(Cycle now, Cycle limit) const
{
    if (pending_.active && now - pending_.start > limit) {
        CONSIM_CHECK_FAIL("L1 ", tile_, ": miss on block 0x",
                          std::hex, pending_.block, std::dec,
                          " outstanding for ", now - pending_.start,
                          " cycles (", pending_.isWrite ? "write"
                                                        : "read",
                          ")");
    }
}

void
L1Controller::checkInvariants() const
{
    l0_.forEachLine([&](BlockAddr block, const PrivateCacheLine &) {
        CONSIM_ASSERT(l1_.lookup(block) != nullptr,
                      "L0 inclusion violated for block 0x", std::hex,
                      block);
    });
}

} // namespace consim
