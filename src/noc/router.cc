#include "noc/router.hh"

#include <algorithm>
#include <utility>

#include "common/check.hh"
#include "common/logging.hh"

namespace consim
{

MeshShared::MeshShared(const NocParams &params, std::size_t pool_bound,
                       DeliverFn deliver_fn)
    : col(static_cast<std::size_t>(params.meshX * params.meshY)),
      wake(col.size(), cycleNever),
      // A pass is due at most pipelineDelay cycles ahead.
      due(static_cast<int>(col.size()),
          std::size_t(1) << ceilLog2(params.pipelineDelay + 1)),
      queued(static_cast<int>(col.size())),
      // Outputs finish 1..dataFlits cycles after their grant.
      finishing(static_cast<int>(col.size()),
                std::size_t(1) << ceilLog2(params.dataFlits + 1)),
      pool(pool_bound),
      deliver(std::move(deliver_fn))
{
    for (std::size_t t = 0; t < col.size(); ++t)
        col[t] = static_cast<int>(t) % params.meshX;
}

void
MeshShared::clearTraffic()
{
    std::fill(wake.begin(), wake.end(), cycleNever);
    due.clear();
    finishing.clear();
    busyOutputs = 0;
    buffered = 0;
    pool.clear();
}

Router::Router(CoreId tile, const NocParams &params, NetworkStats *stats,
               MeshShared *shared)
    : totalVcs_(params.totalVcs()), vcsPerVnet_(params.vcsPerVnet),
      ringShift_(static_cast<unsigned>(ceilLog2(params.vcBufferFlits))),
      ringMask_((1u << ringShift_) - 1), shared_(shared),
      pool_(&shared->pool), wake_(&shared->wake.at(tile)), tile_(tile),
      x_(shared->col.at(tile)),
      pipelineDelay_(static_cast<Cycle>(params.pipelineDelay)),
      portVcs_((std::uint64_t(1) << totalVcs_) - 1),
      in_(static_cast<std::size_t>(NumPorts * totalVcs_)),
      // A VC holds at most vcBufferFlits packets (1 flit minimum).
      ring_(static_cast<std::size_t>(NumPorts * totalVcs_) << ringShift_),
      params_(params), stats_(stats)
{
    CONSIM_ASSERT(params_.vcBufferFlits >= params_.dataFlits,
                  "VC buffer must hold a full data packet");
    CONSIM_ASSERT(params_.vcBufferFlits <= maxVcBufferFlits,
                  "a VC's ring position and length fit a byte; ",
                  params_.vcBufferFlits, "-flit VC buffers exceed it");
    CONSIM_ASSERT(NumPorts * totalVcs_ <= maxInputVcs,
                  "switch allocator tracks input-VC occupancy in one "
                  "64-bit word; ", NumPorts * totalVcs_,
                  " input VCs exceed it");
    for (int idx = 0; idx < NumPorts * totalVcs_; ++idx) {
        in_[idx].credits = static_cast<std::int16_t>(params_.vcBufferFlits);
        in_[idx].inPort = static_cast<std::uint8_t>(idx / totalVcs_);
    }
}

void
Router::setNeighbor(int port, Router *r)
{
    CONSIM_ASSERT(port > PortLocal && port < NumPorts, "bad port ", port);
    neighbor_[port] = r;
}

void
Router::setQos(VmId protected_vm, int reserved_vcs)
{
    CONSIM_ASSERT(reserved_vcs >= 0 &&
                      reserved_vcs < params_.vcsPerVnet,
                  "QoS must leave at least one shared VC per vnet "
                  "(reserved ", reserved_vcs, " of ",
                  params_.vcsPerVnet, ")");
    qosProtectedVm_ = protected_vm;
    qosReservedVcs_ = reserved_vcs;
}

bool
Router::canAccept(int in_port, int vnet, int len, VmId vm,
                  int *vc_out) const
{
    // Unprotected traffic is confined to the low (shared) VCs of its
    // vnet; protected traffic prefers its reserved high VCs and falls
    // back to the shared ones. With no reservation this is exactly
    // the original first-fit scan.
    const int shared = vcsPerVnet_ - qosReservedVcs_;
    const bool prot =
        qosReservedVcs_ > 0 && vm == qosProtectedVm_;
    const InVc *ins = &in_[in_port * totalVcs_];
    if (prot) {
        for (int i = shared; i < vcsPerVnet_; ++i) {
            const int vc = vcIndex(vnet, i);
            if (ins[vc].credits >= len) {
                if (vc_out)
                    *vc_out = vc;
                return true;
            }
        }
    }
    for (int i = 0; i < shared; ++i) {
        const int vc = vcIndex(vnet, i);
        if (ins[vc].credits >= len) {
            if (vc_out)
                *vc_out = vc;
            return true;
        }
    }
    return false;
}

void
Router::reserve(int in_port, int vc, int len)
{
    std::int16_t &credits = in_[in_port * totalVcs_ + vc].credits;
    CONSIM_ASSERT(credits >= len, "reserve without space");
    credits = static_cast<std::int16_t>(credits - len);
}

Hop
Router::hopOf(PacketId h) const
{
    const RouterPacket &p = (*pool_)[h];
    Hop hop;
    hop.ready = p.readyCycle;
    hop.pkt = h;
    hop.dst = p.msg.dstTile;
    hop.vm = p.msg.vm;
    hop.len = static_cast<std::uint8_t>(p.lenFlits);
    hop.port = static_cast<std::uint8_t>(p.outPort);
    hop.vnet = static_cast<std::uint8_t>(vnetOf(p.msg.type));
    return hop;
}

void
Router::arrive(int in_port, int vc, Hop hop, Cycle now)
{
    const int idx = in_port * totalVcs_ + vc;
    // RC stage: compute the output port once, on arrival.
    hop.port = static_cast<std::uint8_t>(
        xyRoute(tile_, x_, hop.dst, shared_->col[hop.dst]));
    hop.ready = now + pipelineDelay_;
    InVc &in = in_[idx];
    if (!((occ_ >> idx) & 1)) {
        in.head = hop;
        occ_ |= std::uint64_t(1) << idx;
    } else {
        // Queued behind the head: the slot keeps the ready cycle and
        // port until the packet moves up.
        RouterPacket &p = (*pool_)[hop.pkt];
        p.readyCycle = hop.ready;
        p.outPort = hop.port;
        slot(idx, in.qLen++) = hop.pkt;
    }
    ++shared_->buffered;
    wakeAt(hop.ready);
}

void
Router::tickOutputs(Cycle now)
{
    for (unsigned bits = outBusy_; bits != 0; bits &= bits - 1) {
        const int port = lowestSetBit(bits);
        const OutPort &out = outputs_[port];
        if (out.done != now)
            continue;
        outBusy_ &= ~(1u << port);
        --shared_->busyOutputs;
        if (port == PortLocal) {
            const Msg &msg = (*pool_)[out.hop.pkt].msg;
            stats_->countEject(msg, now, out.hop.len);
            shared_->deliver(msg);
            pool_->release(out.hop.pkt);
        } else {
            Router *next = neighbor_[port];
            CONSIM_ASSERT(next, "transmit into mesh edge at ", tile_);
            next->arrive(oppositePort(port), out.dstVc, out.hop, now);
        }
    }
}

void
Router::tickAllocate(Cycle now)
{
    std::uint64_t used = 0; // VCs of input ports that won a grant
    // With QoS active the protected VM's packets get first claim on
    // the switch, except on a deterministic yield cycle (every
    // fourth) that degrades to plain round-robin so unprotected
    // traffic cannot starve behind a saturating protected stream.
    if (qosReservedVcs_ > 0 && (now & 3) != 3)
        allocatePass(now, used, /*protected_only=*/true);
    allocatePass(now, used, /*protected_only=*/false);

    // A head that is ready now but stayed put (busy output,
    // back-pressure, input port already used, or not protected) may
    // go next cycle; any other head goes no earlier than it is ready.
    // With no head left the router sleeps until an arrival.
    *wake_ = cycleNever;
    if (occ_ == 0)
        return;
    Cycle ready = cycleNever;
    for (std::uint64_t bits = occ_; bits != 0; bits &= bits - 1)
        ready = std::min(ready, in_[lowestSetBit(bits)].head.ready);
    wakeAt(std::max(ready, now + 1));
}

void
Router::allocatePass(Cycle now, std::uint64_t &used, bool protected_only)
{
    const int total = NumPorts * totalVcs_;
    // Round-robin over input VCs for fairness; one grant per input
    // port and one per output port per cycle (shared across passes).
    //
    // This is the reference arbitration loop, kept verbatim in
    // spirit: visit idx = (rrInput_ + k) % total for k = 0..total-1,
    // where rrInput_ advances to idx+1 on every grant (so the visit
    // sequence re-anchors mid-sweep). Iterations that land on an
    // empty VC, or on a VC whose input port already won a grant,
    // have no side effects, so a mask of the other VCs lets us jump
    // straight to the next candidate in that exact sequence instead
    // of touching all NumPorts*totalVcs queues — the arbitration
    // order (and therefore every simulation result) is unchanged.
    int k = 0;
    while (k < total) {
        const std::uint64_t cand = occ_ & ~used;
        if (cand == 0)
            break;
        // rrInput_ and k are both below total: wrap by subtraction.
        int start = rrInput_ + k;
        if (start >= total)
            start -= total;
        int idx;
        if (const std::uint64_t ge = cand >> start; ge != 0) {
            const int d = lowestSetBit(ge);
            k += d;
            idx = start + d;
        } else {
            // Wrap: the next candidate sits below `start`.
            const int w = lowestSetBit(cand);
            k += (total - start) + w;
            idx = w;
        }
        if (k >= total)
            break;
        ++k;
        // The checks before a grant have no side effects, so their
        // order is free: the head's ready cycle and the busy-output
        // mask go first. Every check reads the VC's record, never
        // the pool.
        InVc &in = in_[idx];
        const Hop &hop = in.head;
        if (hop.ready > now || ((outBusy_ >> hop.port) & 1))
            continue;
        if (protected_only && hop.vm != qosProtectedVm_)
            continue;

        int downVc = 0;
        if (hop.port != PortLocal) {
            Router *next = neighbor_[hop.port];
            CONSIM_ASSERT(next, "route into mesh edge at ", tile_,
                          " port ", int(hop.port), " dst ", hop.dst);
            const int downPort = oppositePort(hop.port);
            if (!next->canAccept(downPort, hop.vnet, hop.len, hop.vm,
                                 &downVc)) {
                continue; // back-pressure: retry next cycle
            }
            next->reserve(downPort, downVc, hop.len);
            stats_->flitHops += hop.len;
        }

        // Grant: occupy the output for the packet's serialization
        // latency (stamping the cycle it finishes), free this VC's
        // buffer space, advance fairness.
        OutPort &out = outputs_[hop.port];
        outBusy_ |= 1u << hop.port;
        ++shared_->busyOutputs;
        out.done = now + static_cast<Cycle>(hop.len);
        out.hop = hop;
        out.dstVc = downVc;
        shared_->finishing.insert(out.done, tile_);
        in.credits = static_cast<std::int16_t>(in.credits + hop.len);
        if (in.qLen == 0) {
            occ_ &= ~(std::uint64_t(1) << idx);
        } else {
            // The first queued packet moves up. An emptied ring
            // restarts at slot 0, so a VC that seldom queues more
            // than one packet keeps reusing one warm slot.
            const PacketId h = slot(idx, 0);
            in.qHead = --in.qLen == 0
                           ? 0
                           : static_cast<std::uint8_t>((in.qHead + 1) &
                                                       ringMask_);
            in.head = hopOf(h);
        }
        --shared_->buffered;
        used |= portVcs_ << (in.inPort * totalVcs_);
        rrInput_ = idx + 1 == total ? 0 : idx + 1;
    }
}

void
Router::restoreDerived(Cycle now)
{
    for (unsigned bits = outBusy_; bits != 0; bits &= bits - 1) {
        shared_->finishing.insert(outputs_[lowestSetBit(bits)].done, tile_);
        ++shared_->busyOutputs;
    }
    shared_->buffered += bufferedPackets();
    *wake_ = cycleNever;
    if (occ_ != 0)
        wakeAt(now);
}

int
Router::bufferedPackets() const
{
    int n = popCount(occ_);
    for (const InVc &in : in_)
        n += in.qLen;
    return n;
}

void
Router::forEachHeld(const std::function<void(PacketId)> &fn) const
{
    for (int idx = 0; idx < NumPorts * totalVcs_; ++idx) {
        if (!((occ_ >> idx) & 1))
            continue;
        fn(in_[idx].head.pkt);
        for (unsigned k = 0; k < in_[idx].qLen; ++k)
            fn(slot(idx, k));
    }
    for (unsigned bits = outBusy_; bits != 0; bits &= bits - 1)
        fn(outputs_[lowestSetBit(bits)].hop.pkt);
}

void
Router::forEachTransit(
    const std::function<void(CoreId, int, int, int)> &fn) const
{
    for (unsigned bits = outBusy_ & ~1u; bits != 0; bits &= bits - 1) {
        const int port = lowestSetBit(bits);
        const OutPort &out = outputs_[port];
        // Non-null: asserted when the grant was issued.
        const Router *next = neighbor_[port];
        fn(next->tile_, oppositePort(port), out.dstVc, out.hop.len);
    }
}

void
Router::checkInvariants(
    const std::function<int(int, int)> &inbound_reserved,
    Cycle next) const
{
    const PacketPool &pool = *pool_;
    const auto inPool = [&](PacketId h) -> const RouterPacket & {
        if (h >= pool.highWater()) {
            CONSIM_CHECK_FAIL("router ", tile_, ": handle ", h,
                              " outside the packet pool's ",
                              pool.highWater(), " slots");
        }
        return pool[h];
    };
    // A kept Hop copies its pool message's routing fields.
    const auto checkHop = [&](const Hop &hop, const char *where, int at) {
        const RouterPacket &p = inPool(hop.pkt);
        if (hop.dst != p.msg.dstTile || hop.vm != p.msg.vm ||
            hop.vnet != vnetOf(p.msg.type) || hop.len != p.lenFlits ||
            p.lenFlits != params_.flitsOf(p.msg.type)) {
            CONSIM_CHECK_FAIL(
                "router ", tile_, " ", where, " ", at, ": hop (dst ",
                hop.dst, ", vm ", hop.vm, ", vnet ", int(hop.vnet),
                ", ", int(hop.len), " flits) disagrees with its packet ",
                describe(p.msg), " of ", p.lenFlits, " flits");
        }
    };
    Cycle firstGo = cycleNever; // the first cycle a head could go
    for (int port = 0; port < NumPorts; ++port) {
        for (int vc = 0; vc < totalVcs_; ++vc) {
            const int idx = port * totalVcs_ + vc;
            const InVc &in = in_[idx];
            const bool occupied = (occ_ >> idx) & 1;
            if (in.qLen > ringMask_ || (!occupied && in.qLen != 0) ||
                (in.qLen == 0 && in.qHead != 0) || in.qHead > ringMask_ ||
                in.inPort != port) {
                CONSIM_CHECK_FAIL("router ", tile_, " port ", port,
                                  " vc ", vc, ": ring head ",
                                  int(in.qHead), " with ", int(in.qLen),
                                  " packets queued behind ",
                                  occupied ? "a head" : "no head", " in ",
                                  ringMask_ + 1, " slots (input port ",
                                  int(in.inPort), ")");
            }
            int queuedFlits = 0;
            if (occupied) {
                const Hop &head = in.head;
                checkHop(head, "input vc", idx);
                const int route = xyRoute(tile_, x_, head.dst,
                                          shared_->col.at(head.dst));
                if (head.vnet != vc / vcsPerVnet_ || head.port != route) {
                    CONSIM_CHECK_FAIL(
                        "router ", tile_, " port ", port, " vc ", vc,
                        ": head on vnet ", int(head.vnet), " port ",
                        int(head.port), " (route ", route, ")");
                }
                firstGo = std::min(firstGo, std::max(head.ready, next));
                queuedFlits += head.len;
            }
            for (unsigned k = 0; k < in.qLen; ++k) {
                const RouterPacket &pkt = inPool(slot(idx, k));
                if (pkt.lenFlits < 1 ||
                    pkt.lenFlits > params_.vcBufferFlits) {
                    CONSIM_CHECK_FAIL("router ", tile_,
                                      ": packet with bad length ",
                                      pkt.lenFlits, " flits");
                }
                queuedFlits += pkt.lenFlits;
            }
            const int credits = in.credits;
            if (credits < 0 || credits > params_.vcBufferFlits) {
                CONSIM_CHECK_FAIL("router ", tile_, " port ", port,
                                  " vc ", vc, ": credit count ",
                                  credits, " out of range");
            }
            const int held = credits + queuedFlits;
            if (inbound_reserved) {
                const int transit = inbound_reserved(port, vc);
                if (held + transit != params_.vcBufferFlits) {
                    CONSIM_CHECK_FAIL(
                        "router ", tile_, " port ", port, " vc ", vc,
                        ": flit credits not conserved (free=",
                        credits, " queued=", queuedFlits,
                        " in_transit=", transit, " buffer=",
                        params_.vcBufferFlits, ")");
                }
            } else if (held > params_.vcBufferFlits) {
                CONSIM_CHECK_FAIL(
                    "router ", tile_, " port ", port, " vc ", vc,
                    ": credits exceed buffer (free=", credits,
                    " queued=", queuedFlits, " buffer=",
                    params_.vcBufferFlits, ")");
            }
        }
    }
    // A router with packets is armed, in the wake calendar, for a
    // cycle from the next tick on within the calendar's span, and no
    // later than the pass that could first grant; one without packets
    // has no wake cycle.
    const Cycle wake = *wake_;
    if (occ_ == 0 && wake != cycleNever) {
        CONSIM_CHECK_FAIL("router ", tile_, ": wake cycle ", wake,
                          " with no packet");
    }
    const bool armed = shared_->due.contains(wake, tile_);
    if (occ_ != 0 && (wake < next || wake - next >= shared_->due.span() ||
                      !armed || wake > firstGo)) {
        CONSIM_CHECK_FAIL("router ", tile_, ": wake cycle ", wake,
                          armed ? " (armed)" : " (not armed)",
                          " with the next tick at ", next,
                          " and a head that can go at ", firstGo);
    }
    // A busy output finishes from the next tick on, within its
    // packet's length, and its router is in that cycle's finishing
    // set; a router is in no other set.
    for (unsigned bits = outBusy_; bits != 0; bits &= bits - 1) {
        const int port = lowestSetBit(bits);
        const OutPort &out = outputs_[port];
        checkHop(out.hop, "output", port);
        const int len = out.hop.len;
        if (out.done < next || out.done - next >= Cycle(len)) {
            CONSIM_CHECK_FAIL("router ", tile_, " port ", port,
                              ": busy output finishing at ", out.done,
                              " with the next tick at ", next,
                              " for a ", len, "-flit packet");
        }
    }
    const Cycle span = shared_->finishing.span();
    for (Cycle s = 0; s < span; ++s) {
        bool stamped = false;
        for (unsigned bits = outBusy_; bits != 0; bits &= bits - 1)
            stamped |= outputs_[lowestSetBit(bits)].done % span == s;
        if (shared_->finishing.contains(s, tile_) != stamped) {
            CONSIM_CHECK_FAIL("router ", tile_, ": finishing-ring slot ",
                              s, " membership ", !stamped,
                              " disagrees with the busy outputs' stamps");
        }
    }
}

json::Value
Router::creditJson() const
{
    auto v = json::Value::object();
    v.set("tile", tile_);
    v.set("buffered", bufferedPackets());
    v.set("busy_outputs", transitPackets());
    auto vcs = json::Value::array();
    for (int port = 0; port < NumPorts; ++port) {
        for (int vc = 0; vc < totalVcs_; ++vc) {
            const int idx = port * totalVcs_ + vc;
            const InVc &in = in_[idx];
            const bool occupied = (occ_ >> idx) & 1;
            // Only VCs holding packets or missing credits are
            // interesting in a hang dump.
            if (!occupied && in.credits == params_.vcBufferFlits)
                continue;
            auto e = json::Value::object();
            e.set("port", port);
            e.set("vc", vc);
            e.set("free_flits", int(in.credits));
            e.set("queued", int(occupied) + in.qLen);
            if (occupied)
                e.set("head", describe((*pool_)[in.head.pkt].msg));
            vcs.push(std::move(e));
        }
    }
    v.set("vcs", std::move(vcs));
    return v;
}

} // namespace consim
