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
      wake(col.size(), 0), buffered(static_cast<int>(col.size())),
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
    finishing.clear();
    busyOutputs = 0;
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
        credits_[idx] = static_cast<std::int16_t>(params_.vcBufferFlits);
        portOf_[idx] = static_cast<std::uint8_t>(idx / totalVcs_);
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
    const std::int16_t *credits = &credits_[in_port * totalVcs_];
    if (prot) {
        for (int i = shared; i < vcsPerVnet_; ++i) {
            const int vc = vcIndex(vnet, i);
            if (credits[vc] >= len) {
                if (vc_out)
                    *vc_out = vc;
                return true;
            }
        }
    }
    for (int i = 0; i < shared; ++i) {
        const int vc = vcIndex(vnet, i);
        if (credits[vc] >= len) {
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
    std::int16_t &credits = credits_[in_port * totalVcs_ + vc];
    CONSIM_ASSERT(credits >= len, "reserve without space");
    credits = static_cast<std::int16_t>(credits - len);
}

void
Router::arrive(int in_port, int vc, PacketId pkt, Cycle now)
{
    const int idx = in_port * totalVcs_ + vc;
    // RC stage: compute the output port once, on arrival.
    RouterPacket &p = (*pool_)[pkt];
    const CoreId dst = p.msg.dstTile;
    p.outPort = xyRoute(tile_, x_, dst, shared_->col[dst]);
    p.readyCycle = now + pipelineDelay_;
    *wake_ = std::min(*wake_, p.readyCycle);
    const unsigned queued = qLen_[idx]++;
    slot(idx, queued) = pkt;
    if (queued == 0) {
        setHead(idx, p);
        occ_ |= std::uint64_t(1) << idx;
    }
    if (buffered_++ == 0)
        shared_->buffered.insert(tile_);
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
            const RouterPacket &p = (*pool_)[out.pkt];
            stats_->countEject(p.msg, now, p.lenFlits);
            shared_->deliver(p.msg);
            pool_->release(out.pkt);
        } else {
            Router *next = neighbor_[port];
            CONSIM_ASSERT(next, "transmit into mesh edge at ", tile_);
            next->arrive(oppositePort(port), out.dstVc, out.pkt, now);
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

    if (buffered_ == 0)
        shared_->buffered.erase(tile_);
    // A head that is ready now but stayed put (busy output,
    // back-pressure, input port already used, or not protected) may
    // go next cycle; any other head goes no earlier than it is ready.
    // With no head left the router sleeps until an arrival.
    Cycle ready = cycleNever;
    for (std::uint64_t bits = occ_; bits != 0; bits &= bits - 1)
        ready = std::min(ready, headReady_[lowestSetBit(bits)]);
    *wake_ = std::max(ready, now + 1);
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
        // order is free: the head summaries and the busy-output mask
        // go first, and the packet is read only for a head that is
        // ready and whose output is free.
        if (headReady_[idx] > now || ((outBusy_ >> headOut_[idx]) & 1))
            continue;
        const PacketId h = slot(idx, 0);
        const RouterPacket &pkt = (*pool_)[h];
        if (protected_only && pkt.msg.vm != qosProtectedVm_)
            continue;

        int downVc = 0;
        if (pkt.outPort != PortLocal) {
            Router *next = neighbor_[pkt.outPort];
            CONSIM_ASSERT(next, "route into mesh edge at ", tile_,
                          " port ", pkt.outPort, " dst ",
                          pkt.msg.dstTile);
            const int vnet = vnetOf(pkt.msg.type);
            if (!next->canAccept(oppositePort(pkt.outPort), vnet,
                                 pkt.lenFlits, pkt.msg.vm, &downVc)) {
                continue; // back-pressure: retry next cycle
            }
            next->reserve(oppositePort(pkt.outPort), downVc,
                          pkt.lenFlits);
            stats_->flitHops += pkt.lenFlits;
        }

        // Grant: occupy the output for the packet's serialization
        // latency (stamping the cycle it finishes), free this VC's
        // buffer space, advance fairness.
        OutPort &out = outputs_[pkt.outPort];
        outBusy_ |= 1u << pkt.outPort;
        ++shared_->busyOutputs;
        out.done = now + static_cast<Cycle>(pkt.lenFlits);
        out.pkt = h;
        out.dstVc = downVc;
        shared_->finishing.insert(out.done, tile_);
        credits_[idx] = static_cast<std::int16_t>(credits_[idx] +
                                                  pkt.lenFlits);
        if (--qLen_[idx] == 0) {
            // An emptied ring restarts at slot 0, so a VC that seldom
            // holds more than one packet keeps reusing one warm slot.
            qHead_[idx] = 0;
            occ_ &= ~(std::uint64_t(1) << idx);
        } else {
            qHead_[idx] = static_cast<std::uint8_t>((qHead_[idx] + 1) &
                                                    ringMask_);
            setHead(idx, (*pool_)[slot(idx, 0)]);
        }
        --buffered_;
        used |= portVcs_ << (portOf_[idx] * totalVcs_);
        rrInput_ = idx + 1 == total ? 0 : idx + 1;
    }
}

void
Router::restoreDerived()
{
    occ_ = 0;
    for (int idx = 0; idx < NumPorts * totalVcs_; ++idx) {
        if (qLen_[idx] == 0)
            continue;
        occ_ |= std::uint64_t(1) << idx;
        setHead(idx, (*pool_)[slot(idx, 0)]);
    }
    for (unsigned bits = outBusy_; bits != 0; bits &= bits - 1) {
        shared_->finishing.insert(outputs_[lowestSetBit(bits)].done, tile_);
        ++shared_->busyOutputs;
    }
    *wake_ = 0;
    if (buffered_ != 0)
        shared_->buffered.insert(tile_);
    else
        shared_->buffered.erase(tile_);
}

int
Router::bufferedPackets() const
{
    int n = 0;
    for (int idx = 0; idx < NumPorts * totalVcs_; ++idx)
        n += qLen_[idx];
    return n;
}

void
Router::forEachHeld(const std::function<void(PacketId)> &fn) const
{
    for (int idx = 0; idx < NumPorts * totalVcs_; ++idx) {
        for (unsigned k = 0; k < qLen_[idx]; ++k)
            fn(slot(idx, k));
    }
    for (unsigned bits = outBusy_; bits != 0; bits &= bits - 1)
        fn(outputs_[lowestSetBit(bits)].pkt);
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
        fn(next->tile_, oppositePort(port), out.dstVc,
           (*pool_)[out.pkt].lenFlits);
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
    int buffered = 0;
    for (int port = 0; port < NumPorts; ++port) {
        for (int vc = 0; vc < totalVcs_; ++vc) {
            const int idx = port * totalVcs_ + vc;
            const unsigned queued = qLen_[idx];
            const bool occupied = (occ_ >> idx) & 1;
            if (occupied != (queued != 0)) {
                CONSIM_CHECK_FAIL("router ", tile_, " port ", port,
                                  " vc ", vc, ": occupancy bit ",
                                  occupied, " with ", queued,
                                  " queued packets");
            }
            if (queued > ringMask_ + 1 ||
                (queued == 0 && qHead_[idx] != 0) ||
                qHead_[idx] > ringMask_) {
                CONSIM_CHECK_FAIL("router ", tile_, " port ", port,
                                  " vc ", vc, ": ring head ",
                                  int(qHead_[idx]), " with ", queued,
                                  " queued packets in ", ringMask_ + 1,
                                  " slots");
            }
            if (queued != 0) {
                const RouterPacket &head = inPool(slot(idx, 0));
                if (headReady_[idx] != head.readyCycle ||
                    headOut_[idx] != head.outPort) {
                    CONSIM_CHECK_FAIL(
                        "router ", tile_, " port ", port, " vc ", vc,
                        ": head summary (ready ", headReady_[idx],
                        ", port ", int(headOut_[idx]),
                        ") differs from the head (ready ",
                        head.readyCycle, ", port ", head.outPort, ")");
                }
                // The pass that could first grant this head must run.
                if (*wake_ > std::max(head.readyCycle, next)) {
                    CONSIM_CHECK_FAIL(
                        "router ", tile_, " port ", port, " vc ", vc,
                        ": wake cycle ", *wake_, " skips a head ready at ",
                        std::max(head.readyCycle, next));
                }
            }
            int queuedFlits = 0;
            for (unsigned k = 0; k < queued; ++k) {
                const RouterPacket &pkt = inPool(slot(idx, k));
                if (pkt.lenFlits < 1 ||
                    pkt.lenFlits > params_.vcBufferFlits) {
                    CONSIM_CHECK_FAIL("router ", tile_,
                                      ": packet with bad length ",
                                      pkt.lenFlits, " flits");
                }
                queuedFlits += pkt.lenFlits;
            }
            buffered += static_cast<int>(queued);
            const int credits = credits_[idx];
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
    if (buffered != buffered_) {
        CONSIM_CHECK_FAIL("router ", tile_,
                          ": buffered packet count drifted (cached=",
                          buffered_, " recount=", buffered, ")");
    }
    // A busy output finishes from the next tick on, within its
    // packet's length, and its router is in that cycle's finishing
    // set; a router is in no other set.
    for (unsigned bits = outBusy_; bits != 0; bits &= bits - 1) {
        const int port = lowestSetBit(bits);
        const OutPort &out = outputs_[port];
        const int len = inPool(out.pkt).lenFlits;
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
    if (shared_->buffered.contains(tile_) != (buffered_ != 0)) {
        CONSIM_CHECK_FAIL("router ", tile_, ": buffered-set membership ",
                          shared_->buffered.contains(tile_), " with ",
                          buffered_, " buffered packets");
    }
}

json::Value
Router::creditJson() const
{
    auto v = json::Value::object();
    v.set("tile", tile_);
    v.set("buffered", buffered_);
    v.set("busy_outputs", transitPackets());
    auto vcs = json::Value::array();
    for (int port = 0; port < NumPorts; ++port) {
        for (int vc = 0; vc < totalVcs_; ++vc) {
            const int idx = port * totalVcs_ + vc;
            // Only VCs holding packets or missing credits are
            // interesting in a hang dump.
            if (qLen_[idx] == 0 &&
                credits_[idx] == params_.vcBufferFlits) {
                continue;
            }
            auto e = json::Value::object();
            e.set("port", port);
            e.set("vc", vc);
            e.set("free_flits", int(credits_[idx]));
            e.set("queued", int(qLen_[idx]));
            if (qLen_[idx] != 0)
                e.set("head", describe((*pool_)[slot(idx, 0)].msg));
            vcs.push(std::move(e));
        }
    }
    v.set("vcs", std::move(vcs));
    return v;
}

} // namespace consim
