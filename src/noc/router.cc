#include "noc/router.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"

namespace consim
{

MeshShared::MeshShared(int mesh_x, int tiles)
    : col(static_cast<std::size_t>(tiles)),
      wake(static_cast<std::size_t>(tiles), 0), buffered(tiles),
      busy(tiles), queued(tiles)
{
    for (CoreId t = 0; t < tiles; ++t)
        col[t] = t % mesh_x;
}

Router::Router(CoreId tile, const NocParams &params, NetworkStats *stats,
               MeshShared *shared)
    : inputs_(NumPorts * params.totalVcs()), shared_(shared),
      wake_(&shared->wake.at(tile)), tile_(tile), x_(shared->col.at(tile)),
      totalVcs_(params.totalVcs()),
      portVcs_((std::uint64_t(1) << totalVcs_) - 1), params_(params),
      stats_(stats)
{
    CONSIM_ASSERT(params_.vcBufferFlits >= params_.dataFlits,
                  "VC buffer must hold a full data packet");
    CONSIM_ASSERT(NumPorts * totalVcs_ <= maxInputVcs,
                  "switch allocator tracks input-VC occupancy in one "
                  "64-bit word; ", NumPorts * totalVcs_,
                  " input VCs exceed it");
    for (auto &vc : inputs_) {
        vc.freeFlits = params_.vcBufferFlits;
        // A VC holds at most vcBufferFlits packets (1 flit minimum),
        // so a warmed ring never grows mid-run.
        vc.q.reserve(static_cast<std::size_t>(params_.vcBufferFlits));
    }
    for (int idx = 0; idx < NumPorts * totalVcs_; ++idx)
        portOf_[idx] = static_cast<std::uint8_t>(idx / totalVcs_);
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
    const int shared = params_.vcsPerVnet - qosReservedVcs_;
    const bool prot =
        qosReservedVcs_ > 0 && vm == qosProtectedVm_;
    if (prot) {
        for (int i = shared; i < params_.vcsPerVnet; ++i) {
            const int vc = vcIndex(vnet, i);
            if (in(in_port, vc).freeFlits >= len) {
                if (vc_out)
                    *vc_out = vc;
                return true;
            }
        }
    }
    for (int i = 0; i < shared; ++i) {
        const int vc = vcIndex(vnet, i);
        if (in(in_port, vc).freeFlits >= len) {
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
    auto &ivc = in(in_port, vc);
    CONSIM_ASSERT(ivc.freeFlits >= len, "reserve without space");
    ivc.freeFlits -= len;
}

void
Router::arrive(int in_port, int vc, const RouterPacket &pkt, Cycle now)
{
    const int idx = in_port * totalVcs_ + vc;
    auto &q = inputs_[idx].q;
    q.push_back(pkt);
    // RC stage: compute the output port once, on arrival.
    RouterPacket &p = q.back();
    const CoreId dst = p.msg.dstTile;
    p.outPort = xyRoute(tile_, x_, dst, shared_->col[dst]);
    p.readyCycle = now + params_.pipelineDelay;
    *wake_ = std::min(*wake_, p.readyCycle);
    if (q.size() == 1) {
        setHead(idx, p);
        occ_ |= std::uint64_t(1) << idx;
    }
    if (buffered_++ == 0)
        shared_->buffered.insert(tile_);
}

void
Router::tickOutputs(Cycle now)
{
    // Every busy output transmits one flit this cycle.
    stats_->linkBusyCycles += busyOutputs_;
    for (unsigned bits = outBusy_; bits != 0; bits &= bits - 1) {
        const int port = lowestSetBit(bits);
        auto &out = outputs_[port];
        if (--out.remaining > 0)
            continue;
        out.busy = false;
        outBusy_ &= ~(1u << port);
        if (--busyOutputs_ == 0)
            shared_->busy.erase(tile_);
        if (port == PortLocal) {
            CONSIM_ASSERT(eject_, "no ejector on router ", tile_);
            eject_(out.pkt.msg, out.pkt.lenFlits);
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
        auto &ivc = inputs_[idx];
        RouterPacket &pkt = ivc.q.front();
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
        // latency, free this VC's buffer space, advance fairness.
        auto &out = outputs_[pkt.outPort];
        out.busy = true;
        outBusy_ |= 1u << pkt.outPort;
        if (busyOutputs_++ == 0)
            shared_->busy.insert(tile_);
        out.remaining = pkt.lenFlits;
        out.dstVc = downVc;
        out.pkt = pkt;
        ivc.q.pop_front();
        if (ivc.q.empty())
            occ_ &= ~(std::uint64_t(1) << idx);
        else
            setHead(idx, ivc.q.front());
        --buffered_;
        ivc.freeFlits += out.pkt.lenFlits;
        used |= portVcs_ << (portOf_[idx] * totalVcs_);
        rrInput_ = idx + 1 == total ? 0 : idx + 1;
    }
}

void
Router::restoreDerived()
{
    occ_ = 0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        if (inputs_[i].q.empty())
            continue;
        occ_ |= std::uint64_t(1) << i;
        setHead(static_cast<int>(i), inputs_[i].q.front());
    }
    outBusy_ = 0;
    for (int port = 0; port < NumPorts; ++port)
        outBusy_ |= unsigned(outputs_[port].busy) << port;
    *wake_ = 0;
    if (buffered_ != 0)
        shared_->buffered.insert(tile_);
    else
        shared_->buffered.erase(tile_);
    if (busyOutputs_ != 0)
        shared_->busy.insert(tile_);
    else
        shared_->busy.erase(tile_);
}

bool
Router::idle() const
{
    return buffered_ == 0 && busyOutputs_ == 0;
}

int
Router::bufferedPackets() const
{
    int n = 0;
    for (const auto &ivc : inputs_)
        n += static_cast<int>(ivc.q.size());
    return n;
}

void
Router::forEachTransit(
    const std::function<void(CoreId, int, int, int)> &fn) const
{
    for (int port = 0; port < NumPorts; ++port) {
        const auto &out = outputs_[port];
        if (!out.busy || port == PortLocal)
            continue;
        // Non-null: asserted when the grant was issued.
        const Router *next = neighbor_[port];
        fn(next->tile_, oppositePort(port), out.dstVc,
           out.pkt.lenFlits);
    }
}

void
Router::checkInvariants(
    const std::function<int(int, int)> &inbound_reserved,
    Cycle next) const
{
    int buffered = 0;
    for (int port = 0; port < NumPorts; ++port) {
        for (int vc = 0; vc < params_.totalVcs(); ++vc) {
            const auto &ivc = in(port, vc);
            const int idx = port * totalVcs_ + vc;
            const bool occupied = (occ_ >> idx) & 1;
            if (occupied == ivc.q.empty()) {
                CONSIM_CHECK_FAIL("router ", tile_, " port ", port,
                                  " vc ", vc, ": occupancy bit ",
                                  occupied, " with ", ivc.q.size(),
                                  " queued packets");
            }
            if (!ivc.q.empty()) {
                const RouterPacket &head = ivc.q.front();
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
            for (const auto &pkt : ivc.q) {
                if (pkt.lenFlits < 1 ||
                    pkt.lenFlits > params_.vcBufferFlits) {
                    CONSIM_CHECK_FAIL("router ", tile_,
                                      ": packet with bad length ",
                                      pkt.lenFlits, " flits");
                }
                queuedFlits += pkt.lenFlits;
            }
            buffered += static_cast<int>(ivc.q.size());
            if (ivc.freeFlits < 0 ||
                ivc.freeFlits > params_.vcBufferFlits) {
                CONSIM_CHECK_FAIL("router ", tile_, " port ", port,
                                  " vc ", vc, ": credit count ",
                                  ivc.freeFlits, " out of range");
            }
            const int held = ivc.freeFlits + queuedFlits;
            if (inbound_reserved) {
                const int transit = inbound_reserved(port, vc);
                if (held + transit != params_.vcBufferFlits) {
                    CONSIM_CHECK_FAIL(
                        "router ", tile_, " port ", port, " vc ", vc,
                        ": flit credits not conserved (free=",
                        ivc.freeFlits, " queued=", queuedFlits,
                        " in_transit=", transit, " buffer=",
                        params_.vcBufferFlits, ")");
                }
            } else if (held > params_.vcBufferFlits) {
                CONSIM_CHECK_FAIL(
                    "router ", tile_, " port ", port, " vc ", vc,
                    ": credits exceed buffer (free=", ivc.freeFlits,
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
    int busy = 0;
    for (int port = 0; port < NumPorts; ++port) {
        const auto &out = outputs_[port];
        if (out.busy != ((outBusy_ >> port) & 1)) {
            CONSIM_CHECK_FAIL("router ", tile_, " port ", port,
                              ": busy-output mask bit ",
                              (outBusy_ >> port) & 1, " for busy ",
                              out.busy);
        }
        if (out.busy) {
            ++busy;
            if (out.remaining < 1) {
                CONSIM_CHECK_FAIL("router ", tile_,
                                  ": busy output with ",
                                  out.remaining, " flits remaining");
            }
        }
    }
    if (busy != busyOutputs_) {
        CONSIM_CHECK_FAIL("router ", tile_,
                          ": busy output count drifted (cached=",
                          busyOutputs_, " recount=", busy, ")");
    }
    if (shared_->buffered.contains(tile_) != (buffered_ != 0) ||
        shared_->busy.contains(tile_) != (busyOutputs_ != 0)) {
        CONSIM_CHECK_FAIL("router ", tile_, ": activity sets (buffered ",
                          shared_->buffered.contains(tile_), ", busy ",
                          shared_->busy.contains(tile_), ") disagree with ",
                          buffered_, " buffered packets and ",
                          busyOutputs_, " busy outputs");
    }
}

json::Value
Router::creditJson() const
{
    auto v = json::Value::object();
    v.set("tile", tile_);
    v.set("buffered", buffered_);
    v.set("busy_outputs", busyOutputs_);
    auto vcs = json::Value::array();
    for (int port = 0; port < NumPorts; ++port) {
        for (int vc = 0; vc < params_.totalVcs(); ++vc) {
            const auto &ivc = in(port, vc);
            // Only VCs holding packets or missing credits are
            // interesting in a hang dump.
            if (ivc.q.empty() &&
                ivc.freeFlits == params_.vcBufferFlits) {
                continue;
            }
            auto e = json::Value::object();
            e.set("port", port);
            e.set("vc", vc);
            e.set("free_flits", ivc.freeFlits);
            e.set("queued", static_cast<int>(ivc.q.size()));
            if (!ivc.q.empty())
                e.set("head", describe(ivc.q.front().msg));
            vcs.push(std::move(e));
        }
    }
    v.set("vcs", std::move(vcs));
    return v;
}

} // namespace consim
