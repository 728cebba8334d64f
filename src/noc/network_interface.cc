#include "noc/network_interface.hh"

#include "common/logging.hh"

namespace consim
{

NetworkInterface::NetworkInterface(CoreId tile, const NocParams &params,
                                   Router *router, MeshShared *shared)
    : tile_(tile), params_(params), router_(router), shared_(shared)
{
    CONSIM_ASSERT(router_ != nullptr, "NI without router at ", tile_);
}

void
NetworkInterface::enqueue(Msg m)
{
    const int vnet = vnetOf(m.type);
    queues_[vnet].push_back(std::move(m));
    if (queuedTotal_++ == 0)
        shared_->queued.insert(tile_);
}

void
NetworkInterface::tick(Cycle now)
{
    for (int vnet = 0; vnet < numVnets; ++vnet) {
        auto &q = queues_[vnet];
        if (q.empty())
            continue;
        const int len = params_.flitsOf(q.front().type);
        int vc = 0;
        if (!router_->canAccept(PortLocal, vnet, len, q.front().vm,
                                &vc))
            continue;
        router_->reserve(PortLocal, vc, len);
        // The packet takes its pool slot here and keeps it until it
        // is ejected; its Hop carries what the routers read.
        Hop hop;
        hop.pkt = shared_->pool.alloc();
        hop.dst = q.front().dstTile;
        hop.vm = q.front().vm;
        hop.len = static_cast<std::uint8_t>(len);
        hop.vnet = static_cast<std::uint8_t>(vnet);
        RouterPacket &pkt = shared_->pool[hop.pkt];
        pkt.msg = std::move(q.front());
        pkt.lenFlits = len;
        q.pop_front();
        --queuedTotal_;
        router_->arrive(PortLocal, vc, hop, now);
    }
    if (queuedTotal_ == 0)
        shared_->queued.erase(tile_);
}

void
NetworkInterface::recountQueued()
{
    queuedTotal_ = 0;
    for (const auto &q : queues_)
        queuedTotal_ += static_cast<int>(q.size());
    if (queuedTotal_ != 0)
        shared_->queued.insert(tile_);
    else
        shared_->queued.erase(tile_);
}

} // namespace consim
