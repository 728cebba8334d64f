#include "noc/mesh.hh"

#include <algorithm>
#include <utility>

#include "common/check.hh"
#include "common/logging.hh"

namespace consim
{

namespace
{

NocParams
nocParams(const MachineConfig &cfg)
{
    NocParams p;
    p.meshX = cfg.meshX;
    p.meshY = cfg.meshY;
    p.vcsPerVnet = cfg.vcsPerVnet;
    // One header flit plus the 64B block payload.
    p.dataFlits = (blockBytes + cfg.flitBytes - 1) / cfg.flitBytes + 1;
    p.ctrlFlits = 1;
    p.vcBufferFlits = std::max(cfg.vcBufferFlits, p.dataFlits);
    p.pipelineDelay = 2; // 3-stage pipe: RC, VA/SA, ST
    return p;
}

} // namespace

Mesh::Mesh(const MachineConfig &cfg, NetworkStats &stats,
           MeshShared::DeliverFn deliver)
    : params_(nocParams(cfg)), stats_(stats),
      shared_(params_, packetPoolBound(params_, cfg.numCores()),
              std::move(deliver))
{
    const int n = cfg.numCores();
    routers_.reserve(n);
    nis_.reserve(n);
    // Reserved up front: routers and NIs point at each other.
    for (CoreId t = 0; t < n; ++t)
        routers_.emplace_back(t, params_, &stats_, &shared_);
    for (CoreId t = 0; t < n; ++t) {
        const int x = t % cfg.meshX, y = t / cfg.meshX;
        Router &r = routers_[t];
        if (y > 0)
            r.setNeighbor(PortNorth, &routers_[t - cfg.meshX]);
        if (y < cfg.meshY - 1)
            r.setNeighbor(PortSouth, &routers_[t + cfg.meshX]);
        if (x < cfg.meshX - 1)
            r.setNeighbor(PortEast, &routers_[t + 1]);
        if (x > 0)
            r.setNeighbor(PortWest, &routers_[t - 1]);
        nis_.emplace_back(t, params_, &r, &shared_);
    }
}

void
Mesh::inject(Msg m)
{
    CONSIM_ASSERT(m.srcTile != m.dstTile,
                  "mesh injection for a same-tile message");
    stats_.countInject();
    nis_.at(m.srcTile).enqueue(std::move(m));
}

void
Mesh::tick(Cycle now)
{
    lastTick_ = now;
    // Every busy output transmits one flit this cycle.
    stats_.linkBusyCycles += static_cast<std::uint64_t>(shared_.busyOutputs);
    // Each phase visits, in ascending tile order, only the routers or
    // NIs that have work; the others would do nothing.
    // Phase 1: finish the outputs stamped with this cycle (arrivals
    // land, ejections fire).
    shared_.finishing.walk(now,
                           [&](CoreId t) { routers_[t].tickOutputs(now); });
    // Phase 2: sources inject into local input VCs.
    shared_.queued.forEach([&](CoreId t) { nis_[t].tick(now); });
    // Phase 3: switch allocation, at the routers whose wake cycle is
    // this one. An entry left in the slot by a wake cycle lowered
    // since is stale.
    shared_.due.walk(now, [&](CoreId t) {
        if (shared_.wake[t] == now)
            routers_[t].tickAllocate(now);
    });
}

void
Mesh::setQos(VmId protected_vm, int reserved_vcs)
{
    for (Router &r : routers_)
        r.setQos(protected_vm, reserved_vcs);
}

bool
Mesh::idle() const
{
    return shared_.buffered == 0 && shared_.busyOutputs == 0 &&
           shared_.queued.empty();
}

int
Mesh::inFlight() const
{
    int n = 0;
    for (const Router &r : routers_)
        n += r.bufferedPackets();
    for (const NetworkInterface &ni : nis_)
        n += ni.queued();
    return n;
}

void
Mesh::forEachMsg(const std::function<void(const Msg &)> &fn) const
{
    for (const Router &r : routers_)
        r.forEachHeld([&](PacketId h) { fn(shared_.pool[h].msg); });
    for (const NetworkInterface &ni : nis_)
        ni.forEachQueued(fn);
}

void
Mesh::checkConservation() const
{
    // Pass 1: collect credits held by packets in transit, keyed by
    // their destination (tile, port, vc).
    const int totalVcs = params_.totalVcs();
    std::vector<int> reserved(routers_.size() * NumPorts * totalVcs,
                              0);
    const auto slot = [&](CoreId tile, int port, int vc) -> int & {
        return reserved[(static_cast<std::size_t>(tile) * NumPorts +
                         port) * totalVcs + vc];
    };
    for (const Router &r : routers_) {
        r.forEachTransit(
            [&](CoreId dst, int port, int vc, int flits) {
                slot(dst, port, vc) += flits;
            });
    }

    // Pass 2: per-router credit equations and derived state, plus
    // the packet census. The next tick is lastTick_ + 1.
    int buffered = 0, transit = 0, queued = 0;
    for (const Router &r : routers_) {
        const CoreId t = r.tile();
        r.checkInvariants(
            [&](int port, int vc) { return slot(t, port, vc); },
            lastTick_ + 1);
        buffered += r.bufferedPackets();
        transit += r.transitPackets();
    }
    for (CoreId t = 0; t < static_cast<CoreId>(nis_.size()); ++t) {
        queued += nis_[t].queued();
        if (shared_.queued.contains(t) != !nis_[t].idle()) {
            CONSIM_CHECK_FAIL("NI ", t, ": queued-set membership ",
                              shared_.queued.contains(t), " with ",
                              nis_[t].queued(), " queued messages");
        }
    }

    if (shared_.busyOutputs != transit || shared_.buffered != buffered) {
        CONSIM_CHECK_FAIL("mesh counts drifted (busy outputs cached=",
                          shared_.busyOutputs, " recount=", transit,
                          ", buffered packets cached=", shared_.buffered,
                          " recount=", buffered, ")");
    }

    // The pool census: each live slot holds one buffered or in-transit
    // packet, each such packet's handle is held once, and the free
    // list holds distinct slots that no one holds.
    const PacketPool &pool = shared_.pool;
    if (pool.live() != static_cast<std::size_t>(buffered + transit)) {
        CONSIM_CHECK_FAIL("packet pool census: ", pool.live(),
                          " live slots for ", buffered,
                          " buffered and ", transit,
                          " in-transit packets");
    }
    enum : std::uint8_t { Unseen, Held, Free };
    std::vector<std::uint8_t> seen(pool.highWater(), Unseen);
    for (const Router &r : routers_) {
        r.forEachHeld([&](PacketId h) {
            if (h >= seen.size() || seen[h] != Unseen) {
                CONSIM_CHECK_FAIL("packet pool census: router ",
                                  r.tile(), " holds handle ", h,
                                  h >= seen.size() ? ", outside the pool"
                                                   : ", held twice");
            }
            seen[h] = Held;
        });
    }
    for (const PacketId h : pool.freeList()) {
        if (h >= seen.size() || seen[h] != Unseen) {
            CONSIM_CHECK_FAIL("packet pool census: free-list entry ", h,
                              h >= seen.size() ? " outside the pool"
                              : seen[h] == Held ? " is live"
                                                : " listed twice");
        }
        seen[h] = Free;
    }

    const std::uint64_t inNetwork =
        static_cast<std::uint64_t>(buffered + transit + queued);
    if (stats_.injectedTotal - stats_.ejectedTotal != inNetwork) {
        CONSIM_CHECK_FAIL(
            "mesh packet conservation broken: injected=",
            stats_.injectedTotal, " ejected=", stats_.ejectedTotal,
            " buffered=", buffered, " in_transit=", transit,
            " ni_queued=", queued);
    }
}

json::Value
Mesh::diagJson() const
{
    auto v = json::Value::object();
    v.set("injected_total", stats_.injectedTotal);
    v.set("ejected_total", stats_.ejectedTotal);
    v.set("in_flight", inFlight());
    auto routers = json::Value::array();
    for (const Router &r : routers_) {
        if (!r.idle())
            routers.push(r.creditJson());
    }
    v.set("routers", std::move(routers));
    auto nis = json::Value::array();
    for (std::size_t t = 0; t < nis_.size(); ++t) {
        if (nis_[t].queued() == 0)
            continue;
        auto e = json::Value::object();
        e.set("tile", static_cast<int>(t));
        e.set("queued", nis_[t].queued());
        nis.push(std::move(e));
    }
    v.set("ni_queues", std::move(nis));
    return v;
}

} // namespace consim
