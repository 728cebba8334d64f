/**
 * @file
 * The 2-D packet-switched mesh, the System's interconnect unless the
 * ideal-NoC ablation is on: a grid of Routers plus per-tile
 * NetworkInterfaces. Geometry and VC parameters come from
 * MachineConfig. Packets are counted into a NetworkStats, and each
 * ejected message goes to the deliver function the mesh was built
 * with.
 */

#ifndef CONSIM_NOC_MESH_HH
#define CONSIM_NOC_MESH_HH

#include <functional>
#include <vector>

#include "common/config.hh"
#include "noc/network.hh"
#include "noc/network_interface.hh"
#include "noc/router.hh"

namespace consim
{

/**
 * Flit-level 2-D mesh interconnect.
 *
 * A tick visits only routers and NIs with work: it walks three sets
 * in ascending tile order, the order a loop over every tile would
 * take: the routers with an output finishing this cycle, the NIs with
 * queued messages, and the routers whose allocation pass is due this
 * cycle (the wake calendar; see MeshShared). Packets stay in one pool
 * slot from injection to ejection, and move between routers as Hops.
 * The routers and NIs sit in one contiguous array each. Checkpoint
 * restore rebuilds the pool and this derived state from the queues.
 */
class Mesh
{
  public:
    Mesh(const MachineConfig &cfg, NetworkStats &stats,
         MeshShared::DeliverFn deliver);

    /** Inject a cross-tile message at its source tile. */
    void inject(Msg m);

    /** Advance one cycle. Call it for every cycle in order: the
     *  finishing ring and wake calendar keep a cycle's routers only
     *  until that cycle's tick walks them. */
    void tick(Cycle now);

    /** @return true when no packets are in flight (quiesced): none
     *  buffered, none on an output, none queued at an NI. */
    bool idle() const;

    /**
     * Hardening audit: per-VC flit/credit conservation across every
     * router (folding in-transit reservations into the equation),
     * each router's derived state (Router::checkInvariants: kept
     * hops, wake calendar, finishing ring), the mesh-wide buffered
     * and busy-output counts against a recount, global packet
     * conservation (injected - ejected must equal buffered +
     * NI-queued + in-transit) and the packet pool census (live slots
     * are the buffered and in-transit packets, each held once;
     * free-list entries are distinct, in range and not live).
     * Throws SimError on violation.
     */
    void checkConservation() const;

    /** Non-idle router credit maps + NI queue depths (diag dump). */
    json::Value diagJson() const;

    /** Per-VM QoS: reserve @p reserved_vcs VCs per vnet for
     *  @p protected_vm at every router and arbitrate its packets
     *  first (Router::setQos). */
    void setQos(VmId protected_vm, int reserved_vcs);

    /** @return the packet pool (tests/diagnostics). */
    const PacketPool &pool() const { return shared_.pool; }

    /** @return the derived NoC parameters. */
    const NocParams &params() const { return params_; }

    /** @return total packets buffered in-network (diagnostics). */
    int inFlight() const;

    /** Call @p fn on every message in the mesh: each one a router
     *  holds (buffered or in transit), then each one an NI queues. */
    void forEachMsg(const std::function<void(const Msg &)> &fn) const;

  private:
    friend struct CkptAccess;

    NocParams params_;
    NetworkStats &stats_;
    Cycle lastTick_ = 0;
    MeshShared shared_; ///< before the routers and NIs that point at it
    std::vector<Router> routers_;
    std::vector<NetworkInterface> nis_;
};

} // namespace consim

#endif // CONSIM_NOC_MESH_HH
