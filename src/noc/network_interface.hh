/**
 * @file
 * Network interface: per-tile injection point into the mesh. Holds
 * per-vnet injection queues (so a congested request path never blocks
 * responses at the source) and moves packets into the local router's
 * input VCs as space permits.
 */

#ifndef CONSIM_NOC_NETWORK_INTERFACE_HH
#define CONSIM_NOC_NETWORK_INTERFACE_HH

#include <array>

#include "coherence/protocol.hh"
#include "common/ring.hh"
#include "noc/router.hh"

namespace consim
{

/** Injection-side NI; a packet ejects at its destination router.
 *  The NI keeps its tile in the mesh's `queued` set while it holds
 *  messages, so the mesh visits only NIs with work. */
class NetworkInterface
{
  public:
    NetworkInterface(CoreId tile, const NocParams &params, Router *router,
                     MeshShared *shared);

    /** Queue a message for injection (unbounded source queue). */
    void enqueue(Msg m);

    /** Try to inject up to one packet per vnet into the router. */
    void tick(Cycle now);

    /** @return true when no messages await injection. */
    bool idle() const { return queuedTotal_ == 0; }

    /** @return messages waiting across all vnets (diagnostics). */
    int queued() const { return queuedTotal_; }

    /** Call @p fn on every queued message, vnet by vnet. */
    template <typename Fn>
    void
    forEachQueued(Fn &&fn) const
    {
        for (const auto &q : queues_)
            for (const Msg &m : q)
                fn(m);
    }

  private:
    friend struct CkptAccess;

    /** Recount queuedTotal_ and the queued-set membership
     *  (checkpoint restore refills queues). */
    void recountQueued();

    CoreId tile_;
    NocParams params_;
    Router *router_;
    MeshShared *shared_;
    std::array<RingBuf<Msg>, numVnets> queues_; ///< one per vnet
    int queuedTotal_ = 0;              ///< across all vnets
};

} // namespace consim

#endif // CONSIM_NOC_NETWORK_INTERFACE_HH
