/**
 * @file
 * Abstract interconnect interface plus the statistics holder of the
 * idealized fixed-latency network used as an ablation baseline (its
 * transport is System's NetDeliver events). The real interconnect is
 * the flit-level Mesh (mesh.hh).
 */

#ifndef CONSIM_NOC_NETWORK_HH
#define CONSIM_NOC_NETWORK_HH

#include <functional>
#include <utility>

#include "coherence/protocol.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace consim
{

/** Aggregate interconnect statistics. */
struct NetworkStats
{
    stats::Counter packetsInjected;
    stats::Counter packetsEjected;
    stats::Counter flitHops;        ///< flits x links traversed
    stats::Counter linkBusyCycles;  ///< cycles any link transmitted
    stats::Average latency;         ///< inject -> eject, all packets
    stats::Average latencyData;     ///< data packets only
    stats::Average latencyCtrl;     ///< control packets only

    void
    reset()
    {
        packetsInjected.reset();
        packetsEjected.reset();
        flitHops.reset();
        linkBusyCycles.reset();
        latency.reset();
        latencyData.reset();
        latencyCtrl.reset();
    }

    /** Register every member into @p g (hierarchical registry). */
    void
    registerIn(stats::Group &g)
    {
        g.add("packets_injected", &packetsInjected);
        g.add("packets_ejected", &packetsEjected);
        g.add("flit_hops", &flitHops);
        g.add("link_busy_cycles", &linkBusyCycles);
        g.add("latency", &latency);
        g.add("latency_data", &latencyData);
        g.add("latency_ctrl", &latencyCtrl);
    }
};

/** Interconnect interface: inject messages, tick, deliver callback. */
class Network
{
  public:
    using DeliverFn = std::function<void(const Msg &)>;

    virtual ~Network() = default;

    /** Register the delivery callback (owned by System). */
    void setDeliver(DeliverFn fn) { deliver_ = std::move(fn); }

    /** Inject a cross-tile message at its source tile. */
    virtual void inject(Msg m) = 0;

    /** Advance one cycle. */
    virtual void tick(Cycle now) = 0;

    /** @return true when no packets are in flight (quiesced). */
    virtual bool idle() const = 0;

    /**
     * Hardening-layer audit: verify flit/credit conservation and
     * packet accounting. Throws SimError on violation; the base
     * implementation (ideal network) has nothing to conserve.
     */
    virtual void checkConservation() const {}

    /** Per-router/VC state for the `consim.diag.v1` dump. */
    virtual json::Value diagJson() const
    {
        return json::Value::object();
    }

    /**
     * Per-VM QoS: reserve @p reserved_vcs VCs per vnet for
     * @p protected_vm and arbitrate its packets first. The ideal
     * network has unlimited bandwidth, so there is nothing to
     * enforce and the base implementation ignores it.
     */
    virtual void
    setQos(VmId protected_vm, int reserved_vcs)
    {
        (void)protected_vm;
        (void)reserved_vcs;
    }

    /** Monotonic eject packet count (never reset; the watchdog
     *  diffs it, so it must survive resetStats). */
    std::uint64_t ejectedTotal() const { return ejectedTotal_; }

    NetworkStats &netStats() { return stats_; }
    const NetworkStats &netStats() const { return stats_; }

    // --- packet accounting: the Mesh's own transport, and System's
    // NetDeliver events for the ideal network (see System::send) ---

    /** Account one injection. */
    void
    countInject()
    {
        ++stats_.packetsInjected;
        ++injectedTotal_;
    }

    /** Account the ejection of a @p len_flits packet at @p now. */
    void
    countEject(const Msg &m, Cycle now, int len_flits)
    {
        ++stats_.packetsEjected;
        ++ejectedTotal_;
        const double lat = static_cast<double>(now - m.injectCycle);
        stats_.latency.sample(lat);
        if (len_flits > 1)
            stats_.latencyData.sample(lat);
        else
            stats_.latencyCtrl.sample(lat);
    }

    /** Registry node ("net") holding the interconnect stats. */
    stats::Group &statsGroup() { return statsGroup_; }

  protected:
    friend struct CkptAccess;

    Network() { stats_.registerIn(statsGroup_); }

    DeliverFn deliver_;
    NetworkStats stats_;
    std::uint64_t injectedTotal_ = 0;
    std::uint64_t ejectedTotal_ = 0;
    stats::Group statsGroup_{"net"};
};

/**
 * Ablation network: every message is delivered after a fixed latency,
 * with unlimited bandwidth. Comparing against the Mesh isolates the
 * congestion component of the scheduling-policy results. System
 * carries each message itself, as a NetDeliver event (so same-cycle
 * arrivals follow the canonical (src, seq) order), and this object
 * only keeps the statistics: it never holds a packet.
 */
class IdealNetwork : public Network
{
  public:
    void
    inject(Msg) override
    {
        CONSIM_PANIC("the ideal network's transport is System's "
                     "NetDeliver events");
    }

    void tick(Cycle) override {}

    bool idle() const override { return true; }
};

} // namespace consim

#endif // CONSIM_NOC_NETWORK_HH
