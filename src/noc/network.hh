/**
 * @file
 * Interconnect packet accounting. A System owns one NetworkStats
 * whichever interconnect it models: the flit-level Mesh (mesh.hh)
 * counts its own injections and ejections into it, and on the
 * fixed-latency ideal network of the ablation, whose transport is
 * System's NetDeliver events, System counts them.
 */

#ifndef CONSIM_NOC_NETWORK_HH
#define CONSIM_NOC_NETWORK_HH

#include <cstdint>

#include "coherence/protocol.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace consim
{

/** Interconnect statistics and the monotonic packet totals. */
struct NetworkStats
{
    NetworkStats()
    {
        group.add("packets_injected", &packetsInjected);
        group.add("packets_ejected", &packetsEjected);
        group.add("flit_hops", &flitHops);
        group.add("link_busy_cycles", &linkBusyCycles);
        group.add("latency", &latency);
        group.add("latency_data", &latencyData);
        group.add("latency_ctrl", &latencyCtrl);
    }

    /** Account one injection. */
    void
    countInject()
    {
        ++packetsInjected;
        ++injectedTotal;
    }

    /** Account the ejection of a @p len_flits packet at @p now. */
    void
    countEject(const Msg &m, Cycle now, int len_flits)
    {
        ++packetsEjected;
        ++ejectedTotal;
        const double lat = static_cast<double>(now - m.injectCycle);
        latency.sample(lat);
        if (len_flits > 1)
            latencyData.sample(lat);
        else
            latencyCtrl.sample(lat);
    }

    stats::Counter packetsInjected;
    stats::Counter packetsEjected;
    stats::Counter flitHops;        ///< flits x links traversed
    stats::Counter linkBusyCycles;  ///< cycles any link transmitted
    stats::Average latency;         ///< inject -> eject, all packets
    stats::Average latencyData;     ///< data packets only
    stats::Average latencyCtrl;     ///< control packets only

    /** Packets ever injected and ejected. Never reset: the watchdog
     *  diffs the ejections, and the mesh's conservation audit the
     *  difference. */
    std::uint64_t injectedTotal = 0;
    std::uint64_t ejectedTotal = 0;

    /** Registry node of the counters and averages; the totals stay
     *  out of it, so a stats reset leaves them. */
    stats::Group group{"net"};
};

} // namespace consim

#endif // CONSIM_NOC_NETWORK_HH
