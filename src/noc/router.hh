/**
 * @file
 * A mesh router with virtual-channel flow control and a 3-stage
 * pipeline, following the paper's Table III interconnect: 2-D
 * packet-switched mesh, dimension-order routing, speculative VA/SA.
 *
 * Modelling notes:
 *  - Packets move with virtual cut-through granularity: a packet is
 *    fully buffered in an input VC, then competes for the switch.
 *    Buffers are sized in flits; a VC is reserved for a whole packet.
 *  - The 3-stage pipeline (RC, speculative VA+SA, ST) is modelled as
 *    two cycles of pipeline delay after full arrival, then one cycle
 *    per flit of switch/link transmission.
 *  - Credits are modelled with direct visibility into the downstream
 *    buffer (the simulator is single-threaded); credit turnaround is
 *    folded into the pipeline delay.
 *  - Virtual networks (request/forward/response) are sets of VCs; a
 *    packet may only use VCs of its own vnet, which breaks protocol
 *    deadlock cycles. XY routing keeps each vnet cycle-free.
 */

#ifndef CONSIM_NOC_ROUTER_HH
#define CONSIM_NOC_ROUTER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "coherence/protocol.hh"
#include "common/bitops.hh"
#include "common/json.hh"
#include "common/ring.hh"
#include "noc/network.hh"
#include "noc/routing.hh"

namespace consim
{

/** NoC structural parameters (derived from MachineConfig). */
struct NocParams
{
    int meshX = 4;
    int meshY = 4;
    int numVnets = 3;
    int vcsPerVnet = 2;
    int vcBufferFlits = 8;   ///< must hold a full data packet
    int pipelineDelay = 2;   ///< cycles from full arrival to SA
    int dataFlits = 5;       ///< 64B block + header @ 16B flits
    int ctrlFlits = 1;

    int totalVcs() const { return numVnets * vcsPerVnet; }
    int flitsOf(MsgType t) const
    {
        return carriesData(t) ? dataFlits : ctrlFlits;
    }
};

/** A packet inside the router network. */
struct RouterPacket
{
    Msg msg;
    int lenFlits = 1;
    Cycle readyCycle = 0; ///< eligible for switch allocation
    int outPort = PortLocal;
};

/** A fixed set of tiles, sized at construction, walked in ascending
 *  tile order. */
class TileSet
{
  public:
    explicit TileSet(int tiles)
        : words_((static_cast<std::size_t>(tiles) + 63) / 64)
    {
    }

    void insert(CoreId t) { words_[t >> 6] |= bit(t); }
    void erase(CoreId t) { words_[t >> 6] &= ~bit(t); }
    bool contains(CoreId t) const { return (words_[t >> 6] & bit(t)) != 0; }

    bool
    empty() const
    {
        for (const std::uint64_t w : words_) {
            if (w != 0)
                return false;
        }
        return true;
    }

    /** Call @p fn on every tile in ascending order. @p fn may insert
     *  or erase tiles; a tile above the current one is visited iff it
     *  is in the set when the walk reaches it. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits != 0) {
                const int b = lowestSetBit(bits);
                fn(static_cast<CoreId>(w * 64 + b));
                bits = words_[w] & (~std::uint64_t(1) << b);
            }
        }
    }

  private:
    static std::uint64_t bit(CoreId t) { return std::uint64_t(1) << (t & 63); }

    std::vector<std::uint64_t> words_;
};

/**
 * What a mesh's routers and NIs share: each tile's column, so that
 * routing needs no division, and what Mesh::tick reads to visit only
 * routers and NIs with work: the activity sets and the routers' wake
 * cycles, dense so that a skipped router is never loaded.
 *
 * A router's wake cycle is the earliest cycle at which its
 * allocation pass could grant: the minimum over occupied input VCs
 * of the head's ready cycle, or the next cycle for a ready head that
 * stayed put. A pass that grants nothing has no side effects (the
 * round-robin pointer moves only on a grant), so skipping the passes
 * before the wake cycle is exact.
 */
struct MeshShared
{
    MeshShared(int mesh_x, int tiles);

    std::vector<int> col;    ///< tile -> x
    std::vector<Cycle> wake; ///< tile -> router wake cycle
    TileSet buffered;        ///< routers with buffered packets
    TileSet busy;            ///< routers with a busy output
    TileSet queued;          ///< NIs with queued messages
};

/**
 * One mesh router. The Mesh wires routers to their neighbors and
 * registers an ejector for the local port.
 *
 * Only routers with work are visited: the router keeps its tile in
 * the mesh's `buffered` and `busy` sets while it has buffered packets
 * or a busy output. It also keeps a wake cycle, the earliest cycle at
 * which an allocation pass could grant, and the mesh skips the pass
 * before it. Per input VC, the head packet's ready cycle and output
 * port are kept in small arrays, and the busy outputs in a mask, so
 * deciding that a head cannot go reads no packet and no output.
 */
class Router
{
  public:
    using EjectFn = std::function<void(const Msg &, int len_flits)>;

    Router(CoreId tile, const NocParams &params, NetworkStats *stats,
           MeshShared *shared);

    /** Wire port @p port to neighbor @p r (nullptr at mesh edges). */
    void setNeighbor(int port, Router *r);

    /** Register the local-port delivery callback. */
    void setEjector(EjectFn fn) { eject_ = std::move(fn); }

    /**
     * Enable per-VM QoS: the top @p reserved_vcs VCs of every vnet
     * only accept packets of @p protected_vm, which also win switch
     * allocation first (with a deterministic yield cycle every fourth
     * cycle so unprotected traffic keeps forward progress). Zero
     * restores the default shared behaviour exactly.
     */
    void setQos(VmId protected_vm, int reserved_vcs);

    /**
     * Ask whether input @p in_port can accept a packet of @p len
     * flits on virtual network @p vnet, sent on behalf of VM @p vm
     * (reserved VCs only admit the protected VM's packets).
     * @param vc_out receives the chosen VC index on success.
     * @return true when an admissible VC with sufficient space exists.
     */
    bool canAccept(int in_port, int vnet, int len, VmId vm,
                   int *vc_out) const;

    /** Reserve @p len flits of space in the chosen VC. */
    void reserve(int in_port, int vc, int len);

    /**
     * Deliver a packet into an input VC whose space was reserved.
     * Computes the route (RC stage) and the SA-ready cycle.
     */
    void arrive(int in_port, int vc, const RouterPacket &pkt, Cycle now);

    /** Phase 1: advance output transmissions; land arrivals. */
    void tickOutputs(Cycle now);

    /** Phase 2: switch allocation (speculative VA+SA), then the next
     *  wake cycle. */
    void tickAllocate(Cycle now);

    /** @return true when no buffered packets or active transfers. */
    bool idle() const;

    CoreId tile() const { return tile_; }

    /** @return buffered packets (diagnostics). */
    int bufferedPackets() const;

    /** @return packets mid-transmission on this router's outputs. */
    int transitPackets() const { return busyOutputs_; }

    /**
     * Report every neighbor-bound in-transit packet's downstream
     * credit reservation: the flits it holds in (dstTile, dstPort,
     * dstVc). The mesh-level conservation audit folds these into the
     * per-VC credit equation.
     */
    void forEachTransit(
        const std::function<void(CoreId dst_tile, int dst_port,
                                 int dst_vc, int flits)> &fn) const;

    /**
     * Hardening audit: verify credit and packet accounting. For each
     * input VC, freeFlits + queued flits + inbound in-transit flits
     * must equal vcBufferFlits; buffered_/busyOutputs_ must match a
     * recount. The derived state must match the queues and outputs:
     * the occupancy and busy-output masks, the head summaries, the
     * activity-set membership, and a wake cycle no later than the
     * first cycle from @p next on at which a head could go. Throws
     * SimError on violation.
     * @param inbound_reserved flits reserved in (port, vc) by packets
     *        in transit from upstream; when null the per-VC equation
     *        degrades to an upper-bound check.
     * @param next the cycle of the next tick.
     */
    void checkInvariants(
        const std::function<int(int port, int vc)> &inbound_reserved,
        Cycle next) const;

    /** Credit/occupancy snapshot for the `consim.diag.v1` dump. */
    json::Value creditJson() const;

  private:
    /** Checkpoint layer saves/restores VC queues and output ports. */
    friend struct CkptAccess;

    struct InputVc
    {
        RingBuf<RouterPacket> q;
        int freeFlits = 0;
    };

    struct OutPort
    {
        bool busy = false;
        int remaining = 0;
        int dstVc = 0;
        RouterPacket pkt;
    };

    /** The allocator tracks input-VC occupancy in one 64-bit word. */
    static constexpr int maxInputVcs = 64;

    int vcIndex(int vnet, int vc_in_vnet) const
    {
        return vnet * params_.vcsPerVnet + vc_in_vnet;
    }

    InputVc &in(int port, int vc) { return inputs_[port * totalVcs_ + vc]; }
    const InputVc &in(int port, int vc) const
    {
        return inputs_[port * totalVcs_ + vc];
    }

    /** Record input VC @p idx's head packet in the summaries. */
    void
    setHead(int idx, const RouterPacket &head)
    {
        headReady_[idx] = head.readyCycle;
        headOut_[idx] = static_cast<std::uint8_t>(head.outPort);
    }

    /** One switch-allocation sweep; @p protected_only restricts
     *  grants to the QoS-protected VM's packets (priority pass). */
    void allocatePass(Cycle now, std::uint64_t &used,
                      bool protected_only);

    /** Rebuild the occupancy mask, head summaries and activity-set
     *  membership from the queues and outputs, and wake at once
     *  (checkpoint restore rebuilds queues behind our back). */
    void restoreDerived();

    // Hot state first, so that the lines a neighbour's arrive() and
    // canAccept() and an allocation pass read are few and adjacent.
    std::vector<InputVc> inputs_;       ///< [port][vc]
    std::uint64_t occ_ = 0;             ///< input VCs with packets
    unsigned outBusy_ = 0;              ///< busy output ports
    MeshShared *shared_;
    Cycle *wake_;                       ///< this tile's wake cycle
    CoreId tile_;
    int x_;                             ///< this tile's column
    int totalVcs_;                      ///< VCs per input port
    std::uint64_t portVcs_;             ///< port 0's VCs in occ_
    int rrInput_ = 0;                   ///< SA fairness pointer
    int buffered_ = 0;                  ///< packets across input VCs
    int busyOutputs_ = 0;               ///< outputs mid-transmission
    VmId qosProtectedVm_ = invalidVm;   ///< QoS: protected VM (config)
    int qosReservedVcs_ = 0;            ///< QoS: reserved VCs per vnet
    NocParams params_;
    NetworkStats *stats_;
    std::array<std::uint8_t, maxInputVcs> headOut_{}; ///< occupied VCs
    std::array<std::uint8_t, maxInputVcs> portOf_{};  ///< VC -> port
    std::array<Cycle, maxInputVcs> headReady_{};      ///< occupied VCs
    Router *neighbor_[NumPorts] = {};
    OutPort outputs_[NumPorts];
    EjectFn eject_;
};

} // namespace consim

#endif // CONSIM_NOC_ROUTER_HH
