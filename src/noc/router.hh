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
 *
 * Host-cost notes: a packet's message sits in one pool slot from
 * injection to ejection, and a hop moves its Hop, the few fields
 * routing and arbitration read. Each input VC is one 32-byte record
 * holding its head's Hop and its credits, so a hop touches the
 * records of the VCs it crosses and no pool slot. A router runs its
 * allocation pass only at its wake cycle, from the mesh's wake
 * calendar (MeshShared).
 */

#ifndef CONSIM_NOC_ROUTER_HH
#define CONSIM_NOC_ROUTER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "coherence/protocol.hh"
#include "common/bitops.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/tile_set.hh"
#include "noc/network.hh"
#include "noc/routing.hh"

namespace consim
{

/** NoC structural parameters (derived from MachineConfig). */
struct NocParams
{
    int meshX = 4;
    int meshY = 4;
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

/** A packet inside the router network. A packet at the head of an
 *  input VC or on an output is carried by its Hop, which is then the
 *  one source of its ready cycle and port; the slot keeps them only
 *  for a packet queued behind a head. */
struct RouterPacket
{
    Msg msg;
    int lenFlits = 1;
    Cycle readyCycle = 0; ///< eligible for switch allocation
    int outPort = PortLocal;
};

/** Handle of a packet in its mesh's PacketPool. */
using PacketId = std::uint32_t;

/**
 * What a hop reads of a packet: its pool handle, and a copy of the
 * fields that routing, arbitration and downstream admission need, so
 * that moving a packet between routers reads no pool slot. The NI
 * fills it at injection; `ready` and `port` are set on each arrival.
 */
struct Hop
{
    Cycle ready = 0;          ///< eligible for switch allocation
    PacketId pkt = 0;         ///< the packet's pool slot
    CoreId dst = 0;           ///< destination tile
    VmId vm = invalidVm;      ///< sending VM (QoS admission)
    std::uint8_t len = 1;     ///< flits
    std::uint8_t port = 0;    ///< output port at this router
    std::uint8_t vnet = 0;    ///< virtual network
};

/**
 * Every packet of a mesh, from NI injection to ejection, in one slot
 * of one pool: input VCs and outputs hold handles, in Hops or ring
 * slots, so a hop moves an index and a few fields, not the packet.
 * The slots are reserved up to a
 * bound (packetPoolBound) but constructed only up to the high-water
 * mark, and freed slots are reused last in, first out, so the live
 * ones stay few and warm. An allocation past the bound is an
 * invariant failure, never growth.
 */
class PacketPool
{
  public:
    explicit PacketPool(std::size_t bound) : bound_(bound)
    {
        slots_.reserve(bound);
        free_.reserve(bound);
    }

    PacketId
    alloc()
    {
        if (!free_.empty()) {
            const PacketId h = free_.back();
            free_.pop_back();
            return h;
        }
        CONSIM_ASSERT(slots_.size() < bound_, "packet pool outgrew its "
                      "bound of ", bound_, " slots");
        slots_.emplace_back();
        return static_cast<PacketId>(slots_.size() - 1);
    }

    void release(PacketId h) { free_.push_back(h); }

    RouterPacket &operator[](PacketId h) { return slots_[h]; }
    const RouterPacket &operator[](PacketId h) const { return slots_[h]; }

    std::size_t bound() const { return bound_; }
    /** @return slots ever constructed: the most ever live at once. */
    std::size_t highWater() const { return slots_.size(); }
    std::size_t live() const { return slots_.size() - free_.size(); }
    const std::vector<PacketId> &freeList() const { return free_; }

    /** Free every slot (checkpoint restore refills the pool). */
    void
    clear()
    {
        slots_.clear();
        free_.clear();
    }

  private:
    std::vector<RouterPacket> slots_;
    std::vector<PacketId> free_;
    std::size_t bound_;
};

/**
 * @return the most packets a mesh of @p tiles routers can hold at
 * once. A queued or in-transit packet holds at least one credit flit
 * of one input VC; an ejecting packet holds none, and each router
 * ejects at most one at a time.
 */
inline std::size_t
packetPoolBound(const NocParams &params, int tiles)
{
    return static_cast<std::size_t>(tiles) *
           (static_cast<std::size_t>(NumPorts) * params.totalVcs() *
                params.vcBufferFlits +
            1);
}

/**
 * What a mesh's routers and NIs share: each tile's column, so that
 * routing needs no division; the packet pool; the function that
 * delivers an ejected packet's message; and what Mesh::tick reads to
 * visit only routers and NIs with work: the NIs' activity set, the
 * finishing ring, and the routers' wake calendar and wake cycles,
 * dense so that a skipped router is never loaded.
 *
 * A grant stamps the cycle its output finishes, and puts the router
 * in the finishing calendar at that cycle. The calendar spans a
 * power of two above the longest packet's flit count, so the cycles
 * an output can finish in never share a slot. Phase 1 of a tick
 * visits only the routers of the current cycle's slot.
 *
 * A router's wake cycle is the earliest cycle at which its
 * allocation pass could grant: the minimum over occupied input VCs
 * of the head's ready cycle, or the next cycle for a ready head that
 * stayed put; cycleNever with no packet. A pass that grants nothing
 * has no side effects (the round-robin pointer moves only on a
 * grant), so skipping the passes before the wake cycle is exact.
 * The router sits in the wake calendar at its wake cycle, which is
 * never more than pipelineDelay cycles ahead, so a span of 4 keeps
 * the due cycles apart. Lowering a wake cycle would leave the router
 * in its old slot too, so phase 3 skips an entry whose cycle is not
 * the router's wake cycle.
 */
struct MeshShared
{
    using DeliverFn = std::function<void(const Msg &)>;

    MeshShared(const NocParams &params, std::size_t pool_bound,
               DeliverFn deliver_fn);

    /** Drop every packet, stamp, wake cycle and busy output
     *  (checkpoint restore rebuilds them from the records). */
    void clearTraffic();

    std::vector<int> col;    ///< tile -> x
    std::vector<Cycle> wake; ///< tile -> router wake cycle
    TileCalendar due;        ///< cycle -> routers whose pass is due
    TileSet queued;          ///< NIs with queued messages
    TileCalendar finishing;  ///< cycle -> routers with an output finishing
    int busyOutputs = 0;     ///< outputs mid-transmission, mesh-wide
    int buffered = 0;        ///< packets in input VCs, mesh-wide
    PacketPool pool;
    DeliverFn deliver;       ///< called on each ejected message
};

/**
 * One mesh router. The Mesh wires routers to their neighbors; a
 * packet leaving the local port is counted as ejected and its message
 * handed to the mesh's deliver function.
 *
 * Only routers with work are visited: the router puts its tile in
 * the mesh's wake calendar at its wake cycle, the earliest cycle at
 * which an allocation pass could grant, and in the finishing ring's
 * set of each cycle one of its outputs finishes.
 *
 * Packets live in the mesh's PacketPool. Each input VC is one
 * 32-byte InVc record: the head packet's Hop, the VC's credits, and
 * the ring position and length of the handles queued behind the
 * head, in one contiguous array of rings. An output holds the Hop of
 * the packet it sends and the cycle it finishes. A hop's arrival,
 * candidate check, grant and downstream admission so read one record
 * per VC and no pool slot; the pool is read at injection, at
 * ejection, and when a queued packet moves up to the head.
 */
class Router
{
  public:
    Router(CoreId tile, const NocParams &params, NetworkStats *stats,
           MeshShared *shared);

    /** Wire port @p port to neighbor @p r (nullptr at mesh edges). */
    void setNeighbor(int port, Router *r);

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
     * Deliver the packet @p hop carries into an input VC whose space
     * was reserved. Computes the route (RC stage) and the SA-ready
     * cycle.
     */
    void arrive(int in_port, int vc, Hop hop, Cycle now);

    /** Phase 1: finish the outputs stamped @p now (arrivals land,
     *  ejections fire). */
    void tickOutputs(Cycle now);

    /** Phase 2: switch allocation (speculative VA+SA), then the next
     *  wake cycle. */
    void tickAllocate(Cycle now);

    /** @return true when no buffered packets or active transfers. */
    bool idle() const { return occ_ == 0 && outBusy_ == 0; }

    CoreId tile() const { return tile_; }

    /** @return buffered packets (diagnostics). */
    int bufferedPackets() const;

    /** @return packets mid-transmission on this router's outputs. */
    int transitPackets() const { return popCount(outBusy_); }

    /** Call @p fn on the handle of every buffered and in-transit
     *  packet (the pool census). */
    void forEachHeld(const std::function<void(PacketId)> &fn) const;

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
     * must equal vcBufferFlits. The derived state must match the
     * queues and outputs: the occupancy mask; each kept Hop (VC head
     * or output) agrees with its pool message's destination, VM,
     * vnet and flit count, and a head's port with its route; the
     * finishing-ring membership; output stamps from @p next on; a
     * router with packets is armed in the wake calendar at a wake
     * cycle in [next, next + span) no later than the first cycle
     * from @p next on at which a head could go, and one without has
     * no wake cycle. Throws SimError on violation.
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

    /** One input VC: while its occ_ bit is set, the head packet's
     *  Hop; its free flits; and the ring position and length of the
     *  handles queued behind the head. */
    struct alignas(32) InVc
    {
        Hop head;
        std::int16_t credits = 0;  ///< free flits
        std::uint8_t qHead = 0;    ///< ring slot of the first queued
        std::uint8_t qLen = 0;     ///< packets queued behind the head
        std::uint8_t inPort = 0;   ///< the input port it belongs to
    };
    static_assert(sizeof(InVc) == 32, "an input VC is one 32-byte "
                  "record");

    /** A busy output: the Hop of the packet it sends, the cycle its
     *  last flit goes (the grant cycle plus the packet's length) and
     *  the downstream VC it reserved. */
    struct OutPort
    {
        Cycle done = 0;
        Hop hop;
        int dstVc = 0;
    };

    /** The allocator tracks input-VC occupancy in one 64-bit word. */
    static constexpr int maxInputVcs = 64;
    /** A VC's ring position and length fit a byte. */
    static constexpr int maxVcBufferFlits = 255;

    int vcIndex(int vnet, int vc_in_vnet) const
    {
        return vnet * vcsPerVnet_ + vc_in_vnet;
    }

    /** @return input VC @p idx's ring slot @p k places behind its
     *  first queued packet. */
    PacketId &
    slot(int idx, unsigned k)
    {
        return ring_[(static_cast<unsigned>(idx) << ringShift_) |
                     ((in_[idx].qHead + k) & ringMask_)];
    }
    PacketId
    slot(int idx, unsigned k) const
    {
        return ring_[(static_cast<unsigned>(idx) << ringShift_) |
                     ((in_[idx].qHead + k) & ringMask_)];
    }

    /** @return the Hop of pooled packet @p h, from its slot. */
    Hop hopOf(PacketId h) const;

    /** Arm the router for an allocation pass at cycle @p c: lower the
     *  wake cycle, and enter the calendar, only when @p c is earlier. */
    void
    wakeAt(Cycle c)
    {
        if (c < *wake_) {
            *wake_ = c;
            shared_->due.insert(c, tile_);
        }
    }

    /** One switch-allocation sweep; @p protected_only restricts
     *  grants to the QoS-protected VM's packets (priority pass). */
    void allocatePass(Cycle now, std::uint64_t &used,
                      bool protected_only);

    /** Rebuild the finishing-ring membership, the mesh's busy-output
     *  and buffered counts and the wake calendar from the queues and
     *  outputs, arming a router with packets at @p now (checkpoint
     *  restore rebuilds queues behind our back). */
    void restoreDerived(Cycle now);

    // Hot state first, so that the lines a neighbour's arrive() and
    // canAccept() and an allocation pass read are few and adjacent.
    std::uint64_t occ_ = 0;             ///< input VCs with a head
    unsigned outBusy_ = 0;              ///< busy output ports
    int totalVcs_;                      ///< VCs per input port
    int vcsPerVnet_;
    int qosReservedVcs_ = 0;            ///< QoS: reserved VCs per vnet
    VmId qosProtectedVm_ = invalidVm;   ///< QoS: protected VM (config)
    unsigned ringShift_;                ///< log2 of a VC's ring slots
    unsigned ringMask_;                 ///< a VC's ring slots - 1
    MeshShared *shared_;
    PacketPool *pool_;
    Cycle *wake_;                       ///< this tile's wake cycle
    CoreId tile_;
    int x_;                             ///< this tile's column
    Cycle pipelineDelay_;
    std::uint64_t portVcs_;             ///< port 0's VCs in occ_
    int rrInput_ = 0;                   ///< SA fairness pointer
    std::vector<InVc> in_;              ///< [port][vc] input VCs
    OutPort outputs_[NumPorts];
    Router *neighbor_[NumPorts] = {};
    std::vector<PacketId> ring_;        ///< [port][vc][slot] handles
    NocParams params_;
    NetworkStats *stats_;
};

} // namespace consim

#endif // CONSIM_NOC_ROUTER_HH
