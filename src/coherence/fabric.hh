/**
 * @file
 * Fabric: the slim interface components use to talk to the rest of
 * the machine. The concrete System implements it; unit tests provide
 * mock fabrics to exercise controllers in isolation.
 */

#ifndef CONSIM_COHERENCE_FABRIC_HH
#define CONSIM_COHERENCE_FABRIC_HH

#include <type_traits>

#include "coherence/protocol.hh"
#include "common/config.hh"
#include "common/types.hh"

namespace consim
{

/**
 * Kind tag of a simulator event. Events describe the handful of
 * recurring callback shapes in the machine as plain data, which is
 * what lets a checkpoint serialize a pending event queue. Checkpoints
 * store the kind as its integer value, so the numbers are part of
 * the `consim.ckpt.v5` format: never renumber, only append.
 */
enum class SimEventKind : std::uint8_t
{
    Deliver = 1,   ///< deliver msg to its destination unit
    BankDispatch,  ///< L2Bank at tile dispatches block's queue head
    BankFillRetry, ///< L2Bank at tile retries a stalled fill of block
    DirProcess,    ///< DirectorySlice at tile processes block
    MemDone,       ///< memory access done; msg is the Data reply
    WedgeCore,     ///< fault injection: wedge core `tile`
    NetDeliver,    ///< ideal-network arrival (transport bypass)
};

/** @return true for event kinds whose `msg` is a message in flight. */
constexpr bool
carriesMsg(SimEventKind k)
{
    return k == SimEventKind::Deliver || k == SimEventKind::MemDone ||
           k == SimEventKind::NetDeliver;
}

/**
 * A simulator event: every scheduled callback in the machine
 * expressed as plain data. The System's executor switches on `kind`
 * to re-dispatch into the owning component.
 *
 * Ordering key: same-cycle events run sorted by (src, seq), where
 * `src` names the scheduling source (tile id, or a virtual source for
 * the network/system) and `seq` is that source's own monotonic
 * counter. The key is assigned at schedule time by the source, never
 * by the queue, so the canonical event order of a cycle is a pure
 * function of machine state — independent of insertion order, and
 * stable across checkpoint/restore.
 */
struct SimEvent
{
    SimEventKind kind;
    CoreId tile = invalidCore; ///< owning component's tile
    BlockAddr block = 0;
    std::int32_t src = -1;  ///< ordering key: scheduling source
    std::uint64_t seq = 0;  ///< ordering key: per-source sequence
    Msg msg{};

    SimEvent(SimEventKind k, CoreId t, BlockAddr b) : kind(k), tile(t), block(b) {}
    SimEvent(SimEventKind k, const Msg &m) : kind(k), msg(m) {}

    /** Strict weak order of same-cycle events. */
    static bool
    keyLess(const SimEvent &a, const SimEvent &b)
    {
        return a.src != b.src ? a.src < b.src : a.seq < b.seq;
    }
};

// Every queue push, sort and dispatch copies events: keep them plain
// bytes, and no larger than the key, the routing fields and one Msg.
static_assert(std::is_trivially_copyable_v<SimEvent>);
static_assert(sizeof(SimEvent) == 96, "SimEvent grew");

/** Interface to the surrounding machine (clock, transport, mapping). */
class Fabric
{
  public:
    virtual ~Fabric() = default;

    /** @return current simulated cycle. */
    virtual Cycle now() const = 0;

    /**
     * Send a protocol message. Same-tile messages take a fixed local
     * hop; cross-tile messages ride the interconnect.
     */
    virtual void send(Msg m) = 0;

    /** Run event @p ev after @p delay cycles (delay >= 1). */
    virtual void scheduleEvent(SimEvent ev, Cycle delay) = 0;

    /** @return the machine configuration. */
    virtual const MachineConfig &config() const = 0;

    /** @return L2 group a tile's core belongs to. */
    virtual GroupId groupOfTile(CoreId tile) const = 0;

    /** @return tile holding group @p g's bank for @p block. */
    virtual CoreId bankTileFor(GroupId g, BlockAddr block) const = 0;

    /** @return tile whose directory slice is home for @p block. */
    virtual CoreId homeTileFor(BlockAddr block) const = 0;

    /** @return tile of the memory controller serving @p block. */
    virtual CoreId memTileFor(BlockAddr block) const = 0;

    /** @return VM that owns @p block (address-partitioned). */
    virtual VmId vmOfBlock(BlockAddr block) const = 0;

    /**
     * Fault injection: extra DRAM latency in force this cycle. The
     * memory controllers add this on top of the configured access
     * latency; nonzero only while a `memburst` fault is active.
     */
    virtual Cycle memFaultExtraLatency() const { return 0; }

    // --- per-VM QoS hooks (defaults = no enforcement, so mock
    // --- fabrics and QoS-off runs behave exactly as before) ---

    /**
     * L2 way-partitioning mask for @p vm: bit i set = way i may hold
     * the VM's fills. All-ones (the default) disables partitioning;
     * masks only govern victim selection and fills, never invalidate
     * resident lines (CAT semantics). The System recomputes the
     * protected slice at dynamic-repartition epochs, so callers must
     * re-query per fill rather than cache the mask.
     */
    virtual std::uint64_t
    qosWayMask(VmId vm) const
    {
        (void)vm;
        return ~0ull;
    }

    /** A memory-controller access by @p vm was deferred to the next
     *  token window (bandwidth throttling). */
    virtual void qosRecordThrottleStall(VmId vm) { (void)vm; }

    // --- per-VM statistic hooks (driven by the controllers) ---

    /** An access reached the VM's last-level cache. */
    virtual void recordL2Access(VmId vm) = 0;

    /** An LLC miss was resolved (data came from off-partition). */
    virtual void recordL2Miss(VmId vm, bool c2c, bool c2c_dirty) = 0;

    /** A miss to the last private level (L1) completed. */
    virtual void recordL1Miss(VmId vm, Cycle latency) = 0;

    /** A workload transaction committed on some core. */
    virtual void recordTransaction(VmId vm) = 0;

    /** A core retired instructions for a VM. */
    virtual void recordInstructions(VmId vm, std::uint64_t n) = 0;
};

} // namespace consim

#endif // CONSIM_COHERENCE_FABRIC_HH
