/**
 * @file
 * Memory controller: terminates MemRead/MemWrite messages from the
 * directory slices. Models the paper's flat 150-cycle off-chip
 * latency plus a simple bandwidth constraint (one access may start
 * every memIssueInterval cycles per controller), so that miss storms
 * in consolidated mixes queue at the controllers like the paper's
 * discussion of memory-controller pressure describes.
 */

#ifndef CONSIM_COHERENCE_MEMORY_CONTROLLER_HH
#define CONSIM_COHERENCE_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "coherence/fabric.hh"
#include "coherence/protocol.hh"
#include "common/stats.hh"

namespace consim
{

/** One off-chip memory channel, attached to a mesh tile. */
class MemoryController
{
  public:
    /**
     * @param fabric surrounding machine
     * @param tile   mesh tile this controller is attached to
     */
    MemoryController(Fabric &fabric, CoreId tile);

    /** Handle a MemRead or MemWrite. */
    void handle(const Msg &msg);

    /**
     * Per-VM QoS bandwidth throttling: every unprotected VM may issue
     * at most @p tokens reads per @p refill_cycles window on this
     * controller. A read arriving with an empty bucket is delayed to
     * the start of the next window (the added wait shows up as DRAM
     * latency, so the channel itself never head-of-line blocks the
     * protected VM). @p protected_vm is exempt; @p tokens == 0
     * disables throttling entirely.
     */
    void setQos(VmId protected_vm, int num_vms, std::uint64_t tokens,
                Cycle refill_cycles);

    /** MemDone event entry point: complete an access by sending
     *  @p reply (a fully-formed Data message) back toward the
     *  requester. */
    void finishAccess(const Msg &reply);

    /** @return true when no access is outstanding. */
    bool idle() const { return outstanding_ == 0; }

    /** @return in-flight reads (diagnostics). */
    int outstandingReads() const { return outstanding_; }

    /** @return earliest cycle the channel can issue (diagnostics). */
    Cycle nextFree() const { return nextFree_; }

    /** @return the mesh tile this controller sits on. */
    CoreId tile() const { return tile_; }

    /** Statistics. */
    stats::Counter reads;
    stats::Counter writes;
    stats::Average queueDelay;  ///< cycles a request waited to issue

    /** Registry node ("mc") holding this controller's stats. */
    stats::Group &statsGroup() { return statsGroup_; }

  private:
    /** Checkpoint layer reads raw state. */
    friend struct CkptAccess;

    /** One VM's read-bandwidth allowance on this controller. */
    struct TokenBucket
    {
        std::uint64_t window = 0; ///< last window index observed
        std::uint64_t tokens = 0; ///< reads left in that window
        std::uint64_t issued = 0; ///< reads issued in that window
    };

    /** @return extra cycles a read for @p vm must wait for a token
     *  (0 when QoS is off or the bucket still has budget). */
    Cycle throttleDelay(VmId vm, Cycle now);

    Fabric &fab_;
    CoreId tile_;
    Cycle nextFree_ = 0;   ///< earliest cycle the channel can issue
    int outstanding_ = 0;
    // QoS token-bucket state (empty vector = throttling off).
    VmId qosProtectedVm_ = invalidVm;
    std::uint64_t qosTokens_ = 0;
    Cycle qosRefill_ = 1;
    std::vector<TokenBucket> buckets_;
    stats::Group statsGroup_{"mc"};
};

} // namespace consim

#endif // CONSIM_COHERENCE_MEMORY_CONTROLLER_HH
