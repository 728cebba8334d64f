#include "coherence/memory_controller.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/logging.hh"

namespace consim
{

MemoryController::MemoryController(Fabric &fabric, CoreId tile)
    : fab_(fabric), tile_(tile)
{
    statsGroup_.add("reads", &reads);
    statsGroup_.add("writes", &writes);
    statsGroup_.add("queue_delay", &queueDelay);
}

void
MemoryController::setQos(VmId protected_vm, int num_vms,
                         std::uint64_t tokens, Cycle refill_cycles)
{
    if (tokens == 0) { // disable
        qosProtectedVm_ = invalidVm;
        qosTokens_ = 0;
        qosRefill_ = 1;
        buckets_.clear();
        return;
    }
    CONSIM_ASSERT(num_vms > 0 && refill_cycles >= 1,
                  "bad MC QoS parameters");
    qosProtectedVm_ = protected_vm;
    qosTokens_ = tokens;
    qosRefill_ = refill_cycles;
    buckets_.assign(static_cast<std::size_t>(num_vms),
                    TokenBucket{});
}

Cycle
MemoryController::throttleDelay(VmId vm, Cycle now)
{
    if (buckets_.empty() || vm == qosProtectedVm_ || vm < 0 ||
        static_cast<std::size_t>(vm) >= buckets_.size()) {
        return 0;
    }
    TokenBucket &b = buckets_[static_cast<std::size_t>(vm)];
    const std::uint64_t w = now / qosRefill_;
    if (b.window != w) {
        // Lazy refill: the first access of a new window resets the
        // bucket, so idle VMs carry no stale state.
        b.window = w;
        b.tokens = qosTokens_;
        b.issued = 0;
    }
    if (b.tokens == 0) {
        // Out of budget: pay latency until the next window opens, and
        // spend that window's first token now (so a storm of waiters
        // cannot all issue at the boundary for free).
        const Cycle delay = (w + 1) * qosRefill_ - now;
        b.window = w + 1;
        b.tokens = qosTokens_ - 1;
        b.issued = 1;
        return delay;
    }
    --b.tokens;
    ++b.issued;
    if (CONSIM_CHECK_ACTIVE(Full) && b.issued > qosTokens_) {
        CONSIM_CHECK_FAIL("MC ", tile_, ": VM ", vm, " issued ",
                          b.issued, " reads in one window (cap ",
                          qosTokens_, ") — token bucket leaked");
    }
    return 0;
}

void
MemoryController::handle(const Msg &msg)
{
    const Cycle now = fab_.now();
    const Cycle start = std::max(now, nextFree_);
    nextFree_ = start + fab_.config().memIssueInterval;
    queueDelay.sample(static_cast<double>(start - now));

    if (msg.type == MsgType::MemWrite) {
        // Writebacks are absorbed; no reply needed.
        ++writes;
        return;
    }

    CONSIM_ASSERT(msg.type == MsgType::MemRead,
                  "MC got ", toString(msg.type));
    ++reads;
    ++outstanding_;

    // QoS: an unprotected VM whose token bucket ran dry waits for the
    // next refill window. The wait is charged as extra access latency
    // rather than by advancing nextFree_, so a throttled bully never
    // head-of-line blocks the protected VM's reads on this channel.
    const Cycle throttle = throttleDelay(msg.vm, start);
    if (throttle > 0)
        fab_.qosRecordThrottleStall(msg.vm);

    const int access_latency = msg.overlappedFetch
                                   ? fab_.config().memOverlapLatency
                                   : fab_.config().memLatency;
    // Fault injection: an active memburst fault stretches DRAM
    // accesses issued during its window.
    const Cycle done = (start - now) + throttle +
                       static_cast<Cycle>(access_latency) +
                       fab_.memFaultExtraLatency();
    Msg reply = msg;
    reply.type = MsgType::Data;
    reply.srcTile = tile_;
    reply.srcUnit = Unit::Mem;
    reply.dstTile = msg.reqBankTile;
    reply.dstUnit = Unit::L2Bank;
    reply.c2cTransfer = false;
    reply.dirtyData = false;
    fab_.scheduleEvent(SimEvent(SimEventKind::MemDone, reply), done);
}

void
MemoryController::finishAccess(const Msg &reply)
{
    --outstanding_;
    fab_.send(reply);
}

} // namespace consim
