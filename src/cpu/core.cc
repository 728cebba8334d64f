#include "cpu/core.hh"

#include "common/logging.hh"

namespace consim
{

Core::Core(Fabric &fabric, CoreId tile, L1Controller &l1, TileCalendar &wake)
    : fab_(fabric), tile_(tile), l1_(l1), wake_(wake)
{
    l1_.setMissCallback([this] { missComplete(); });
    stats_.registerIn(statsGroup_);
}

void
Core::bindThread(InstrStream *stream, VmId vm)
{
    bind(stream, vm);
    arm(fab_.now());
}

void
Core::bind(InstrStream *stream, VmId vm)
{
    CONSIM_ASSERT(!blocked_, "rebinding a blocked core");
    stream_ = stream;
    vm_ = stream ? vm : invalidVm;
    haveSlice_ = false;
    busyUntil_ = 0;
}

void
Core::enqueueContext(InstrStream *stream, VmId vm)
{
    CONSIM_ASSERT(stream != nullptr, "enqueueContext wants a stream");
    contexts_.push_back({stream, vm});
    if (contexts_.size() == 1)
        bindThread(stream, vm);
}

void
Core::scheduleRebind(InstrStream *stream, VmId vm)
{
    CONSIM_ASSERT(!wedged_, "migrating a wedged core");
    CONSIM_ASSERT(!multiplexed(), "migrating a time-sliced core");
    rebindPending_ = true;
    rebindStream_ = stream;
    rebindVm_ = vm;
    arm(fab_.now());
}

void
Core::installRebind(Cycle now)
{
    rebindPending_ = false;
    bind(rebindStream_, rebindVm_);
    rebindStream_ = nullptr;
    rebindVm_ = invalidVm;
    // One dead cycle for the context switch: the incoming thread
    // starts fetching on the next tick, never the install tick.
    busyUntil_ = now + 1;
}

void
Core::rotateContext(Cycle now)
{
    // Boundaries are absolute multiples of the quantum, so a resumed
    // run preempts on the same cycles as the original.
    nextSlice_ = (now / timeslice_ + 1) * timeslice_;
    ctxPos_ = (ctxPos_ + 1) % contexts_.size();
    bind(contexts_[ctxPos_].stream, contexts_[ctxPos_].vm);
}

void
Core::step(Cycle now)
{
    // A deferred migration lands at the first clean instruction
    // boundary: never mid-miss (the fill retires against the old
    // binding first), never mid-slice. Deterministic in sim state,
    // so a resumed run installs on the same cycle.
    if (rebindPending_ && !blocked_ && !wedged_ && !haveSlice_ &&
        now >= busyUntil_)
        installRebind(now);
    if (stream_ == nullptr || blocked_ || wedged_)
        return;
    if (contexts_.size() > 1 && !haveSlice_ && now >= busyUntil_) {
        // Preempt only at clean instruction boundaries: never
        // mid-miss (blocked_ above), never mid-burst. A context
        // holding the core past its boundary yields at the first
        // boundary after it, which is deterministic in sim state.
        if (nextSlice_ == 0)
            nextSlice_ = (now / timeslice_ + 1) * timeslice_;
        else if (now >= nextSlice_)
            rotateContext(now);
    }
    if (now < busyUntil_)
        return;

    if (!haveSlice_) {
        slice_ = stream_->next();
        haveSlice_ = true;
        stats_.instructions += slice_.computeCycles + 1;
        retiredTotal_ += slice_.computeCycles + 1;
        fab_.recordInstructions(vm_, slice_.computeCycles + 1);
        if (slice_.computeCycles > 0) {
            busyUntil_ = now + slice_.computeCycles;
            return;
        }
    }

    if (slice_.noMemRef) {
        haveSlice_ = false;
        return;
    }

    // Compute burst done: issue the memory reference.
    ++stats_.memRefs;
    const AccessResult res = l1_.access(slice_.block, slice_.isWrite);
    if (res.hit) {
        busyUntil_ = now + res.latency;
        if (slice_.endsTransaction) {
            ++stats_.transactions;
            fab_.recordTransaction(vm_);
        }
        haveSlice_ = false;
    } else {
        blocked_ = true;
        blockStart_ = now;
    }
}

void
Core::missComplete()
{
    CONSIM_ASSERT(blocked_, "fill callback while not blocked");
    blocked_ = false;
    const Cycle now = fab_.now();
    stats_.stallCycles += now - blockStart_;
    busyUntil_ = now + 1;
    if (slice_.endsTransaction) {
        ++stats_.transactions;
        fab_.recordTransaction(vm_);
    }
    haveSlice_ = false;
    // A fill lands in the event phase, before this cycle's cores.
    arm(now);
}

} // namespace consim
