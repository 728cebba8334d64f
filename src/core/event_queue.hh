/**
 * @file
 * CalendarQueue: the simulator's event core.
 *
 * Nearly every scheduled delay in the machine is a small constant
 * (1-cycle local hop, 3-cycle intra-group message, 6-cycle L2 access,
 * 2-cycle directory hit, 150-cycle DRAM access), so a generic binary
 * heap pays log(n) comparisons and cache misses for events that could
 * be bucketed directly by due cycle. The CalendarQueue keeps a ring
 * of per-cycle buckets covering the next `ringCycles` cycles; an
 * event with delay < ringCycles drops into bucket
 * `(now + delay) % ringCycles` in O(1). Rare longer delays (a backed
 * up memory controller, an oversized config) fall back to a binary
 * min-heap and are merged back when their cycle arrives.
 *
 * Ordering: events run in (when, src, seq) order — `src`/`seq` are
 * the per-source key carried inside each SimEvent (see fabric.hh),
 * assigned by the caller before the event is queued. runDue()
 * gathers a cycle's due events into its bucket, sorts them once by
 * key, and dispatches the whole batch in one tight loop, so ordering
 * is a function of the keys alone (not of insertion order) and the
 * dispatch loop amortizes the per-event bookkeeping.
 *
 * Events are SimEvents (see fabric.hh): plain data the checkpoint
 * layer can serialize. runDue() hands each due event to an executor
 * callback (the System's dispatch switch).
 *
 * The ring invariant requires runDue(now) to be called for every
 * cycle in ascending order (the System ticks every cycle, so this is
 * free); schedule() must never be handed a zero delay.
 */

#ifndef CONSIM_CORE_EVENT_QUEUE_HH
#define CONSIM_CORE_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coherence/fabric.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace consim
{

/** Bucket-ring event queue specialized for short constant delays. */
class CalendarQueue
{
  public:
    /** Ring span in cycles; must be a power of two and exceed the
     *  largest common delay (memLatency + margin). */
    static constexpr Cycle ringCycles = 256;

    /**
     * Schedule event @p ev (whose src/seq key the caller has already
     * assigned) to run @p delay cycles after @p now.
     */
    void
    schedule(Cycle now, Cycle delay, const SimEvent &ev)
    {
        CONSIM_ASSERT(delay >= 1, "zero-delay events are forbidden");
        insert(now, now + delay, ev);
    }

    /**
     * Run every event due at cycle @p now in (src, seq) order,
     * handing each to @p exec. Must be called once per cycle, cycles
     * ascending; events for a cycle that was skipped would otherwise
     * fire `ringCycles` late. Executors may schedule further events
     * (delay >= 1 puts them past this bucket) but must not insert
     * events due at @p now via insertAbs().
     */
    template <typename Exec>
    void
    runDue(Cycle now, Exec &&exec)
    {
        auto &bucket = ring_[now & mask_];
        // Pull due overflow events into the bucket, then one sort
        // puts the whole cycle into canonical key order.
        while (!overflow_.empty() && overflow_.front().when <= now) {
            CONSIM_ASSERT(overflow_.front().when == now,
                          "event missed its cycle");
            std::pop_heap(overflow_.begin(), overflow_.end(),
                          HeapEvent::later);
            bucket.push_back(overflow_.back().ev);
            overflow_.pop_back();
        }
        if (bucket.size() > 1)
            std::sort(bucket.begin(), bucket.end(), SimEvent::keyLess);
        // Batched dispatch: size_/executed_ are updated once and the
        // loop body is just the (inlined) executor call.
        size_ -= bucket.size();
        executed_ += bucket.size();
        for (const SimEvent &e : bucket)
            exec(e);
        bucket.clear();
    }

    /** @return number of pending events. */
    std::size_t size() const { return size_; }

    /** @return true when no events are pending. */
    bool empty() const { return size_ == 0; }

    /** Monotonic count of events executed (never reset; the
     *  forward-progress watchdog diffs it across its interval). */
    std::uint64_t executed() const { return executed_; }

    // --- checkpoint support ---

    /**
     * Walk every pending event as (when, event). @p now must be the
     * cycle runDue() would be called for next; the due cycle of ring
     * events is recovered from it (bucket index b holds the unique
     * cycle w in [now, now + ringCycles) with w % ring == b).
     */
    template <typename Fn>
    void
    forEachPending(Cycle now, Fn &&fn) const
    {
        for (Cycle b = 0; b < ringCycles; ++b) {
            const Cycle when = now + ((b - now) & mask_);
            for (const auto &e : ring_[b])
                fn(when, e);
        }
        for (const auto &e : overflow_)
            fn(e.when, e.ev);
    }

    /**
     * Insert an event due at an absolute cycle (>= @p now), its key
     * already assigned: checkpoint restore. Any insertion order
     * works — runDue() sorts.
     */
    void
    insertAbs(Cycle now, Cycle when, const SimEvent &ev)
    {
        CONSIM_ASSERT(when >= now, "restoring an overdue event");
        insert(now, when, ev);
    }

    void setExecuted(std::uint64_t e) { executed_ = e; }

    /**
     * Pre-size every ring bucket to @p per_bucket events (and give
     * the overflow heap a little slack). Buckets grow on demand
     * anyway; reserving from the machine config just moves the
     * growth out of the measurement window so warmed-up steady state
     * stays allocation-free.
     */
    void
    reserveBuckets(std::size_t per_bucket)
    {
        for (auto &b : ring_)
            b.reserve(per_bucket);
        overflow_.reserve(64);
    }

  private:
    static constexpr Cycle mask_ = ringCycles - 1;
    static_assert((ringCycles & mask_) == 0,
                  "ringCycles must be a power of two");

    struct HeapEvent
    {
        Cycle when;
        SimEvent ev;

        /** Min-heap comparator ("a due after b"). */
        static bool
        later(const HeapEvent &a, const HeapEvent &b)
        {
            if (a.when != b.when)
                return a.when > b.when;
            return SimEvent::keyLess(b.ev, a.ev);
        }
    };

    void
    insert(Cycle now, Cycle when, const SimEvent &ev)
    {
        if (when - now < ringCycles) {
            ring_[when & mask_].push_back(ev);
        } else {
            overflow_.push_back(HeapEvent{when, ev});
            std::push_heap(overflow_.begin(), overflow_.end(),
                           HeapEvent::later);
        }
        ++size_;
    }

    std::vector<SimEvent> ring_[ringCycles];
    std::vector<HeapEvent> overflow_; ///< min-heap via std heap ops
    std::size_t size_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace consim

#endif // CONSIM_CORE_EVENT_QUEUE_HH
