/**
 * @file
 * Unit tests for the calendar-queue event core: (when, src, seq)
 * ordering, scheduling-order tie-break among same-cycle events of one
 * source, the overflow-heap path for delays beyond the bucket ring,
 * and the zero-delay guard.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/event_queue.hh"

namespace consim
{
namespace
{

/** An event carrying test id @p id in its block field. */
SimEvent
idEvent(int id)
{
    return SimEvent(SimEventKind::BankDispatch, 0,
                    static_cast<BlockAddr>(id));
}

/**
 * Drive the queue one cycle at a time, recording event firings
 * through an executor. The harness is one key source: it numbers its
 * events itself, as a System source does, so same-cycle events run
 * in scheduling order.
 */
struct Harness
{
    CalendarQueue q;
    Cycle now = 0;
    std::uint64_t seq = 0;
    std::vector<int> fired;
    /** Called after each firing; may schedule more events. */
    std::function<void(int)> onFire;

    void
    at(Cycle delay, int id)
    {
        SimEvent ev = idEvent(id);
        ev.src = 0;
        ev.seq = seq++;
        q.schedule(now, delay, ev);
    }

    /** Tick through cycle `now`..`upto` inclusive. */
    void
    runTo(Cycle upto)
    {
        for (; now <= upto; ++now) {
            q.runDue(now, [this](const SimEvent &ev) {
                const int id = static_cast<int>(ev.block);
                fired.push_back(id);
                if (onFire)
                    onFire(id);
            });
        }
    }
};

TEST(CalendarQueue, RunsEventsAtTheirCycleInDelayOrder)
{
    Harness h;
    h.at(6, 2);
    h.at(1, 0);
    h.at(3, 1);
    h.at(150, 3);
    EXPECT_EQ(h.q.size(), 4u);
    h.runTo(200);
    EXPECT_EQ(h.fired, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_TRUE(h.q.empty());
}

TEST(CalendarQueue, SameCycleEventsRunFifoBySchedulingOrder)
{
    Harness h;
    for (int i = 0; i < 16; ++i)
        h.at(5, i);
    h.runTo(5);
    ASSERT_EQ(h.fired.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(h.fired[i], i);
}

TEST(CalendarQueue, LongDelaysTakeTheOverflowHeap)
{
    Harness h;
    // All at or beyond the ring horizon.
    h.at(CalendarQueue::ringCycles, 0);
    h.at(CalendarQueue::ringCycles + 1, 1);
    h.at(3 * CalendarQueue::ringCycles, 2);
    h.runTo(3 * CalendarQueue::ringCycles + 1);
    EXPECT_EQ(h.fired, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(h.q.empty());
}

TEST(CalendarQueue, OverflowAndRingEventsMergeInSeqOrderPerCycle)
{
    Harness h;
    const Cycle meet = CalendarQueue::ringCycles + 64;
    // seq 0: long delay -> overflow heap, due at `meet`.
    h.at(meet, 0);
    // Advance, then schedule short delays due the same cycle; they
    // land in the ring with higher seq, so they must run after.
    h.runTo(meet - 11);
    ASSERT_EQ(h.now, meet - 10);
    h.at(10, 1);
    h.at(10, 2);
    h.runTo(meet);
    EXPECT_EQ(h.fired, (std::vector<int>{0, 1, 2}));
}

TEST(CalendarQueue, OverflowHeapOrdersByWhenThenSeq)
{
    Harness h;
    h.at(2000, 3);
    h.at(1000, 1);
    h.at(1000, 2); // same when as id 1, later seq
    h.at(500, 0);
    h.runTo(2000);
    EXPECT_EQ(h.fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CalendarQueue, EventsMayScheduleMoreEvents)
{
    Harness h;
    h.onFire = [&h](int id) {
        if (id != 0)
            return;
        // Reentrant schedules from inside runDue, one short (ring)
        // and one long (overflow).
        h.at(2, 1);
        h.at(CalendarQueue::ringCycles + 5, 2);
    };
    h.at(1, 0);
    h.runTo(CalendarQueue::ringCycles + 10);
    EXPECT_EQ(h.fired, (std::vector<int>{0, 1, 2}));
    EXPECT_TRUE(h.q.empty());
}

TEST(CalendarQueue, SizeTracksPendingEvents)
{
    Harness h;
    EXPECT_TRUE(h.q.empty());
    h.at(1, 0);
    h.at(2, 1);
    h.at(5000, 2);
    EXPECT_EQ(h.q.size(), 3u);
    h.runTo(2);
    EXPECT_EQ(h.q.size(), 1u);
    h.runTo(5000);
    EXPECT_TRUE(h.q.empty());
}

TEST(CalendarQueue, SameCycleEventsRunInKeyOrderNotInsertionOrder)
{
    // Keys, not insertion order, decide a cycle's order: src first,
    // then seq within a source.
    CalendarQueue q;
    const std::int32_t srcs[] = {2, 0, 1, 0};
    const std::uint64_t seqs[] = {0, 7, 3, 5};
    for (int i = 0; i < 4; ++i) {
        SimEvent ev = idEvent(i);
        ev.src = srcs[i];
        ev.seq = seqs[i];
        q.schedule(0, 4, ev);
    }
    std::vector<int> fired;
    for (Cycle c = 0; c <= 4; ++c)
        q.runDue(c, [&](const SimEvent &ev) {
            fired.push_back(static_cast<int>(ev.block));
        });
    EXPECT_EQ(fired, (std::vector<int>{3, 1, 2, 0}));
}

TEST(CalendarQueueDeathTest, ZeroDelayIsForbidden)
{
    CalendarQueue q;
    EXPECT_DEATH(q.schedule(10, 0, idEvent(0)), "zero-delay");
}

} // namespace
} // namespace consim
