/**
 * @file
 * Shared test double: a hand-cranked Fabric that records every sent
 * message and runs scheduled events on demand, plus helpers to
 * inspect the traffic. Used by the coherence unit test suites.
 */

#ifndef CONSIM_TESTS_MOCK_FABRIC_HH
#define CONSIM_TESTS_MOCK_FABRIC_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "coherence/directory.hh"
#include "coherence/fabric.hh"
#include "coherence/l2_bank.hh"
#include "coherence/memory_controller.hh"

namespace consim
{

/**
 * A hand-cranked Fabric: records sends and queues scheduled events,
 * running them in (cycle, scheduling order) on demand. Each event is
 * dispatched to the unit the fixture attached, through the same
 * entry point System::execEvent calls.
 */
class MockFabric : public Fabric
{
  public:
    MockFabric() { cfg_.validate(); }

    Cycle now() const override { return now_; }

    void send(Msg m) override { sent.push_back(std::move(m)); }

    void
    scheduleEvent(SimEvent ev, Cycle delay) override
    {
        events_.push({now_ + delay, seq_++, ev});
    }

    /** Dispatch events of the unit under test to @p u. */
    void attach(L2Bank &u) { bank_ = &u; }
    void attach(DirectorySlice &u) { dir_ = &u; }
    void attach(MemoryController &u) { mc_ = &u; }

    const MachineConfig &config() const override { return cfg_; }

    GroupId groupOfTile(CoreId tile) const override
    {
        return cfg_.groupOfCore(tile);
    }

    CoreId
    bankTileFor(GroupId g, BlockAddr block) const override
    {
        const auto members = cfg_.coresOfGroup(g);
        return members[block % members.size()];
    }

    CoreId homeTileFor(BlockAddr) const override { return 0; }
    CoreId memTileFor(BlockAddr) const override { return 15; }

    VmId vmOfBlock(BlockAddr block) const override
    {
        return static_cast<VmId>(block >> vmSpanBits);
    }

    void recordL2Access(VmId) override { ++l2Accesses; }
    void
    recordL2Miss(VmId, bool c2c, bool dirty) override
    {
        ++l2Misses;
        if (c2c)
            ++(dirty ? c2cDirty : c2cClean);
    }
    void
    recordL1Miss(VmId, Cycle lat) override
    {
        ++l1Misses;
        lastMissLatency = lat;
    }
    void recordTransaction(VmId) override { ++transactions; }
    void recordInstructions(VmId, std::uint64_t n) override
    {
        instructions += n;
    }

    /** Advance until all scheduled events have run. */
    void
    drainEvents(Cycle max_cycles = 10'000)
    {
        const Cycle end = now_ + max_cycles;
        while (!events_.empty() && now_ < end) {
            now_ = std::max(now_ + 1, events_.top().when);
            runDue();
        }
    }

    /** Advance the clock @p cycles cycles, running the events due on
     *  the way. */
    void
    advance(Cycle cycles)
    {
        const Cycle end = now_ + cycles;
        while (!events_.empty() && events_.top().when <= end) {
            now_ = events_.top().when;
            runDue();
        }
        now_ = end;
    }

    /** @return sent messages of one type. */
    std::vector<Msg>
    ofType(MsgType t) const
    {
        std::vector<Msg> out;
        for (const auto &m : sent) {
            if (m.type == t)
                out.push_back(m);
        }
        return out;
    }

    MachineConfig cfg_;
    std::vector<Msg> sent;

    // recorded stats hooks
    int l2Accesses = 0;
    int l2Misses = 0;
    int c2cClean = 0;
    int c2cDirty = 0;
    int l1Misses = 0;
    int transactions = 0;
    std::uint64_t instructions = 0;
    Cycle lastMissLatency = 0;

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        SimEvent ev;
        bool operator>(const Event &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    /** Run every event due at or before now_, in order. */
    void
    runDue()
    {
        while (!events_.empty() && events_.top().when <= now_) {
            const SimEvent ev = events_.top().ev;
            events_.pop();
            exec(ev);
        }
    }

    void
    exec(const SimEvent &ev)
    {
        switch (ev.kind) {
          case SimEventKind::BankDispatch:
            ASSERT_NE(bank_, nullptr) << "no L2Bank attached";
            bank_->dispatchLocal(ev.block);
            break;
          case SimEventKind::BankFillRetry:
            ASSERT_NE(bank_, nullptr) << "no L2Bank attached";
            bank_->fillRetry(ev.block);
            break;
          case SimEventKind::DirProcess:
            ASSERT_NE(dir_, nullptr) << "no DirectorySlice attached";
            dir_->process(ev.block);
            break;
          case SimEventKind::MemDone:
            ASSERT_NE(mc_, nullptr) << "no MemoryController attached";
            mc_->finishAccess(ev.msg);
            break;
          default:
            FAIL() << "unit scheduled a System-only event kind "
                   << static_cast<int>(ev.kind);
        }
    }

    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    L2Bank *bank_ = nullptr;
    DirectorySlice *dir_ = nullptr;
    MemoryController *mc_ = nullptr;
};

} // namespace consim

#endif // CONSIM_TESTS_MOCK_FABRIC_HH
