/**
 * @file
 * `consim.ckpt.v5` serializer: System::saveCheckpoint /
 * System::restoreCheckpoint, the field-list walkers and the
 * protocol-message codec. See checkpoint.hh for the document layout
 * and the byte-identity contract, DESIGN §8 for what restore checks.
 *
 * All component access goes through CkptAccess, the single friend
 * every stateful class declares. Each record is one field list, a
 * template over the walker and the record's constness; `if constexpr
 * (Io::loading)` guards the checks that relate decoded fields and the
 * steps that install them. Block-keyed maps are written sorted by
 * block, so one machine state always gives one text; cache arrays are
 * restored slot-index-exact, since victim() picks by slot order and
 * LRU stamp.
 */

#include "core/checkpoint.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "cache/cache_array.hh"
#include "coherence/directory.hh"
#include "coherence/l1_controller.hh"
#include "coherence/l2_bank.hh"
#include "coherence/memory_controller.hh"
#include "common/check.hh"
#include "common/stats.hh"
#include "core/system.hh"
#include "core/vm.hh"
#include "noc/mesh.hh"
#include "workload/generator.hh"

namespace consim
{

namespace ckpt
{

void
Save::put(const char *name, json::Value x)
{
    if (v.kind() == json::Value::Kind::Object)
        v.set(name, std::move(x));
    else
        v.push(std::move(x));
}

Load::Load(const json::Value &v, const char *refusal, const Load *outer,
           const char *name, bool keyed)
    : v_(v), refusal_(refusal), outer_(outer), name_(name),
      idx_(outer ? outer->pos_ - 1 : 0)
{
    if (v.kind() != (keyed ? json::Value::Kind::Object
                           : json::Value::Kind::Array))
        refuse(nullptr, keyed ? "is not an object" : "is not an array");
}

const json::Value &
Load::member(std::string_view name)
{
    const json::Value *p = v_.find(name);
    if (p == nullptr)
        refuse(std::string(name).c_str(), "is missing");
    return *p;
}

const json::Value &
Load::next(const char *name)
{
    if (v_.kind() == json::Value::Kind::Object)
        return member(name);
    if (pos_ >= v_.size())
        refuse(name, "is missing (", v_.size(), " fields)");
    return v_.at(pos_++);
}

void
Load::done() const
{
    if (v_.kind() == json::Value::Kind::Array && pos_ != v_.size())
        refuse(nullptr, "has ", v_.size(), " fields, want ", pos_);
}

std::string
Load::path() const
{
    if (outer_ == nullptr)
        return name_;
    const std::string p = outer_->path();
    if (*name_)
        return p.empty() ? name_ : p + "." + name_;
    return p + "[" + std::to_string(idx_) + "]";
}

void
Load::fail(const char *field, const std::string &detail) const
{
    std::string where = path();
    if (field && *field)
        where += (where.empty() ? "" : ".") + std::string(field);
    else if (field)
        where += "[" + std::to_string(pos_ - 1) + "]";
    logging::invariantFailImpl(
        __FILE__, __LINE__,
        logging::format(refusal_, " (", where, " ", detail, ")"));
}

const json::Value &
Load::of(const char *name, const json::Value &f, json::Value::Kind k,
         const char *what) const
{
    if (f.kind() != k)
        refuse(name, "is not ", what);
    return f;
}

std::uint64_t
Load::integer(const char *name, const json::Value &f, Dom d) const
{
    if (f.kind() != json::Value::Kind::Uint &&
        f.kind() != json::Value::Kind::Int)
        refuse(name, "is not an integer");
    // A Uint above INT64_MAX fits an unbounded unsigned domain alone;
    // an Int (negative, or an in-memory edit) hands its int64 back
    // bit for bit.
    const std::uint64_t u = f.asUint();
    const auto x = static_cast<std::int64_t>(u);
    const bool big = f.kind() == json::Value::Kind::Uint && x < 0;
    if (big ? d.lo < 0 || d.hi != unbounded : x < d.lo || x > d.hi)
        refuse(name, f.dump(), " outside ", d.lo, "..", d.hi);
    return u;
}

double
Load::real(const char *name, const json::Value &f) const
{
    if (!f.isNumber())
        refuse(name, "is not a number");
    const double x = f.number();
    if (!std::isfinite(x) || x < 0)
        refuse(name, f.dump(), " is not a finite number from 0");
    return x;
}

CoreSet
Load::wordSet(const char *name, const json::Value &f, Dom d) const
{
    std::vector<std::uint64_t> words;
    for (const json::Value &w : of(name, f, json::Value::Kind::Array,
                                   "an array").items()) {
        if (w.kind() != json::Value::Kind::Uint)
            refuse(name, "holds a word that is not a non-negative integer");
        words.push_back(w.asUint());
    }
    const CoreSet s = CoreSet::fromWords(words);
    s.forEachSet([&](int bit) {
        if (bit < d.lo || bit > d.hi)
            refuse(name, "bit ", bit, " outside ", d.lo, "..", d.hi);
    });
    return s;
}

} // namespace ckpt

namespace
{

using ckpt::below;
using ckpt::belowOrNone;
using ckpt::Dom;

/** @return the unit a message of type @p t is bound for (its
 *  handler's switch panics on any other type). */
Unit
destOf(MsgType t)
{
    using enum Unit;
    static constexpr Unit dest[] = {
        L2Bank, L2Bank, L2Bank, L1,     L1,     L1,   L2Bank, L2Bank, // L1*
        Dir,    Dir,    Dir,    Dir,    L2Bank, L2Bank, L2Bank,       // GetS..
        L2Bank, L2Bank, Dir,    Dir,    L2Bank, Dir,                  // Data..
        Mem,    Mem};                                                 // Mem*
    static_assert(std::size(dest) ==
                  static_cast<std::size_t>(MsgType::MemWrite) + 1);
    return dest[static_cast<std::size_t>(t)];
}

/** @return true when @p m is an operation @p unit (a bank of the
 *  cores @p members, or a directory slice) queues and tracks per
 *  block, naming its requester: an L1 request a member core, a Get
 *  or a forward the requesting group and bank, a Put its group. */
bool
operation(Unit unit, const Msg &m, const std::vector<CoreId> &members)
{
    using enum MsgType;
    const MsgType t = m.type;
    const bool from = m.reqGroup >= 0 && m.reqBankTile >= 0;
    if (unit == Unit::Dir)
        return ((t == GetS || t == GetM) && from) ||
               ((t == PutS || t == PutM) && m.reqGroup >= 0);
    if (t == L1GetS || t == L1GetM)
        return std::find(members.begin(), members.end(), m.reqCore) !=
               members.end();
    return (t == FwdGetS || t == FwdGetM || t == Inv) && from;
}

/** The machine counts a message's fields are bounded by. */
struct Shape
{
    int cores;
    int groups;
    int vms;
};

/** The protocol message, positional (20 fields). */
template <typename Io, typename M>
void
msgFields(Io &io, M &m, const Shape &sh)
{
    io("type", m.type, ckpt::span(MsgType::L1GetS, MsgType::MemWrite));
    io("block", m.block);
    io("srcTile", m.srcTile, belowOrNone(sh.cores));
    io("dstTile", m.dstTile, belowOrNone(sh.cores));
    io("srcUnit", m.srcUnit, ckpt::span(Unit::L1, Unit::Mem));
    io("dstUnit", m.dstUnit, ckpt::span(Unit::L1, Unit::Mem));
    io("reqCore", m.reqCore, belowOrNone(sh.cores));
    io("reqBankTile", m.reqBankTile, belowOrNone(sh.cores));
    io("reqGroup", m.reqGroup, belowOrNone(sh.groups));
    io("vm", m.vm, belowOrNone(sh.vms));
    io("isWrite", m.isWrite);
    io("dirtyData", m.dirtyData);
    io("noDataNeeded", m.noDataNeeded);
    io("c2cTransfer", m.c2cTransfer);
    io("stale", m.stale);
    io("toInvalid", m.toInvalid);
    io("overlappedFetch", m.overlappedFetch);
    // A Grant installs its state, so it grants S, E or M.
    io("grantState", m.grantState,
       ckpt::span(m.type == MsgType::Grant ? L2State::Shared
                                           : L2State::Invalid,
                  L2State::Modified));
    io("ackCount", m.ackCount);
    io("injectCycle", m.injectCycle);
}

/** @return the field list of a message on machine @p sh. */
auto
msgs(const Shape &sh)
{
    return [&sh](auto &io, auto &m) { msgFields(io, m, sh); };
}

/** List items that are plain values of their type. */
constexpr auto values = [](auto &io, auto &x, std::size_t) { io("", x); };

constexpr const char *badLine = "checkpoint: bad cache line record";

} // namespace

void
checkCkptSchema(const json::Value &doc)
{
    const check::InputScope input;
    const json::Value *schema = doc.find("schema");
    CONSIM_ASSERT(schema != nullptr &&
                      schema->str() == "consim.ckpt.v5",
                  "not a consim.ckpt.v5 document (v1 checkpoints "
                  "predate per-source event keys; v2 checkpoints "
                  "encode sharer/presence state as fixed 16-bit "
                  "masks, which the parametric scale model replaced "
                  "with variable-width word arrays; v3 snapshots "
                  "lack the QoS runtime state — per-VM memory-"
                  "controller token buckets and the dynamic "
                  "repartitioner's way allocation; v4 snapshots "
                  "lack the migration-policy runtime state — the "
                  "dynamic scheduler's epoch baselines and migration "
                  "count — so none can be restored; re-run the "
                  "original configuration to take a fresh snapshot)");
}

const json::Value &
ckptField(const json::Value &obj, std::string_view key)
{
    return ckpt::Load(obj, "checkpoint: bad document", "", true)
        .member(key);
}

json::Value
msgToJson(const Msg &m)
{
    ckpt::Save io;
    msgFields(io, m, Shape{});
    return std::move(io.v);
}

Msg
msgFromJson(const json::Value &v)
{
    constexpr int most = std::numeric_limits<std::int32_t>::max();
    ckpt::Load io(v, "checkpoint: bad message record");
    Msg m;
    msgFields(io, m, Shape{most, most, most});
    return m;
}

struct CkptAccess
{
    /** Refuse message @p m unless its destination unit exists and
     *  takes its type, and its block lies in a VM's window. */
    static void
    arriving(const System &s, const Msg &m, const char *refusal)
    {
        CONSIM_ASSERT(m.dstUnit == destOf(m.type) && m.dstTile >= 0 &&
                          (m.dstUnit != Unit::Mem ||
                           s.mcIndexOfTile_[m.dstTile] >= 0) &&
                          s.dirStorage_.inWindow(m.block),
                      refusal, " (", describe(m), ")");
    }

    // --- cache arrays: num_lines, the last LRU stamp handed out, and
    // [slot, block, lru, payload...] per held slot in slot order ---

    template <typename LineT>
    struct Held
    {
        std::uint64_t slot = 0;
        BlockAddr block = 0;
        std::uint64_t lru = 0;
        LineT line{};
    };

    /** Restore refuses a slot outside its block's set (lookup() would
     *  never find the line), a slot listed twice and a stamp the array
     *  never handed out. */
    template <typename Io, typename A, typename P>
    static void
    cacheArray(Io &io, A &a, P &&payload)
    {
        using LineT = std::decay_t<decltype(a.lines_[0])>;
        const auto n = static_cast<std::int64_t>(a.key_.size());
        std::uint64_t num_lines = a.key_.size();
        io("num_lines", num_lines, Dom{n, n});
        io("stamp", a.stamp_);
        std::vector<Held<LineT>> held;
        if constexpr (!Io::loading) {
            for (std::size_t i = 0; i < a.key_.size(); ++i)
                if (a.key_[i] != 0)
                    held.push_back({i, a.key_[i] - 1, a.lru_[i], a.lines_[i]});
        }
        io.list("lines", held, [&](auto &io, Held<LineT> &h, std::size_t) {
            io.record("", h, [&](auto &io, Held<LineT> &h) {
                io("slot", h.slot, below(n));
                io("block", h.block);
                io("lru", h.lru);
                payload(io, h.line);
            });
        });
        if constexpr (Io::loading) {
            for (const Held<LineT> &h : held) {
                const auto [begin, end] = a.setRange(h.block);
                CONSIM_ASSERT(h.block + 1 != 0 && h.slot >= begin &&
                                  h.slot < end && a.key_[h.slot] == 0 &&
                                  h.lru != 0 && h.lru <= a.stamp_,
                              badLine, " (slot ", h.slot, " of block ",
                              h.block, " with stamp ", h.lru, ")");
                a.key_[h.slot] = h.block + 1;
                a.lru_[h.slot] = h.lru;
                a.lines_[h.slot] = h.line;
            }
        }
    }

    /** An L1 line is Shared or Modified; an L0 line carries no state
     *  of its own (its L1 line does), only the Invalid install()
     *  writes. */
    template <typename Io, typename A>
    static void
    privArray(Io &io, A &a, L1State lo, L1State hi)
    {
        cacheArray(io, a, [&](auto &io, auto &line) {
            io("state", line.state, ckpt::span(lo, hi));
        });
    }

    // --- event queue ---

    struct Pending
    {
        Cycle when = 0;
        SimEvent ev{SimEventKind::Deliver, invalidCore, 0};
    };

    template <typename Io, typename S>
    static void
    events(Io &io, S &s, const Shape &sh)
    {
        const char *refusal = "checkpoint: bad event record";
        io.each("seq_by_src", s.seqBySrc_, values);
        std::uint64_t executed = s.events_.executed();
        io("executed", executed);
        std::vector<Pending> pending;
        if constexpr (!Io::loading) {
            s.events_.forEachPending(
                s.now_, [&](Cycle when, const SimEvent &ev) {
                    pending.push_back({when, ev});
                });
            // Canonical (when, src, seq) order.
            std::sort(pending.begin(), pending.end(),
                      [](const Pending &a, const Pending &b) {
                          return a.when != b.when
                                     ? a.when < b.when
                                     : SimEvent::keyLess(a.ev, b.ev);
                      });
        }
        const Dom due{static_cast<std::int64_t>(s.now_), ckpt::unbounded};
        io.list("pending", pending, [&](auto &io, Pending &p, std::size_t) {
            io.record("", p, [&](auto &io, Pending &p) {
                io("when", p.when, due);
                io("src", p.ev.src,
                   below(static_cast<std::int64_t>(s.seqBySrc_.size())));
                io("seq", p.ev.seq);
                io("kind", p.ev.kind,
                   ckpt::span(SimEventKind::Deliver, SimEventKind::NetDeliver));
                io("tile", p.ev.tile, belowOrNone(sh.cores));
                io("block", p.ev.block);
                if (carriesMsg(p.ev.kind))
                    io.record("msg", p.ev.msg, msgs(sh));
            });
        }, refusal);
        if constexpr (Io::loading) {
            s.events_.setExecuted(executed);
            for (const Pending &p : pending) {
                // The tile the executor indexes when the event fires;
                // a MemDone's message is its controller's reply.
                const CoreId owner = s.ownerTileOf(p.ev);
                CONSIM_ASSERT(owner >= 0 && owner < sh.cores &&
                                  (p.ev.kind != SimEventKind::MemDone ||
                                   s.mcIndexOfTile_[owner] >= 0),
                              refusal, " (kind ", int(p.ev.kind),
                              " owned by tile ", owner, ")");
                if (carriesMsg(p.ev.kind))
                    arriving(s, p.ev.msg, refusal);
                s.events_.insertAbs(s.now_, p.when, p.ev);
            }
        }
    }

    /** Refuse an event whose handler finds no transaction: a
     *  DirProcess needs its slice's, a BankDispatch its bank's in the
     *  lookup phase. */
    static void
    eventsFindWork(const System &s)
    {
        s.events_.forEachPending(s.now_, [&](Cycle, const SimEvent &ev) {
            const L2Bank::BankTxn *t =
                ev.kind == SimEventKind::BankDispatch
                    ? s.banks_[ev.tile]->active_.find(ev.block)
                    : nullptr;
            CONSIM_ASSERT(ev.kind == SimEventKind::DirProcess
                              ? s.dirs_[ev.tile]->active_.contains(ev.block)
                              : ev.kind != SimEventKind::BankDispatch ||
                                    (t && t->phase == L2Bank::Phase::Lookup),
                          "checkpoint: bad event record (kind ", int(ev.kind),
                          " at tile ", ev.tile, " for block ", ev.block,
                          ", which has no transaction there)");
        });
    }

    // --- cores ---

    /** A thread binding as the snapshot names it: a VM and one of its
     *  threads, or -1 and -1. */
    struct Binding
    {
        VmId vm = invalidVm;
        int thread = -1;
    };

    static Binding
    bindingOf(const System &s, VmId vm, const InstrStream *stream,
              CoreId tile)
    {
        if (stream == nullptr)
            return {};
        WorkloadInstance &inst = s.vms_.at(vm)->instance();
        for (int i = 0; i < inst.numThreads(); ++i)
            if (&inst.thread(i) == stream)
                return {vm, i};
        CONSIM_CHECK_FAIL("checkpoint: unbindable stream on core ", tile);
    }

    template <typename Io>
    static void
    binding(Io &io, const System &s, Binding &b, const char *vm,
            const char *thread)
    {
        io(vm, b.vm, belowOrNone(static_cast<std::int64_t>(s.vms_.size())));
        io(thread, b.thread,
           b.vm < 0 ? Dom{-1, -1}
                    : below(s.vms_[b.vm]->instance().numThreads()));
    }

    static InstrStream *
    streamOf(const System &s, const Binding &b)
    {
        return b.vm < 0 ? nullptr : &s.vms_[b.vm]->instance().thread(b.thread);
    }

    /** A core. Restore writes the fields directly: bindThread() would
     *  reset the in-flight slice and blocked state. */
    template <typename Io, typename C>
    static void
    core(Io &io, const System &s, C &c)
    {
        Binding live, parked;
        if constexpr (!Io::loading) {
            live = bindingOf(s, c.vm_, c.stream_, c.tile_);
            parked = bindingOf(s, c.rebindVm_, c.rebindStream_, c.tile_);
        }
        binding(io, s, live, "vm", "thread");
        io("blocked", c.blocked_);
        io("wedged", c.wedged_);
        io("retired", c.retiredTotal_);
        io("have_slice", c.haveSlice_);
        io.record("slice", c.slice_, [](auto &io, auto &sl) {
            io("compute", sl.computeCycles);
            io("block", sl.block);
            io("isWrite", sl.isWrite);
            io("endsTransaction", sl.endsTransaction);
            io("noMemRef", sl.noMemRef);
        });
        io("busy_until", c.busyUntil_);
        io("block_start", c.blockStart_);
        // A dynamic-scheduling migration parked while this core was
        // mid-miss: the deferred target binding.
        const bool rebind = io.has("rebind_vm", c.rebindPending_);
        if (rebind)
            binding(io, s, parked, "rebind_vm", "rebind_thread");
        // Over-commit rotation state; the System constructor rebuilds
        // the run queue from the placements.
        if (io.has("ctx_pos", c.contexts_.size() > 1)) {
            io("ctx_pos", c.ctxPos_,
               below(static_cast<std::int64_t>(c.contexts_.size())));
            io("next_slice", c.nextSlice_);
        }
        if constexpr (Io::loading) {
            c.stream_ = streamOf(s, live);
            c.vm_ = live.vm;
            c.rebindPending_ = rebind;
            c.rebindStream_ = streamOf(s, parked);
            c.rebindVm_ = parked.vm;
        }
    }

    template <typename Io, typename L>
    static void
    l1(Io &io, const System &s, L &l)
    {
        io.record("l0", l.l0_, [](auto &io, auto &a) {
            privArray(io, a, L1State::Invalid, L1State::Invalid);
        }, true, badLine);
        io.record("l1", l.l1_, [](auto &io, auto &a) {
            privArray(io, a, L1State::Shared, L1State::Modified);
        }, true, badLine);
        io.record("pending", l.pending_, [&](auto &io, auto &p) {
            io("active", p.active);
            io("block", p.block);
            io("isWrite", p.isWrite);
            io("start", p.start);
            if constexpr (Io::loading)
                if (p.active && !s.dirStorage_.inWindow(p.block))
                    io.refuse("block", p.block, " outside the VM windows");
        });
    }

    // --- L2 banks and directory slices ---

    /**
     * Block-keyed @p entries as [block, fields(io, block, value)...]
     * in ascending block order. Restore refuses a repeated key and one
     * its unit does not serve (@p mine).
     */
    template <typename Io, typename V, typename Mine, typename F>
    static void
    keyed(Io &io, const char *name,
          std::vector<std::pair<BlockAddr, V>> &entries, Mine &&mine,
          F &&fields)
    {
        io.list(name, entries, [&](auto &io, auto &e, std::size_t) {
            io.record("", e, [&](auto &io, auto &e) {
                io("block", e.first);
                fields(io, e.first, e.second);
            });
        });
        if constexpr (Io::loading) {
            for (std::size_t i = 0; i < entries.size(); ++i) {
                const BlockAddr k = entries[i].first;
                if (i > 0 && k <= entries[i - 1].first)
                    io.refuse(name, "block ", k, " repeated or out of order");
                mine(k, name);
            }
        }
    }

    /** A block map as keyed() entries. */
    template <typename Io, typename M, typename Mine, typename F>
    static void
    blockMap(Io &io, const char *name, M &m, Mine &&mine, F &&fields)
    {
        std::vector<std::pair<BlockAddr, std::decay_t<decltype(*m.find(0))>>>
            entries;
        if constexpr (!Io::loading) {
            for (const BlockAddr k : m.keys())
                entries.emplace_back(k, *m.find(k));
            std::sort(entries.begin(), entries.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
        }
        keyed(io, name, entries, mine, fields);
        if constexpr (Io::loading) {
            room(io, name, m.census(), entries.size());
            for (auto &[k, v] : entries)
                m[k] = std::move(v);
        }
    }

    /** Refuse a list of @p records entries that would take machine
     *  table @p t past its bound. */
    template <typename Io>
    static void
    room(Io &io, const char *name, const TableCensus &t, std::size_t records)
    {
        if (records > t.bound() - t.live())
            io.refuse(name, "lists ", records, " records, past the ",
                      t.name(), " table's bound (", t.live(), " of ",
                      t.bound(), " taken)");
    }

    /** Per-block waiting queues [block, [msg...]], each holding only
     *  operations() of its unit. Empty queues cannot exist (popFront
     *  drops emptied keys). */
    template <typename Io, typename Q, typename Mine>
    static void
    waiting(Io &io, Q &q, const Shape &sh, Mine &&mine, Unit unit,
            const std::vector<CoreId> &members)
    {
        std::vector<std::pair<BlockAddr, std::vector<Msg>>> queues;
        if constexpr (!Io::loading) {
            std::vector<BlockAddr> keys = q.keys();
            std::sort(keys.begin(), keys.end());
            for (const BlockAddr k : keys) {
                auto &e = queues.emplace_back(k, std::vector<Msg>{});
                q.forEachMsg(k, [&](const Msg &m) { e.second.push_back(m); });
            }
        }
        keyed(io, "waiting", queues, mine,
              [&](auto &io, BlockAddr k, auto &ms) {
                  io.list("msgs", ms, [&](auto &io, Msg &m, std::size_t) {
                      io.record("", m, msgs(sh));
                      if constexpr (Io::loading)
                          if (m.block != k || !operation(unit, m, members))
                              io.refuse("", "waits on block ", k, ": ",
                                        describe(m));
                  });
              });
        if constexpr (Io::loading) {
            std::size_t queued = 0;
            for (const auto &[k, ms] : queues)
                queued += ms.size();
            room(io, "waiting", q.census(), queued);
            for (const auto &[k, ms] : queues)
                for (const Msg &m : ms)
                    q.pushBack(k, m);
        }
    }

    /** Refuse transaction @p req unless it is an operation() of
     *  @p unit on block @p k. */
    template <typename Io>
    static void
    tracks(Io &io, Unit unit, BlockAddr k, const Msg &req,
           const std::vector<CoreId> &members)
    {
        if constexpr (Io::loading)
            if (req.block != k || !operation(unit, req, members))
                io.refuse(nullptr, "holds ", describe(req));
    }

    template <typename Io, typename B>
    static void
    bank(Io &io, const System &s, B &b, const Shape &sh)
    {
        const auto mine = [&](BlockAddr k, const char *list) {
            CONSIM_ASSERT(s.dirStorage_.inWindow(k) &&
                              s.bankTileFor(b.group_, k) == b.tile_,
                          "checkpoint: bad bank record (", list, " block ",
                          k, " is not bank ", b.tile_, "'s)");
        };
        io.record("array", b.array_, [&](auto &io, auto &a) {
            cacheArray(io, a, [&](auto &io, auto &l) {
                io("state", l.state,
                   ckpt::span(L2State::Shared, L2State::Modified));
                io("dirty", l.dirty);
                io("pinned", l.pinned);
                io("presence", l.presence, below(b.groupSize_));
                io("owner", l.ownerCore, belowOrNone(b.groupSize_));
                io("vm", l.vm, below(sh.vms));
            });
            // Every line must pass the bank's own line predicate.
            if constexpr (Io::loading)
                a.forEachLine([&](BlockAddr local, const L2CacheLine &l) {
                    const char *fault = b.lineFault(local, l);
                    CONSIM_ASSERT(fault == nullptr, badLine, " (bank ",
                                  b.tile_, ": ", fault, ")");
                });
        }, true, badLine);
        blockMap(io, "active", b.active_, mine,
                 [&](auto &io, BlockAddr k, auto &t) {
            using Phase = L2Bank::Phase;
            io.record("txn", t, [&](auto &io, auto &t) {
                io("phase", t.phase,
                   ckpt::span(Phase::Lookup, Phase::WaitVictimL1));
                io.record("req", t.req, msgs(sh));
                io("started", t.started);
                io("data_arrived", t.dataArrived);
                io("grant_arrived", t.grantArrived);
                io.record("data_msg", t.dataMsg, msgs(sh));
                io.record("grant_msg", t.grantMsg, msgs(sh));
                io("victim", t.victimBlock);
                io("expect_putm", t.expectPutM);
                io("extract", t.extractTarget, belowOrNone(sh.cores));
            }, true);
            tracks(io, Unit::L2Bank, k, t.req, b.members_);
        });
        waiting(io, b.waiting_, sh, mine, Unit::L2Bank, b.members_);
        blockMap(io, "wb", b.wb_, mine, [&](auto &io, BlockAddr, auto &w) {
            io("dirty", w.dirty);
            io("vm", w.vm, below(sh.vms));
            io("started", w.started);
        });
        blockMap(io, "victim_extract", b.victimExtract_, mine,
                 [](auto &io, BlockAddr, auto &fill) { io("fill", fill); });
    }

    template <typename Io, typename D>
    static void
    dir(Io &io, const System &s, D &d, const Shape &sh)
    {
        const auto mine = [&](BlockAddr k, const char *list) {
            CONSIM_ASSERT(s.dirStorage_.inWindow(k) &&
                              s.homeTileFor(k) == d.tile_,
                          "checkpoint: bad directory record (", list,
                          " block ", k, " is not slice ", d.tile_, "'s)");
        };
        // The directory cache is timing state: a hit or miss on it
        // decides whether a transaction pays the off-chip fetch.
        io.record("cache", d.dirCache_, [](auto &io, auto &a) {
            cacheArray(io, a, [](auto &, auto &) {});
        }, true, badLine);
        blockMap(io, "active", d.active_, mine,
                 [&](auto &io, BlockAddr k, auto &t) {
            io.record("req", t.req, msgs(sh));
            io("started", t.started);
            io("acks", t.acksPending, Dom{0, sh.groups});
            io("fwd_ack", t.fwdAckPending);
            io("grant_sent", t.grantSent);
            io("done", t.doneReceived);
            io("fetched", t.dirFetched);
            tracks(io, Unit::Dir, k, t.req, {});
        });
        waiting(io, d.waiting_, sh, mine, Unit::Dir, {});
    }

    // --- directory storage: the store's own form, its non-default
    // entries as [block, state, sharers, owner] ---

    struct DirRec
    {
        BlockAddr block = 0;
        L2State state = L2State::Invalid;
        CoreSet sharers;
        std::int16_t owner = -1;
    };

    /** A default, repeated or malformed record would break "absent
     *  means default" or the protocol's entry invariants. */
    template <typename Io, typename S>
    static void
    dirEntries(Io &io, S &s)
    {
        const char *refusal = "checkpoint: bad directory entry";
        std::vector<DirRec> recs;
        if constexpr (!Io::loading) {
            for (const BlockAddr block : s.dirStorage_.blocks()) {
                const DirEntry &e = s.dirStorage_.entry(block);
                recs.push_back({block, e.state, e.sharers, e.owner});
            }
        }
        const int groups = s.cfg_.numGroups();
        io.list("dir_entries", recs, [&](auto &io, DirRec &r, std::size_t) {
            io.record("", r, [&](auto &io, DirRec &r) {
                io("block", r.block);
                io("state", r.state,
                   ckpt::span(L2State::Shared, L2State::Modified));
                io("sharers", r.sharers, below(groups));
                io("owner", r.owner, belowOrNone(groups));
            });
        }, refusal);
        if constexpr (Io::loading) {
            DirectoryStorage &st = s.dirStorage_;
            for (std::size_t i = 0; i < recs.size(); ++i) {
                const DirRec &r = recs[i];
                CONSIM_ASSERT(i == 0 || r.block > recs[i - 1].block,
                              refusal, " (block ", r.block,
                              " repeated or out of order)");
                CONSIM_ASSERT(st.inWindow(r.block), refusal, " (block ",
                              r.block, " outside the VM windows)");
                const bool valid =
                    r.state == L2State::Shared
                        ? r.owner == -1 && r.sharers.any()
                        : r.owner >= 0 && r.sharers.isExactly(r.owner);
                CONSIM_ASSERT(valid, refusal, " (block ", r.block,
                              ", state ", int(r.state), " with owner ",
                              r.owner, " and ", r.sharers.count(),
                              " sharers)");
                // Into the entry's own (possibly recycled) storage.
                DirEntry &e = st.insert(r.block);
                e.state = r.state;
                e.owner = r.owner;
                r.sharers.forEachSet([&](int g) { e.sharers.set(g); });
            }
        }
    }

    /** A memory controller's channel and, under QoS (v4), its per-VM
     *  token buckets; the experiment layer reinstalls their
     *  configuration before restore. */
    template <typename Io, typename M>
    static void
    mc(Io &io, M &mc)
    {
        io("next_free", mc.nextFree_);
        io("outstanding", mc.outstanding_, ckpt::counts);
        if (io.has("buckets", !mc.buckets_.empty())) {
            io.each("buckets", mc.buckets_, [](auto &io, auto &b, std::size_t) {
                io.record("", b, [](auto &io, auto &b) {
                    io("window", b.window);
                    io("tokens", b.tokens);
                    io("issued", b.issued);
                });
            });
        }
    }

    // --- interconnect ---

    struct Vc
    {
        int free = 0;
        std::vector<RouterPacket> q;
    };

    /** A busy output port's flits still to send, downstream VC and
     *  packet. */
    struct Out
    {
        bool busy = false;
        int remaining = 0;
        int dstVc = 0;
        RouterPacket pkt;
    };

    template <typename Io>
    static void
    packet(Io &io, RouterPacket &p, const Shape &sh)
    {
        io.record("msg", p.msg, msgs(sh));
        io("len", p.lenFlits, Dom{1, 255});
        io("ready", p.readyCycle);
        io("port", p.outPort, below(NumPorts));
    }

    /**
     * A packet of router @p r holds a message between two distinct
     * tiles on virtual network @p vnet (any when negative), its type's
     * length, the XY route from this tile (and output @p port when not
     * negative), and a ready cycle no later than an arrival in the
     * cycle before snapshot cycle @p now gives it.
     */
    static void
    checkPacket(const System &s, const Router &r, const RouterPacket &p,
                int vnet, int port, Cycle now)
    {
        arriving(s, p.msg, "checkpoint: bad router record");
        const int route = xyRoute(r.tile_, p.msg.dstTile, r.params_.meshX);
        CONSIM_ASSERT(
            p.msg.srcTile >= 0 && p.msg.srcTile != p.msg.dstTile &&
                (vnet < 0 || vnetOf(p.msg.type) == vnet) &&
                p.lenFlits == r.params_.flitsOf(p.msg.type) &&
                p.outPort == route && (port < 0 || p.outPort == port) &&
                p.readyCycle <= now + r.params_.pipelineDelay,
            "checkpoint: bad router record (router ", r.tile_, ": ",
            describe(p.msg), " on vnet ", vnet, " with ", p.lenFlits,
            " flits, port ", p.outPort, " (route ", route, "), ready at ",
            p.readyCycle, ")");
    }

    /**
     * A router at snapshot cycle now, the mesh having last ticked
     * now - 1: each VC's credits and FIFO queue, and each busy output's
     * flits still to send, remaining = done - now + 1. A VC head's and
     * an output's packet record is its Hop's ready cycle, port and
     * length with its pool message; a packet queued behind a head is
     * its pool slot. Restore rebuilds the Hops from the records and
     * derives the wake calendar, activity sets, finishing ring and
     * occupancy mask; net() checks credit conservation and the pool
     * census once every record is in.
     */
    template <typename Io, typename R>
    static void
    router(Io &io, const System &s, R &r, const Shape &sh)
    {
        const int vcs = NumPorts * r.totalVcs_;
        std::vector<Vc> ins(static_cast<std::size_t>(vcs));
        std::array<Out, NumPorts> outs{};
        int rr = r.rrInput_, buffered = r.bufferedPackets();
        int transit = r.transitPackets();
        if constexpr (!Io::loading) {
            const auto packetOf = [&](const Hop &hop) {
                return RouterPacket{(*r.pool_)[hop.pkt].msg, hop.len,
                                    hop.ready, hop.port};
            };
            for (int i = 0; i < vcs; ++i) {
                const auto &in = r.in_[i];
                ins[i].free = in.credits;
                if (!((r.occ_ >> i) & 1))
                    continue;
                ins[i].q.push_back(packetOf(in.head));
                for (unsigned k = 0; k < in.qLen; ++k)
                    ins[i].q.push_back((*r.pool_)[r.slot(i, k)]);
            }
            for (int p = 0; p < NumPorts; ++p) {
                const Router::OutPort &o = r.outputs_[p];
                if ((r.outBusy_ >> p) & 1)
                    outs[p] = {true, static_cast<int>(o.done - s.now_ + 1),
                               o.dstVc, packetOf(o.hop)};
            }
        }
        const auto pkt = [&](auto &io, RouterPacket &p) { packet(io, p, sh); };
        io.each("inputs", ins, [&](auto &io, Vc &e, std::size_t) {
            io.record("", e, [&](auto &io, Vc &e) {
                io("free", e.free, Dom{0, r.params_.vcBufferFlits});
                io.list("q", e.q, [&](auto &io, RouterPacket &p, std::size_t) {
                    io.record("", p, pkt);
                });
            }, true);
        });
        io.each("outputs", outs, [&](auto &io, Out &o, std::size_t) {
            io.record("", o, [&](auto &io, Out &o) {
                io("busy", o.busy);
                if (o.busy) {
                    io("remaining", o.remaining, Dom{1, 255});
                    io("dst_vc", o.dstVc, below(r.totalVcs_));
                    io.record("pkt", o.pkt, pkt);
                }
            }, true);
        });
        io("rr", rr, below(vcs));
        io("buffered", buffered, ckpt::counts);
        io("busy_outputs", transit, Dom{0, NumPorts});
        if constexpr (Io::loading)
            install(s, r, ins, outs, rr, buffered, transit);
    }

    /** Check a decoded router record and install it into the mesh's
     *  cleared packet pool. */
    static void
    install(const System &s, Router &r, const std::vector<Vc> &ins,
            const std::array<Out, NumPorts> &outs, int rr, int buffered,
            int transit)
    {
        const char *refusal = "checkpoint: bad router record";
        const NocParams &np = r.params_;
        PacketPool &pool = *r.pool_;
        const auto pooled = [&](const RouterPacket &pkt) {
            CONSIM_ASSERT(pool.live() < pool.bound(), refusal,
                          " (router ", r.tile_, ": more packets than "
                          "the mesh's ", pool.bound(), " pool slots)");
            const PacketId h = pool.alloc();
            pool[h] = pkt;
            return h;
        };
        int held = 0;
        r.occ_ = 0;
        for (std::size_t i = 0; i < ins.size(); ++i) {
            const Vc &e = ins[i];
            // A packet holds at least one flit of its VC's buffer.
            CONSIM_ASSERT(e.q.size() <=
                              static_cast<std::size_t>(np.vcBufferFlits),
                          refusal, " (router ", r.tile_, ": VC ", i,
                          " holds ", e.q.size(), " packets)");
            auto &in = r.in_[i];
            in.credits = static_cast<std::int16_t>(e.free);
            in.qHead = 0;
            in.qLen = 0;
            for (const RouterPacket &p : e.q) {
                checkPacket(s, r, p,
                            static_cast<int>(i) % r.totalVcs_ / np.vcsPerVnet,
                            -1, s.now_);
                const PacketId h = pooled(p);
                if ((r.occ_ >> i) & 1) {
                    r.slot(static_cast<int>(i), in.qLen++) = h;
                } else {
                    in.head = r.hopOf(h);
                    r.occ_ |= std::uint64_t(1) << i;
                }
                ++held;
            }
        }
        r.outBusy_ = 0;
        for (int p = 0; p < NumPorts; ++p) {
            const Out &o = outs[p];
            r.outputs_[p] = Router::OutPort{};
            if (!o.busy)
                continue;
            checkPacket(s, r, o.pkt, -1, p, s.now_);
            // Its VC downstream belongs to its vnet.
            const int lo = vnetOf(o.pkt.msg.type) * np.vcsPerVnet;
            const bool dst_ok = p == PortLocal
                                    ? o.dstVc == 0
                                    : o.dstVc >= lo &&
                                          o.dstVc < lo + np.vcsPerVnet;
            CONSIM_ASSERT(o.remaining <= o.pkt.lenFlits && dst_ok, refusal,
                          " (router ", r.tile_, ": port ", p, " remaining ",
                          o.remaining, " dst_vc ", o.dstVc, ")");
            r.outputs_[p] = {s.now_ + static_cast<Cycle>(o.remaining) - 1,
                             r.hopOf(pooled(o.pkt)), o.dstVc};
            r.outBusy_ |= 1u << p;
        }
        CONSIM_ASSERT(buffered == held && transit == r.transitPackets(),
                      refusal, " (router ", r.tile_, ": buffered ",
                      buffered, " for ", held, " packets, busy_outputs ",
                      transit, " for ", r.transitPackets(), ")");
        r.rrInput_ = rr;
        r.restoreDerived(s.now_);
    }

    template <typename Io, typename S>
    static void
    net(Io &io, S &s, const Shape &sh)
    {
        io("injected", s.netStats_.injectedTotal);
        io("ejected", s.netStats_.ejectedTotal);
        std::string kind = s.mesh_ ? "mesh" : "ideal";
        io("kind", kind);
        CONSIM_ASSERT(kind == (s.mesh_ ? "mesh" : "ideal"),
                      "checkpoint: network kind mismatch");
        if (!s.mesh_) {
            // The ideal network's messages travel as NetDeliver
            // events; the list stays in the document, always empty.
            std::array<int, 0> none{};
            io.each("inflight", none, values,
                    "checkpoint: bad ideal-network record");
            return;
        }
        auto &mesh = *s.mesh_;
        if constexpr (Io::loading) {
            // The records rebuild the packet pool and output stamps.
            mesh.lastTick_ = s.now_ == 0 ? 0 : s.now_ - 1;
            mesh.shared_.clearTraffic();
        }
        io.each("routers", mesh.routers_, [&](auto &io, auto &r, std::size_t) {
            io.record("", r, [&](auto &io, auto &r) { router(io, s, r, sh); },
                      true);
        }, "checkpoint: bad router record");
        io.each("nis", mesh.nis_, [&](auto &io, auto &ni, std::size_t) {
            io.each("", ni.queues_, [&](auto &io, auto &q, std::size_t vnet) {
                std::vector<Msg> ms(q.size());
                for (std::size_t k = 0; k < q.size(); ++k)
                    ms[k] = q[k];
                io.list("", ms, [&](auto &io, Msg &m, std::size_t) {
                    io.record("", m, msgs(sh));
                });
                if constexpr (Io::loading) {
                    for (const Msg &m : ms) {
                        CONSIM_ASSERT(m.srcTile == ni.tile_ &&
                                          m.dstTile != m.srcTile &&
                                          vnetOf(m.type) == int(vnet),
                                      "checkpoint: bad NI record (NI ",
                                      ni.tile_, " vnet ", vnet, ": ",
                                      describe(m), ")");
                        arriving(s, m, "checkpoint: bad NI record");
                        q.push_back(m);
                    }
                }
            });
            if constexpr (Io::loading)
                ni.recountQueued();
        }, "checkpoint: bad NI record");
        if constexpr (Io::loading) {
            try {
                mesh.checkConservation();
            } catch (const SimError &e) {
                CONSIM_ASSERT(false, "checkpoint: bad router record (",
                              e.what(), ")");
            }
        }
    }

    // --- runtime state of faults, QoS and dynamic scheduling ---

    /** Pending WedgeCore events ride in the event queue, so the
     *  restored System must NOT re-run setFaultPlan. */
    template <typename Io, typename S>
    static void
    faults(Io &io, S &s)
    {
        io("drop_armed", s.dropArmed_);
        io("drop_countdown", s.dropCountdown_);
        io("memburst_armed", s.memBurstArmed_);
        io("memburst_start", s.memBurstStart_);
        io("memburst_end", s.memBurstEnd_);
        io("memburst_extra", s.memBurstExtra_);
    }

    /** The repartitioner's way allocation and miss-curve samples. */
    template <typename Io, typename Q>
    static void
    qos(Io &io, Q &q)
    {
        io("dyn_ways", q.ways_);
        // The way count sizes a shift in wayMask(): it must stay in
        // the range the repartitioner keeps it in.
        if constexpr (Io::loading)
            CONSIM_ASSERT(q.ways_ >= q.cfg_.protectedWays &&
                              q.ways_ < std::popcount(q.allWays_),
                          "checkpoint: bad QoS way count ", q.ways_);
        io("last_miss_total", q.lastMissTotal_);
        io("prev_delta", q.prevDelta_);
    }

    /** The migration count, the epoch baselines and the feedback loop:
     *  the policies are pure functions, so this is the scheduler's
     *  entire state. */
    template <typename Io, typename D>
    static void
    dynSched(Io &io, D &d, const Shape &sh)
    {
        const auto rows = [](auto &io, auto &row, std::size_t) {
            io.each("", row, values);
        };
        io("migrations", d.migrations_);
        io.each("last_retired", d.lastRetired_, values);
        io.each("last_vm", d.lastVm_, rows);
        io.each("last_group", d.lastGroup_, rows);
        // The backoff doubles from 1 up to 64 epochs.
        io("hold", d.hold_, Dom{0, 64});
        io("backoff", d.backoff_, Dom{1, 64});
        // A swap awaiting its verdict, and the pre-swap epoch's miss
        // and access totals it is judged against.
        if (io.has("eval", d.eval_.decided())) {
            io.record("eval", d, [&](auto &io, auto &d) {
                io("a", d.eval_.a, below(sh.cores));
                io("b", d.eval_.b, below(sh.cores));
                io("pre_miss", d.preMiss_);
                io("pre_acc", d.preAcc_);
            });
        }
    }

    // --- workload streams and footprints ---

    template <typename Io, typename W>
    static void
    vm(Io &io, W &inst, std::size_t i)
    {
        io.each("streams", inst.streams_, [](auto &io, auto &st, std::size_t) {
            io.record("", *st, [](auto &io, auto &st) {
                std::array<std::uint64_t, 4> rng = st.rng_.state();
                io.each("rng", rng, values);
                io("hot_shared", st.hotSharedPos_);
                io("hot_private", st.hotPrivatePos_);
                io("refs", st.refs_);
                io("refs_in_txn", st.refsInTxn_);
                if constexpr (Io::loading)
                    st.rng_.setState(rng);
            }, true);
        });
        // The touched offsets ascend strictly inside the footprint;
        // the count is derived from them and must match the record.
        auto &fp = inst.footprint_;
        std::vector<std::uint64_t> touched;
        std::uint64_t count = fp.count_;
        if constexpr (!Io::loading) {
            for (std::size_t w = 0; w < fp.words_.size(); ++w)
                for (std::uint64_t bits = fp.words_[w]; bits; bits &= bits - 1)
                    touched.push_back(w * 64 + lowestSetBit(bits));
        }
        io.record("footprint", fp, [&](auto &io, auto &) {
            io("count", count);
            io.list("touched", touched, values);
        }, true);
        if constexpr (Io::loading) {
            std::fill(fp.words_.begin(), fp.words_.end(), 0);
            fp.count_ = 0;
            for (std::size_t j = 0; j < touched.size(); ++j) {
                const std::uint64_t off = touched[j];
                CONSIM_ASSERT(j == 0 || off > touched[j - 1],
                              "checkpoint: bad footprint in vm ", i,
                              " (offset ", off, " not ascending)");
                CONSIM_ASSERT(off < fp.capacity_,
                              "checkpoint: bad footprint in vm ", i,
                              " (offset ", off, " outside ", fp.capacity_,
                              " blocks)");
                fp.touch(off);
            }
            CONSIM_ASSERT(count == fp.count_,
                          "checkpoint: bad footprint in vm ", i, " (count ",
                          count, " for ", fp.count_, " offsets)");
        }
    }

    // --- statistics registry: per Group, its stats by name and its
    // children in registration order ---

    template <typename Io>
    static void
    statField(Io &io, const char *name, stats::Counter &c)
    {
        io(name, c.value_);
    }

    /** An empty average has a sum of 0. */
    template <typename Io>
    static void
    statField(Io &io, const char *name, stats::Average &a)
    {
        io.record(name, a, [](auto &io, stats::Average &a) {
            io("sum", a.sum_);
            io("count", a.count_);
            if constexpr (Io::loading)
                if (a.count_ == 0 && a.sum_ != 0)
                    io.refuse("sum", a.sum_, " with a count of 0");
        }, true);
    }

    /** The bucket list has the constructed length, the count is the
     *  sum of the buckets, and an empty histogram has a sum and max of
     *  0. */
    template <typename Io>
    static void
    statField(Io &io, const char *name, stats::Histogram &h)
    {
        io.record(name, h, [](auto &io, stats::Histogram &h) {
            io.each("buckets", h.buckets_, values);
            io("sum", h.sum_);
            io("count", h.count_);
            io("max", h.max_);
            if constexpr (Io::loading) {
                std::uint64_t total = 0;
                bool wraps = false;
                for (const std::uint64_t b : h.buckets_) {
                    wraps |= b > ~total; // total + b passes 2^64 - 1
                    total += b;
                }
                if (wraps || total != h.count_)
                    io.refuse("count", h.count_,
                              " is not the sum of the buckets");
                if (h.count_ == 0 && (h.sum_ != 0 || h.max_ != 0))
                    io.refuse(nullptr, "is empty with sum ", h.sum_,
                              " and max ", h.max_);
            }
        }, true);
    }

    template <typename Io, typename G>
    static void
    statsGroup(Io &io, G &g)
    {
        io.record("stats", g, [](auto &io, G &g) {
            for (auto &e : g.stats_)
                std::visit([&](auto *p) { statField(io, e.first.c_str(), *p); },
                           e.second);
        }, true);
        io.record("children", g, [](auto &io, G &g) {
            for (stats::Group *c : g.children_)
                io.record(c->name_.c_str(), *c, [](auto &io, auto &c) {
                    statsGroup(io, c);
                }, true);
        }, true);
    }

    // --- whole machine ---

    template <typename Io, typename S>
    static void
    machine(Io &io, S &s)
    {
        const Shape sh{s.cfg_.numCores(), s.cfg_.numGroups(),
                       static_cast<int>(s.vms_.size())};
        // The mesh geometry is checked before any per-tile array is
        // walked; the clock is set before the events due against it.
        std::array<int, 2> mesh{s.cfg_.meshX, s.cfg_.meshY};
        io.each("mesh", mesh, [](auto &io, int &x, std::size_t) {
            io("", x, Dom{x, x});
        });
        io("cycle", s.now_);
        io.record("events", s, [&](auto &io, S &s) { events(io, s, sh); },
                  true);
        const auto units = [&](const char *name, auto &all, auto &&fields,
                               const char *refusal) {
            io.each(name, all, [&](auto &io, auto &u, std::size_t) {
                io.record("", *u, fields, true);
            }, refusal);
        };
        units("cores", s.cores_, [&](auto &io, auto &c) { core(io, s, c); },
              "checkpoint: bad core record");
        units("l1s", s.l1s_, [&](auto &io, auto &l) { l1(io, s, l); },
              "checkpoint: bad L1 record");
        units("banks", s.banks_, [&](auto &io, auto &b) { bank(io, s, b, sh); },
              "checkpoint: bad bank record");
        units("dirs", s.dirs_, [&](auto &io, auto &d) { dir(io, s, d, sh); },
              "checkpoint: bad directory record");
        units("mcs", s.mcs_, [](auto &io, auto &m) { mc(io, m); },
              "checkpoint: bad MC record");
        dirEntries(io, s);
        if constexpr (Io::loading)
            eventsFindWork(s);
        io.record("net", s, [&](auto &io, S &s) { net(io, s, sh); }, true,
                  "checkpoint: bad network record");
        io.record("faults", s, [](auto &io, S &s) { faults(io, s); }, true);
        // QoS (v4) and dyn-sched (v5) state is written only when armed,
        // so snapshots without them keep their prior shape.
        if (io.has("qos", s.isolation_.enabled())) {
            CONSIM_ASSERT(s.isolation_.enabled(),
                          "checkpoint carries QoS runtime state but the "
                          "rebuilt machine has QoS off — reinstall the QoS "
                          "config before restore");
            io.record("qos", s.isolation_,
                      [](auto &io, auto &q) { qos(io, q); }, true,
                      "checkpoint: bad QoS record");
        }
        if (io.has("dyn_sched", s.scheduler_.enabled())) {
            CONSIM_ASSERT(s.scheduler_.enabled(),
                          "checkpoint carries dynamic-scheduling runtime "
                          "state but the rebuilt machine has it off — "
                          "reinstall the dyn-sched config before restore");
            io.record("dyn_sched", s.scheduler_,
                      [&](auto &io, auto &d) { dynSched(io, d, sh); }, true,
                      "checkpoint: bad dyn-sched record");
        }
        io.record("stats", s.statsRoot_,
                  [](auto &io, auto &g) { statsGroup(io, g); }, true,
                  "checkpoint: bad stats record");
    }

    template <typename Io, typename S>
    static void
    document(Io &io, S &s)
    {
        io.record("machine", s, [](auto &io, S &s) { machine(io, s); }, true);
        io.each("vms", s.vms_, [](auto &io, auto *v, std::size_t i) {
            io.record("", v->instance(), [&](auto &io, auto &inst) {
                CkptAccess::vm(io, inst, i);
            }, true);
        }, "checkpoint: bad VM record");
    }
};

json::Value
System::saveCheckpoint() const
{
    ckpt::Save io(true);
    io("schema", std::string("consim.ckpt.v5"));
    io("context", ckptCtx_);
    CkptAccess::document(io, *this);
    return std::move(io.v);
}

void
System::restoreCheckpoint(const json::Value &doc)
{
    const check::InputScope input;
    checkCkptSchema(doc);
    // Restore targets a freshly constructed System: directory
    // entries, cache arrays and queues all start default there.
    CONSIM_ASSERT(now_ == 0 && events_.empty(),
                  "restoreCheckpoint needs a fresh System");
    ckpt::Load io(doc, "checkpoint: bad machine record", "", true);
    CkptAccess::document(io, *this);
    // The wake calendar is derived state: every core is armed again
    // from the restored clock.
    wake_.clear();
    for (auto &c : cores_)
        c->arm(now_);
    // The machine's own checks, at every check level, refuse a state
    // no single record shows: the component invariants, and on every
    // block no transaction works on and no message in flight names,
    // the directory audit and L1 inclusion. The stuck-transaction
    // audits are left out: a watchdog trip's snapshot holds
    // transactions past their limit.
    try {
        checkInvariants();
        auditDirectory();
        auditInclusion();
    } catch (const SimError &e) {
        CONSIM_ASSERT(false, "checkpoint: restored machine fails its "
                             "audit (",
                      e.what(), ")");
    }
    // Operational knobs (watchdog, deadline, periodic snapshotting)
    // are not part of the document: callers re-arm them after restore.
}

} // namespace consim
