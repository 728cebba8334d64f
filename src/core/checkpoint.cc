/**
 * @file
 * `consim.ckpt.v5` serializer: System::saveCheckpoint /
 * System::restoreCheckpoint plus the protocol-message codec. See
 * checkpoint.hh for the document layout and the byte-identity
 * contract. (v2 replaced the single event sequence counter with the
 * per-source counters and per-event (src, seq) keys that fix each
 * cycle's event order.)
 *
 * All component access goes through CkptAccess, the single friend
 * every stateful class declares. Conventions:
 *
 *  - unsigned 64-bit quantities (cycles, tags, LRU stamps, RNG words,
 *    seq numbers) are written as Uint and read back with asUint(),
 *    which is exact; possibly-negative small integers (core ids,
 *    owners) are written as Int and read through number();
 *  - unordered_map contents are written sorted by block key so the
 *    same machine state always produces the same text;
 *  - cache arrays are restored slot-index-exact: victim() picks the
 *    first empty slot in set order (else the held line with the
 *    lowest LRU stamp), so which slot holds which line is
 *    architecturally visible.
 */

#include "core/checkpoint.hh"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cache/cache_array.hh"
#include "coherence/directory.hh"
#include "coherence/l1_controller.hh"
#include "coherence/l2_bank.hh"
#include "coherence/memory_controller.hh"
#include "common/bitops.hh"
#include "common/check.hh"
#include "core/system.hh"
#include "core/vm.hh"
#include "noc/mesh.hh"
#include "workload/generator.hh"

namespace consim
{

namespace
{

using json::Value;

/** @return a (possibly negative) integral field. */
std::int64_t
asInt(const Value &v)
{
    return static_cast<std::int64_t>(v.number());
}

/** @return a block map's keys in ascending order. */
template <typename V>
std::vector<BlockAddr>
sortedKeys(const BlockMap<V> &m)
{
    std::vector<BlockAddr> keys = m.keys();
    std::sort(keys.begin(), keys.end());
    return keys;
}

Value
cyclesJson(Cycle c)
{
    return Value(static_cast<std::uint64_t>(c));
}

/** Sharer/presence sets serialize as trimmed little-endian word
 *  arrays, so the document layout is independent of machine width. */
Value
coreSetJson(const CoreSet &s)
{
    Value v = Value::array();
    for (const std::uint64_t w : s.words())
        v.push(w);
    return v;
}

/** @return true for event kinds whose record carries a message. */
bool
carriesMsg(SimEventKind k)
{
    return k == SimEventKind::Deliver || k == SimEventKind::MemDone ||
           k == SimEventKind::NetDeliver;
}

/** @return integral field @p v as a T, refused with @p refusal
 *  unless T holds it exactly. */
template <typename T>
T
exactAs(const Value &v, const char *refusal)
{
    const std::int64_t x = asInt(v);
    const T t = static_cast<T>(x);
    CONSIM_ASSERT(static_cast<std::int64_t>(t) == x, refusal);
    return t;
}

CoreSet
coreSetFromJson(const Value &v)
{
    std::vector<std::uint64_t> words;
    words.reserve(v.size());
    for (const Value &w : v.items())
        words.push_back(w.asUint());
    return CoreSet::fromWords(words);
}

} // namespace

const json::Value &
ckptField(const json::Value &obj, std::string_view key)
{
    const json::Value *p = obj.find(key);
    CONSIM_ASSERT(p != nullptr, "checkpoint: missing field \"",
                  std::string(key), "\"");
    return *p;
}

void
checkCkptSchema(const json::Value &doc)
{
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

json::Value
msgToJson(const Msg &m)
{
    Value v = Value::array();
    v.push(static_cast<int>(m.type));
    v.push(static_cast<std::uint64_t>(m.block));
    v.push(m.srcTile);
    v.push(m.dstTile);
    v.push(static_cast<int>(m.srcUnit));
    v.push(static_cast<int>(m.dstUnit));
    v.push(m.reqCore);
    v.push(m.reqBankTile);
    v.push(m.reqGroup);
    v.push(m.vm);
    v.push(m.isWrite);
    v.push(m.dirtyData);
    v.push(m.noDataNeeded);
    v.push(m.c2cTransfer);
    v.push(m.stale);
    v.push(m.toInvalid);
    v.push(m.overlappedFetch);
    v.push(static_cast<int>(m.grantState));
    v.push(static_cast<int>(m.ackCount));
    v.push(static_cast<std::uint64_t>(m.injectCycle));
    return v;
}

Msg
msgFromJson(const json::Value &v)
{
    CONSIM_ASSERT(v.size() == 20, "checkpoint: bad message record");
    Msg m;
    m.type = static_cast<MsgType>(asInt(v.at(0)));
    m.block = v.at(1).asUint();
    m.srcTile = static_cast<CoreId>(asInt(v.at(2)));
    m.dstTile = static_cast<CoreId>(asInt(v.at(3)));
    m.srcUnit = static_cast<Unit>(asInt(v.at(4)));
    m.dstUnit = static_cast<Unit>(asInt(v.at(5)));
    m.reqCore = static_cast<CoreId>(asInt(v.at(6)));
    m.reqBankTile = static_cast<CoreId>(asInt(v.at(7)));
    m.reqGroup = static_cast<GroupId>(asInt(v.at(8)));
    m.vm = static_cast<VmId>(asInt(v.at(9)));
    m.isWrite = v.at(10).boolean();
    m.dirtyData = v.at(11).boolean();
    m.noDataNeeded = v.at(12).boolean();
    m.c2cTransfer = v.at(13).boolean();
    m.stale = v.at(14).boolean();
    m.toInvalid = v.at(15).boolean();
    m.overlappedFetch = v.at(16).boolean();
    m.grantState = static_cast<L2State>(asInt(v.at(17)));
    m.ackCount = static_cast<std::int16_t>(asInt(v.at(18)));
    m.injectCycle = v.at(19).asUint();
    return m;
}

/**
 * The one class every stateful component befriends. Static helpers
 * only; each saveX returns the JSON for one component, each loadX
 * restores it into a freshly constructed counterpart.
 */
struct CkptAccess
{
    // --- cache arrays (slot-index-exact) ---

    static constexpr const char *badLine =
        "checkpoint: bad cache line record";

    template <typename LineT, typename SaveExtra>
    static Value
    saveArray(const CacheArray<LineT> &a, SaveExtra &&extra)
    {
        Value lines = Value::array();
        for (std::size_t i = 0; i < a.key_.size(); ++i) {
            if (a.key_[i] == 0)
                continue;
            Value rec = Value::array();
            rec.push(static_cast<std::uint64_t>(i));
            rec.push(a.key_[i] - 1);
            rec.push(a.lru_[i]);
            extra(a.lines_[i], rec);
            lines.push(std::move(rec));
        }
        Value v = Value::object();
        v.set("num_lines", static_cast<std::uint64_t>(a.key_.size()));
        v.set("stamp", a.stamp_);
        v.set("lines", std::move(lines));
        return v;
    }

    template <typename LineT, typename LoadExtra>
    static void
    loadArray(CacheArray<LineT> &a, const Value &v, LoadExtra &&extra)
    {
        CONSIM_ASSERT(ckptField(v, "num_lines").asUint() == a.key_.size(),
                      "checkpoint: cache geometry mismatch");
        a.stamp_ = ckptField(v, "stamp").asUint();
        std::fill(a.lines_.begin(), a.lines_.end(), LineT{});
        std::fill(a.key_.begin(), a.key_.end(), 0);
        std::fill(a.lru_.begin(), a.lru_.end(), 0);
        for (const Value &rec : ckptField(v, "lines").items()) {
            const std::uint64_t i = rec.at(0).asUint();
            const std::uint64_t key = rec.at(1).asUint() + 1;
            const std::uint64_t stamp = rec.at(2).asUint();
            // The slot must lie in its block's set (else lookup()
            // never finds the line) and be free (else a line is
            // dropped); the stamp must be one the array handed out.
            const auto [begin, end] = a.setRange(key - 1);
            CONSIM_ASSERT(key != 0 && i >= begin && i < end &&
                              a.key_[i] == 0 && stamp != 0 &&
                              stamp <= a.stamp_,
                          badLine);
            a.key_[i] = key;
            a.lru_[i] = stamp;
            extra(a.lines_[i], rec);
        }
    }

    static Value
    savePrivArray(const CacheArray<PrivateCacheLine> &a)
    {
        return saveArray(a, [](const PrivateCacheLine &l, Value &rec) {
            rec.push(static_cast<int>(l.state));
        });
    }

    /** An L1 line is Shared or Modified. An L0 line (@p l0) carries
     *  no coherence state, its L1 line does, so its payload is the
     *  Invalid that install() writes. */
    static void
    loadPrivArray(CacheArray<PrivateCacheLine> &a, const Value &v,
                  bool l0)
    {
        loadArray(a, v, [&](PrivateCacheLine &l, const Value &rec) {
            l.state = exactAs<L1State>(rec.at(3), badLine);
            CONSIM_ASSERT(l0 ? l.state == L1State::Invalid
                             : l.state == L1State::Shared ||
                                   l.state == L1State::Modified,
                          badLine, " (", l0 ? "L0" : "L1", " state ",
                          int(l.state), ")");
        });
    }

    // --- event queue ---

    static Value
    saveEvents(const System &s)
    {
        struct Rec
        {
            Cycle when;
            const SimEvent *ev;
        };
        std::vector<Rec> recs;
        s.events_.forEachPending(
            s.now_, [&](Cycle when, const SimEvent &ev) {
                recs.push_back(Rec{when, &ev});
            });
        // Canonical (when, src, seq) order: the same machine state
        // always serializes to the same text.
        std::sort(recs.begin(), recs.end(),
                  [](const Rec &a, const Rec &b) {
                      return a.when != b.when
                                 ? a.when < b.when
                                 : SimEvent::keyLess(*a.ev, *b.ev);
                  });
        Value pending = Value::array();
        for (const Rec &r : recs) {
            Value rec = Value::array();
            rec.push(cyclesJson(r.when));
            rec.push(r.ev->src);
            rec.push(r.ev->seq);
            rec.push(static_cast<int>(r.ev->kind));
            rec.push(r.ev->tile);
            rec.push(static_cast<std::uint64_t>(r.ev->block));
            if (carriesMsg(r.ev->kind))
                rec.push(msgToJson(r.ev->msg));
            pending.push(std::move(rec));
        }
        Value seqs = Value::array();
        for (std::uint64_t c : s.seqBySrc_)
            seqs.push(c);
        Value v = Value::object();
        v.set("seq_by_src", std::move(seqs));
        v.set("executed", s.events_.executed());
        v.set("pending", std::move(pending));
        return v;
    }

    static void
    loadEvents(System &s, const Value &v)
    {
        const Value &seqs = ckptField(v, "seq_by_src");
        CONSIM_ASSERT(seqs.size() == s.seqBySrc_.size(),
                      "checkpoint: sequence-counter count mismatch");
        for (std::size_t i = 0; i < s.seqBySrc_.size(); ++i)
            s.seqBySrc_[i] = seqs.at(i).asUint();
        s.events_.setExecuted(ckptField(v, "executed").asUint());
        for (const Value &rec : ckptField(v, "pending").items())
            s.events_.insertAbs(s.now_, rec.at(0).asUint(),
                                eventFromJson(s, rec));
    }

    /**
     * Decode one pending-event record strictly: a corrupt record
     * would otherwise be dropped by the executor switch or index a
     * component out of range when it fires.
     */
    static SimEvent
    eventFromJson(const System &s, const Value &rec)
    {
        const bool has_msg = rec.size() == 7;
        CONSIM_ASSERT(rec.size() == 6 || has_msg,
                      "checkpoint: bad event record (", rec.size(),
                      " fields)");
        const std::int64_t kind = asInt(rec.at(3));
        CONSIM_ASSERT(
            kind >= static_cast<std::int64_t>(SimEventKind::Deliver) &&
                kind <= static_cast<std::int64_t>(SimEventKind::NetDeliver),
            "checkpoint: bad event record (kind ", kind, ")");
        const auto k = static_cast<SimEventKind>(kind);
        CONSIM_ASSERT(has_msg == carriesMsg(k),
                      "checkpoint: bad event record (kind ", kind,
                      has_msg ? " with" : " without", " a message)");
        const std::int64_t src = asInt(rec.at(1));
        CONSIM_ASSERT(src >= 0 && static_cast<std::size_t>(src) <
                                      s.seqBySrc_.size(),
                      "checkpoint: bad event record (src ", src, ")");
        const std::int64_t tile = asInt(rec.at(4));
        CONSIM_ASSERT(tile >= invalidCore && tile < s.cfg_.numCores(),
                      "checkpoint: bad event record (tile ", tile, ")");
        SimEvent ev(k, static_cast<CoreId>(tile), rec.at(5).asUint());
        if (has_msg)
            ev.msg = msgFromJson(rec.at(6));
        ev.src = static_cast<std::int32_t>(src);
        ev.seq = rec.at(2).asUint();
        // The tile the executor indexes when the event fires.
        const CoreId owner = s.ownerTileOf(ev);
        CONSIM_ASSERT(owner >= 0 && owner < s.cfg_.numCores(),
                      "checkpoint: bad event record (tile ", owner, ")");
        return ev;
    }

    // --- cores ---

    /** Recover a thread index from a stream pointer; the binding is
     *  restored by index into the same VM set. */
    static int
    threadIndexOf(const System &s, VmId vm, const InstrStream *stream,
                  CoreId tile)
    {
        WorkloadInstance &inst = s.vms_.at(vm)->instance();
        for (int i = 0; i < inst.numThreads(); ++i)
            if (&inst.thread(i) == stream)
                return i;
        CONSIM_CHECK_FAIL("checkpoint: unbindable stream on core ",
                          tile);
        return -1;
    }

    static Value
    saveCore(const System &s, const Core &c)
    {
        Value v = Value::object();
        if (c.stream_ != nullptr) {
            v.set("vm", c.vm_);
            v.set("thread",
                  threadIndexOf(s, c.vm_, c.stream_, c.tile_));
        } else {
            v.set("vm", -1);
            v.set("thread", -1);
        }
        v.set("blocked", c.blocked_);
        v.set("wedged", c.wedged_);
        v.set("retired", c.retiredTotal_);
        v.set("have_slice", c.haveSlice_);
        Value sl = Value::array();
        sl.push(static_cast<unsigned>(c.slice_.computeCycles));
        sl.push(static_cast<std::uint64_t>(c.slice_.block));
        sl.push(c.slice_.isWrite);
        sl.push(c.slice_.endsTransaction);
        sl.push(c.slice_.noMemRef);
        v.set("slice", std::move(sl));
        v.set("busy_until", cyclesJson(c.busyUntil_));
        v.set("block_start", cyclesJson(c.blockStart_));
        // Parked dynamic-scheduling migration (absent unless a swap
        // was decided while this core was mid-miss): the deferred
        // target binding, serialized like the live one.
        if (c.rebindPending_) {
            if (c.rebindStream_ != nullptr) {
                v.set("rebind_vm", c.rebindVm_);
                v.set("rebind_thread",
                      threadIndexOf(s, c.rebindVm_, c.rebindStream_,
                                    c.tile_));
            } else {
                v.set("rebind_vm", -1);
                v.set("rebind_thread", -1);
            }
        }
        // Over-commit rotation state; the run-queue contents are
        // rebuilt from the placements by the System constructor, so
        // only the position and next boundary need saving.
        if (c.contexts_.size() > 1) {
            v.set("ctx_pos",
                  static_cast<std::uint64_t>(c.ctxPos_));
            v.set("next_slice", cyclesJson(c.nextSlice_));
        }
        return v;
    }

    static void
    loadCore(System &s, Core &c, const Value &v)
    {
        // Direct field writes: bindThread() would reset the in-flight
        // slice and blocked state we are about to restore.
        const auto vm = static_cast<VmId>(asInt(ckptField(v, "vm")));
        if (vm >= 0) {
            const int thread =
                static_cast<int>(asInt(ckptField(v, "thread")));
            c.stream_ = &s.vms_.at(vm)->instance().thread(thread);
            c.vm_ = vm;
        } else {
            c.stream_ = nullptr;
            c.vm_ = invalidVm;
        }
        c.blocked_ = ckptField(v, "blocked").boolean();
        c.wedged_ = ckptField(v, "wedged").boolean();
        c.retiredTotal_ = ckptField(v, "retired").asUint();
        c.haveSlice_ = ckptField(v, "have_slice").boolean();
        const Value &sl = ckptField(v, "slice");
        c.slice_.computeCycles =
            static_cast<std::uint32_t>(sl.at(0).asUint());
        c.slice_.block = sl.at(1).asUint();
        c.slice_.isWrite = sl.at(2).boolean();
        c.slice_.endsTransaction = sl.at(3).boolean();
        c.slice_.noMemRef = sl.at(4).boolean();
        c.busyUntil_ = ckptField(v, "busy_until").asUint();
        c.blockStart_ = ckptField(v, "block_start").asUint();
        if (const Value *rv = v.find("rebind_vm")) {
            c.rebindPending_ = true;
            const auto rvm = static_cast<VmId>(asInt(*rv));
            if (rvm >= 0) {
                const int th = static_cast<int>(
                    asInt(ckptField(v, "rebind_thread")));
                c.rebindStream_ =
                    &s.vms_.at(rvm)->instance().thread(th);
                c.rebindVm_ = rvm;
            } else {
                c.rebindStream_ = nullptr;
                c.rebindVm_ = invalidVm;
            }
        }
        // Optional (absent on single-context cores and in snapshots
        // from before over-commit existed).
        if (const Value *cp = v.find("ctx_pos")) {
            CONSIM_ASSERT(c.contexts_.size() > 1,
                          "checkpoint: rotation state for core ",
                          c.tile_, " which is not over-committed");
            const auto pos = static_cast<std::size_t>(cp->asUint());
            CONSIM_ASSERT(pos < c.contexts_.size(),
                          "checkpoint: ctx_pos ", pos, " out of range");
            c.ctxPos_ = pos;
            c.nextSlice_ = ckptField(v, "next_slice").asUint();
        }
    }

    // --- L1 controllers ---

    static Value
    saveL1(const L1Controller &l)
    {
        Value p = Value::array();
        p.push(l.pending_.active);
        p.push(static_cast<std::uint64_t>(l.pending_.block));
        p.push(l.pending_.isWrite);
        p.push(cyclesJson(l.pending_.start));
        Value v = Value::object();
        v.set("l0", savePrivArray(l.l0_));
        v.set("l1", savePrivArray(l.l1_));
        v.set("pending", std::move(p));
        return v;
    }

    static void
    loadL1(L1Controller &l, const Value &v)
    {
        loadPrivArray(l.l0_, ckptField(v, "l0"), true);
        loadPrivArray(l.l1_, ckptField(v, "l1"), false);
        const Value &p = ckptField(v, "pending");
        l.pending_.active = p.at(0).boolean();
        l.pending_.block = p.at(1).asUint();
        l.pending_.isWrite = p.at(2).boolean();
        l.pending_.start = p.at(3).asUint();
    }

    // --- L2 banks ---

    static Value
    saveL2Array(const CacheArray<L2CacheLine> &a)
    {
        return saveArray(a, [](const L2CacheLine &l, Value &rec) {
            rec.push(static_cast<int>(l.state));
            rec.push(l.dirty);
            rec.push(l.pinned);
            rec.push(coreSetJson(l.presence));
            rec.push(static_cast<int>(l.ownerCore));
            rec.push(l.vm);
        });
    }

    /** Every line must pass the bank's own line predicate. */
    static void
    loadL2Array(L2Bank &b, const Value &v)
    {
        loadArray(b.array_, v, [](L2CacheLine &l, const Value &rec) {
            l.state = exactAs<L2State>(rec.at(3), badLine);
            l.dirty = rec.at(4).boolean();
            l.pinned = rec.at(5).boolean();
            l.presence = coreSetFromJson(rec.at(6));
            l.ownerCore = exactAs<std::int16_t>(rec.at(7), badLine);
            l.vm = exactAs<VmId>(rec.at(8), badLine);
        });
        b.array_.forEachLine([&](BlockAddr local, const L2CacheLine &l) {
            const char *fault = b.lineFault(local, l);
            CONSIM_ASSERT(fault == nullptr, badLine, " (bank ", b.tile_,
                          ": ", fault, ")");
        });
    }

    static Value
    saveBankTxn(const L2Bank::BankTxn &t)
    {
        Value v = Value::object();
        v.set("phase", static_cast<int>(t.phase));
        v.set("req", msgToJson(t.req));
        v.set("started", cyclesJson(t.started));
        v.set("data_arrived", t.dataArrived);
        v.set("grant_arrived", t.grantArrived);
        v.set("data_msg", msgToJson(t.dataMsg));
        v.set("grant_msg", msgToJson(t.grantMsg));
        v.set("victim", static_cast<std::uint64_t>(t.victimBlock));
        v.set("expect_putm", t.expectPutM);
        v.set("extract", t.extractTarget);
        return v;
    }

    static L2Bank::BankTxn
    loadBankTxn(const Value &v)
    {
        L2Bank::BankTxn t;
        t.phase = static_cast<L2Bank::Phase>(asInt(ckptField(v, "phase")));
        t.req = msgFromJson(ckptField(v, "req"));
        t.started = ckptField(v, "started").asUint();
        t.dataArrived = ckptField(v, "data_arrived").boolean();
        t.grantArrived = ckptField(v, "grant_arrived").boolean();
        t.dataMsg = msgFromJson(ckptField(v, "data_msg"));
        t.grantMsg = msgFromJson(ckptField(v, "grant_msg"));
        t.victimBlock = ckptField(v, "victim").asUint();
        t.expectPutM = ckptField(v, "expect_putm").boolean();
        t.extractTarget =
            static_cast<CoreId>(asInt(ckptField(v, "extract")));
        return t;
    }

    /** Serialize the per-block waiting queues (sorted by block).
     *  Empty queues cannot exist (popFront drops emptied keys). */
    static Value
    saveMsgQueues(const WaitQueueMap<Msg> &m)
    {
        Value v = Value::array();
        std::vector<BlockAddr> keys = m.keys();
        std::sort(keys.begin(), keys.end());
        for (BlockAddr k : keys) {
            Value q = Value::array();
            m.forEachMsg(
                k, [&](const Msg &msg) { q.push(msgToJson(msg)); });
            Value e = Value::array();
            e.push(static_cast<std::uint64_t>(k));
            e.push(std::move(q));
            v.push(std::move(e));
        }
        return v;
    }

    static void
    loadMsgQueues(WaitQueueMap<Msg> &m, const Value &v)
    {
        m.clear();
        for (const Value &e : v.items()) {
            const BlockAddr k = e.at(0).asUint();
            for (const Value &msg : e.at(1).items())
                m.pushBack(k, msgFromJson(msg));
        }
    }

    static Value
    saveBank(const L2Bank &b)
    {
        Value active = Value::array();
        for (BlockAddr k : sortedKeys(b.active_)) {
            Value e = Value::array();
            e.push(static_cast<std::uint64_t>(k));
            e.push(saveBankTxn(b.active_.at(k)));
            active.push(std::move(e));
        }
        Value wb = Value::array();
        for (BlockAddr k : sortedKeys(b.wb_)) {
            const L2Bank::WbEntry &w = b.wb_.at(k);
            Value e = Value::array();
            e.push(static_cast<std::uint64_t>(k));
            e.push(w.dirty);
            e.push(w.vm);
            e.push(cyclesJson(w.started));
            wb.push(std::move(e));
        }
        Value extract = Value::array();
        for (BlockAddr k : sortedKeys(b.victimExtract_)) {
            Value e = Value::array();
            e.push(static_cast<std::uint64_t>(k));
            e.push(static_cast<std::uint64_t>(b.victimExtract_.at(k)));
            extract.push(std::move(e));
        }
        Value v = Value::object();
        v.set("array", saveL2Array(b.array_));
        v.set("active", std::move(active));
        v.set("waiting", saveMsgQueues(b.waiting_));
        v.set("wb", std::move(wb));
        v.set("victim_extract", std::move(extract));
        return v;
    }

    static void
    loadBank(L2Bank &b, const Value &v)
    {
        loadL2Array(b, ckptField(v, "array"));
        b.active_.clear();
        for (const Value &e : ckptField(v, "active").items())
            b.active_[e.at(0).asUint()] = loadBankTxn(e.at(1));
        loadMsgQueues(b.waiting_, ckptField(v, "waiting"));
        b.wb_.clear();
        for (const Value &e : ckptField(v, "wb").items()) {
            L2Bank::WbEntry w;
            w.dirty = e.at(1).boolean();
            w.vm = static_cast<VmId>(asInt(e.at(2)));
            w.started = e.at(3).asUint();
            b.wb_[e.at(0).asUint()] = w;
        }
        b.victimExtract_.clear();
        for (const Value &e : ckptField(v, "victim_extract").items())
            b.victimExtract_[e.at(0).asUint()] = e.at(1).asUint();
    }

    // --- directory slices ---

    static Value
    saveDir(const DirectorySlice &d)
    {
        Value active = Value::array();
        for (BlockAddr k : sortedKeys(d.active_)) {
            const DirectorySlice::Txn &t = d.active_.at(k);
            Value e = Value::array();
            e.push(static_cast<std::uint64_t>(k));
            e.push(msgToJson(t.req));
            e.push(cyclesJson(t.started));
            e.push(t.acksPending);
            e.push(t.fwdAckPending);
            e.push(t.grantSent);
            e.push(t.doneReceived);
            e.push(t.dirFetched);
            active.push(std::move(e));
        }
        Value v = Value::object();
        // The directory cache is timing state: a hit or miss on it
        // decides whether a transaction pays the off-chip fetch.
        v.set("cache", saveArray(d.dirCache_,
                                 [](const auto &, Value &) {}));
        v.set("active", std::move(active));
        v.set("waiting", saveMsgQueues(d.waiting_));
        return v;
    }

    static void
    loadDir(DirectorySlice &d, const Value &v)
    {
        loadArray(d.dirCache_, ckptField(v, "cache"),
                  [](auto &, const Value &) {});
        d.active_.clear();
        for (const Value &e : ckptField(v, "active").items()) {
            DirectorySlice::Txn t;
            t.req = msgFromJson(e.at(1));
            t.started = e.at(2).asUint();
            t.acksPending = static_cast<int>(asInt(e.at(3)));
            t.fwdAckPending = e.at(4).boolean();
            t.grantSent = e.at(5).boolean();
            t.doneReceived = e.at(6).boolean();
            t.dirFetched = e.at(7).boolean();
            d.active_[e.at(0).asUint()] = std::move(t);
        }
        loadMsgQueues(d.waiting_, ckptField(v, "waiting"));
    }

    // --- directory storage (the store's own form: non-default
    // entries only, [block, state, sharers, owner]) ---

    static Value
    saveDirEntries(const DirectoryStorage &st)
    {
        Value v = Value::array();
        // blocks() is ascending: deterministic order.
        for (const BlockAddr block : st.blocks()) {
            const DirEntry &e = st.entry(block);
            Value rec = Value::array();
            rec.push(static_cast<std::uint64_t>(block));
            rec.push(static_cast<int>(e.state));
            rec.push(coreSetJson(e.sharers));
            rec.push(static_cast<int>(e.owner));
            v.push(std::move(rec));
        }
        return v;
    }

    /**
     * Decode the directory entries strictly: the store holds exactly
     * the non-default entries, so a default, duplicate or malformed
     * record would break "absent means default" or the protocol's
     * entry invariants.
     */
    static void
    loadDirEntries(System &s, const Value &v)
    {
        DirectoryStorage &st = s.dirStorage_;
        const int groups = s.cfg_.numGroups();
        // The target System is freshly constructed, so every entry
        // not listed here is already default.
        bool first = true;
        BlockAddr prev = 0;
        for (const Value &rec : v.items()) {
            CONSIM_ASSERT(rec.size() == 4,
                          "checkpoint: bad directory entry (",
                          rec.size(), " fields)");
            const BlockAddr block = rec.at(0).asUint();
            CONSIM_ASSERT(first || block > prev,
                          "checkpoint: bad directory entry (block ",
                          block, " not above ", prev, ")");
            CONSIM_ASSERT(st.inWindow(block),
                          "checkpoint: bad directory entry (block ",
                          block, " outside the VM windows)");
            first = false;
            prev = block;
            const std::int64_t state = asInt(rec.at(1));
            CONSIM_ASSERT(
                state >= static_cast<int>(L2State::Shared) &&
                    state <= static_cast<int>(L2State::Modified),
                "checkpoint: bad directory entry (block ", block,
                ", state ", state, ")");
            const CoreSet sharers = coreSetFromJson(rec.at(2));
            const std::int64_t owner = asInt(rec.at(3));
            bool in_chip = true;
            sharers.forEachSet([&](int g) { in_chip &= g < groups; });
            CONSIM_ASSERT(in_chip && owner < groups,
                          "checkpoint: bad directory entry (block ",
                          block, ", group outside the ", groups,
                          "-group chip)");
            const bool valid =
                static_cast<L2State>(state) == L2State::Shared
                    ? owner == -1 && sharers.any()
                    : owner >= 0 &&
                          sharers.isExactly(static_cast<int>(owner));
            CONSIM_ASSERT(valid, "checkpoint: bad directory entry "
                                 "(block ", block, ", state ", state,
                          " with owner ", owner, " and ",
                          sharers.count(), " sharers)");
            // Set the bits into the entry's own (possibly recycled)
            // sharer storage rather than copying the decoded set.
            DirEntry &e = st.insert(block);
            e.state = static_cast<L2State>(state);
            e.owner = static_cast<std::int16_t>(owner);
            sharers.forEachSet([&](int g) { e.sharers.set(g); });
        }
    }

    // --- memory controllers ---

    static Value
    saveMc(const MemoryController &mc)
    {
        Value v = Value::object();
        v.set("next_free", cyclesJson(mc.nextFree_));
        v.set("outstanding", mc.outstanding_);
        // QoS token buckets (v4): per-VM [window, tokens, issued].
        // The configuration itself (caps, refill) is reinstalled by
        // the experiment layer before restore; only the mutable
        // bucket state rides in the snapshot.
        if (!mc.buckets_.empty()) {
            Value bs = Value::array();
            for (const auto &b : mc.buckets_) {
                Value e = Value::array();
                e.push(b.window);
                e.push(b.tokens);
                e.push(b.issued);
                bs.push(std::move(e));
            }
            v.set("buckets", std::move(bs));
        }
        return v;
    }

    static void
    loadMc(MemoryController &mc, const Value &v)
    {
        mc.nextFree_ = ckptField(v, "next_free").asUint();
        mc.outstanding_ =
            static_cast<int>(asInt(ckptField(v, "outstanding")));
        if (const Value *bs = v.find("buckets")) {
            CONSIM_ASSERT(bs->size() == mc.buckets_.size(),
                          "checkpoint: MC token-bucket count "
                          "mismatch (snapshot ", bs->size(),
                          ", machine ", mc.buckets_.size(),
                          " — was the QoS config reinstalled before "
                          "restore?)");
            for (std::size_t i = 0; i < mc.buckets_.size(); ++i) {
                const Value &e = bs->at(i);
                auto &b = mc.buckets_[i];
                b.window = e.at(0).asUint();
                b.tokens = e.at(1).asUint();
                b.issued = e.at(2).asUint();
            }
        }
    }

    // --- interconnect ---

    static Value
    savePacket(const RouterPacket &p)
    {
        Value v = Value::array();
        v.push(msgToJson(p.msg));
        v.push(p.lenFlits);
        v.push(cyclesJson(p.readyCycle));
        v.push(p.outPort);
        return v;
    }

    /** @return true when @p m is a known message type travelling
     *  between two distinct tiles of a @p tiles-tile chip. */
    static bool
    meshMsgValid(const Msg &m, int tiles)
    {
        return static_cast<unsigned>(m.type) <=
                   static_cast<unsigned>(MsgType::MemWrite) &&
               m.srcTile >= 0 && m.srcTile < tiles && m.dstTile >= 0 &&
               m.dstTile < tiles && m.srcTile != m.dstTile;
    }

    /**
     * Decode one packet of router @p r's record strictly: a valid
     * message on virtual network @p vnet (any when negative), its
     * type's length, the XY route from this tile (and output @p port
     * when not negative), and a ready cycle no later than an arrival
     * in the cycle before snapshot cycle @p now gives it.
     */
    static RouterPacket
    loadPacket(const Router &r, const Value &v, int vnet, int port,
               Cycle now)
    {
        CONSIM_ASSERT(v.size() == 4, "checkpoint: bad router record "
                      "(router ", r.tile_, ": packet with ", v.size(),
                      " fields)");
        RouterPacket p;
        p.msg = msgFromJson(v.at(0));
        const int tiles = static_cast<int>(r.shared_->col.size());
        CONSIM_ASSERT(meshMsgValid(p.msg, tiles),
                      "checkpoint: bad router record (router ", r.tile_,
                      ": ", describe(p.msg), ")");
        const std::int64_t len = asInt(v.at(1));
        const std::int64_t out = asInt(v.at(3));
        const int route = xyRoute(r.tile_, p.msg.dstTile, r.params_.meshX);
        p.readyCycle = v.at(2).asUint();
        CONSIM_ASSERT(
            (vnet < 0 || vnetOf(p.msg.type) == vnet) &&
                len == r.params_.flitsOf(p.msg.type) && out == route &&
                (port < 0 || out == port) &&
                p.readyCycle <= now + r.params_.pipelineDelay,
            "checkpoint: bad router record (router ", r.tile_, ": ",
            toString(p.msg.type), " on vnet ", vnet, " with ", len,
            " flits, port ", out, " (route ", route, "), ready at ",
            p.readyCycle, ")");
        p.lenFlits = static_cast<int>(len);
        p.outPort = static_cast<int>(out);
        return p;
    }

    /**
     * Encode router @p r at snapshot cycle @p now (the mesh last
     * ticked now - 1): each VC's queue in FIFO order, and each busy
     * output's flits still to send, remaining = done - now + 1.
     */
    static Value
    saveRouter(const Router &r, Cycle now)
    {
        const PacketPool &pool = *r.pool_;
        Value ins = Value::array();
        for (int i = 0; i < NumPorts * r.totalVcs_; ++i) {
            Value q = Value::array();
            for (unsigned k = 0; k < r.qLen_[i]; ++k)
                q.push(savePacket(pool[r.slot(i, k)]));
            Value e = Value::object();
            e.set("free", int(r.credits_[i]));
            e.set("q", std::move(q));
            ins.push(std::move(e));
        }
        Value outs = Value::array();
        for (int p = 0; p < NumPorts; ++p) {
            const Router::OutPort &o = r.outputs_[p];
            const bool busy = (r.outBusy_ >> p) & 1;
            Value e = Value::object();
            e.set("busy", busy);
            if (busy) {
                e.set("remaining", static_cast<int>(o.done - now + 1));
                e.set("dst_vc", o.dstVc);
                e.set("pkt", savePacket(pool[o.pkt]));
            }
            outs.push(std::move(e));
        }
        Value v = Value::object();
        v.set("inputs", std::move(ins));
        v.set("outputs", std::move(outs));
        v.set("rr", r.rrInput_);
        v.set("buffered", r.buffered_);
        v.set("busy_outputs", r.transitPackets());
        return v;
    }

    /**
     * Decode one router record strictly into the mesh's cleared
     * packet pool. The wake cycle, activity sets, finishing ring and
     * occupancy mask restore derives, and the allocator's indexing,
     * all trust these fields, so each must be one a run can reach;
     * per-VC credit conservation across the mesh and the pool census
     * are checked once every record is in (loadNet).
     */
    static void
    loadRouter(Router &r, const Value &v, Cycle now)
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
        const Value &ins = ckptField(v, "inputs");
        const int vcs = NumPorts * r.totalVcs_;
        CONSIM_ASSERT(ins.size() == static_cast<std::size_t>(vcs),
                      "checkpoint: router VC layout mismatch");
        int buffered = 0;
        for (int i = 0; i < vcs; ++i) {
            const Value &e = ins.at(i);
            const std::int64_t free = asInt(ckptField(e, "free"));
            CONSIM_ASSERT(free >= 0 && free <= np.vcBufferFlits, refusal,
                          " (router ", r.tile_, ": VC ", i, " free ",
                          free, ")");
            r.credits_[i] = static_cast<std::int16_t>(free);
            const int vnet = i % r.totalVcs_ / np.vcsPerVnet;
            const Value &q = ckptField(e, "q");
            // A packet holds at least one flit of its VC's buffer.
            CONSIM_ASSERT(q.size() <= static_cast<std::size_t>(
                                          np.vcBufferFlits),
                          refusal, " (router ", r.tile_, ": VC ", i,
                          " holds ", q.size(), " packets)");
            r.qHead_[i] = 0;
            r.qLen_[i] = 0;
            for (const Value &p : q.items()) {
                const PacketId h = pooled(loadPacket(r, p, vnet, -1, now));
                r.slot(i, r.qLen_[i]++) = h;
                ++buffered;
            }
        }
        const Value &outs = ckptField(v, "outputs");
        CONSIM_ASSERT(outs.size() == NumPorts,
                      "checkpoint: router port count mismatch");
        r.outBusy_ = 0;
        for (int p = 0; p < NumPorts; ++p) {
            Router::OutPort &o = r.outputs_[p];
            const Value &e = outs.at(p);
            o = Router::OutPort{};
            if (!ckptField(e, "busy").boolean())
                continue;
            const RouterPacket pkt =
                loadPacket(r, ckptField(e, "pkt"), -1, p, now);
            // Its VC downstream belongs to its vnet.
            const int vnet = vnetOf(pkt.msg.type);
            const std::int64_t rem = asInt(ckptField(e, "remaining"));
            const std::int64_t dst = asInt(ckptField(e, "dst_vc"));
            const int lo = vnet * np.vcsPerVnet;
            const bool dst_ok =
                p == PortLocal ? dst == 0
                               : dst >= lo && dst < lo + np.vcsPerVnet;
            CONSIM_ASSERT(rem >= 1 && rem <= pkt.lenFlits && dst_ok,
                          refusal, " (router ", r.tile_, ": port ", p,
                          " remaining ", rem, " dst_vc ", dst, ")");
            o.done = now + static_cast<Cycle>(rem) - 1;
            o.pkt = pooled(pkt);
            o.dstVc = static_cast<int>(dst);
            r.outBusy_ |= 1u << p;
        }
        const std::int64_t rr = asInt(ckptField(v, "rr"));
        CONSIM_ASSERT(rr >= 0 && rr < vcs, refusal, " (router ", r.tile_,
                      ": rr ", rr, ")");
        r.rrInput_ = static_cast<int>(rr);
        const std::int64_t rec_buffered = asInt(ckptField(v, "buffered"));
        const std::int64_t rec_busy = asInt(ckptField(v, "busy_outputs"));
        CONSIM_ASSERT(rec_buffered == buffered &&
                          rec_busy == r.transitPackets(),
                      refusal, " (router ", r.tile_, ": buffered ",
                      rec_buffered, " for ", buffered, " packets, ",
                      "busy_outputs ", rec_busy, " for ",
                      r.transitPackets(), ")");
        r.buffered_ = buffered;
        r.restoreDerived();
    }

    static Value
    saveNet(const System &s)
    {
        Value v = Value::object();
        v.set("injected", s.netStats_.injectedTotal);
        v.set("ejected", s.netStats_.ejectedTotal);
        if (!s.mesh_) {
            // The ideal network's messages travel as NetDeliver
            // events; the list stays in the document, always empty.
            v.set("kind", "ideal");
            v.set("inflight", Value::array());
            return v;
        }
        const Mesh &mesh = *s.mesh_;
        v.set("kind", "mesh");
        Value routers = Value::array();
        for (const auto &r : mesh.routers_)
            routers.push(saveRouter(*r, s.now_));
        v.set("routers", std::move(routers));
        Value nis = Value::array();
        for (const auto &ni : mesh.nis_) {
            Value vnets = Value::array();
            for (const auto &q : ni->queues_) {
                Value msgs = Value::array();
                for (const Msg &m : q)
                    msgs.push(msgToJson(m));
                vnets.push(std::move(msgs));
            }
            nis.push(std::move(vnets));
        }
        v.set("nis", std::move(nis));
        return v;
    }

    static void
    loadNet(System &s, const Value &v)
    {
        s.netStats_.injectedTotal = ckptField(v, "injected").asUint();
        s.netStats_.ejectedTotal = ckptField(v, "ejected").asUint();
        CONSIM_ASSERT(ckptField(v, "kind").str() ==
                          (s.mesh_ ? "mesh" : "ideal"),
                      "checkpoint: network kind mismatch");
        if (!s.mesh_) {
            const std::size_t inflight = ckptField(v, "inflight").size();
            CONSIM_ASSERT(inflight == 0,
                          "checkpoint: bad ideal-network record (",
                          inflight, " in-flight messages; the ideal "
                          "network's messages travel as events)");
            return;
        }
        Mesh &mesh = *s.mesh_;
        const Value &routers = ckptField(v, "routers");
        CONSIM_ASSERT(routers.size() == mesh.routers_.size(),
                      "checkpoint: router count mismatch");
        // The snapshot is taken between ticks: the mesh last ticked
        // the cycle before, and the records rebuild the packet pool
        // and the output stamps.
        mesh.lastTick_ = s.now_ == 0 ? 0 : s.now_ - 1;
        mesh.shared_.clearTraffic();
        for (std::size_t i = 0; i < mesh.routers_.size(); ++i)
            loadRouter(*mesh.routers_[i], routers.at(i), s.now_);
        const Value &nis = ckptField(v, "nis");
        CONSIM_ASSERT(nis.size() == mesh.nis_.size(),
                      "checkpoint: NI count mismatch");
        const int tiles = static_cast<int>(mesh.nis_.size());
        for (std::size_t i = 0; i < mesh.nis_.size(); ++i) {
            NetworkInterface &ni = *mesh.nis_[i];
            const Value &vnets = nis.at(i);
            CONSIM_ASSERT(vnets.size() == ni.queues_.size(),
                          "checkpoint: NI vnet count mismatch");
            for (std::size_t q = 0; q < ni.queues_.size(); ++q) {
                ni.queues_[q].clear();
                for (const Value &e : vnets.at(q).items()) {
                    const Msg m = msgFromJson(e);
                    CONSIM_ASSERT(meshMsgValid(m, tiles) &&
                                      m.srcTile == ni.tile_ &&
                                      vnetOf(m.type) == static_cast<int>(q),
                                  "checkpoint: bad NI record (NI ", i,
                                  " vnet ", q, ": ", describe(m), ")");
                    ni.queues_[q].push_back(m);
                }
            }
            ni.recountQueued();
        }
        // Per-VC credits and the packet census must balance across
        // the mesh, in-transit reservations included.
        try {
            mesh.checkConservation();
        } catch (const SimError &e) {
            CONSIM_ASSERT(false, "checkpoint: bad router record (",
                          e.what(), ")");
        }
    }

    // --- fault-injection runtime state ---

    static Value
    saveFaults(const System &s)
    {
        // Only live runtime state: pending WedgeCore events ride in
        // the serialized event queue, so the restored System must NOT
        // re-run setFaultPlan (it would double-fire them).
        Value v = Value::object();
        v.set("drop_armed", s.dropArmed_);
        v.set("drop_countdown", s.dropCountdown_);
        v.set("memburst_armed", s.memBurstArmed_);
        v.set("memburst_start", cyclesJson(s.memBurstStart_));
        v.set("memburst_end", cyclesJson(s.memBurstEnd_));
        v.set("memburst_extra", cyclesJson(s.memBurstExtra_));
        return v;
    }

    static void
    loadFaults(System &s, const Value &v)
    {
        s.dropArmed_ = ckptField(v, "drop_armed").boolean();
        s.dropCountdown_ = ckptField(v, "drop_countdown").asUint();
        s.memBurstArmed_ = ckptField(v, "memburst_armed").boolean();
        s.memBurstStart_ = ckptField(v, "memburst_start").asUint();
        s.memBurstEnd_ = ckptField(v, "memburst_end").asUint();
        s.memBurstExtra_ = ckptField(v, "memburst_extra").asUint();
    }

    // --- workload streams / footprints ---

    static Value
    saveVms(const System &s)
    {
        Value v = Value::array();
        for (VirtualMachine *vm : s.vms_) {
            WorkloadInstance &inst = vm->instance();
            Value streams = Value::array();
            for (int i = 0; i < inst.numThreads(); ++i) {
                SyntheticStream &st = inst.thread(i);
                Value rng = Value::array();
                for (std::uint64_t w : st.rng_.state())
                    rng.push(w);
                Value sv = Value::object();
                sv.set("rng", std::move(rng));
                sv.set("hot_shared", st.hotSharedPos_);
                sv.set("hot_private", st.hotPrivatePos_);
                sv.set("refs", st.refs_);
                sv.set("refs_in_txn",
                       static_cast<unsigned>(st.refsInTxn_));
                streams.push(std::move(sv));
            }
            const Footprint &fp = inst.footprint_;
            Value touched = Value::array();
            for (std::size_t w = 0; w < fp.words_.size(); ++w) {
                for (std::uint64_t bits = fp.words_[w]; bits;
                     bits &= bits - 1) {
                    touched.push(static_cast<std::uint64_t>(
                        w * 64 + lowestSetBit(bits)));
                }
            }
            Value fpv = Value::object();
            fpv.set("count", fp.count_);
            fpv.set("touched", std::move(touched));
            Value e = Value::object();
            e.set("streams", std::move(streams));
            e.set("footprint", std::move(fpv));
            v.push(std::move(e));
        }
        return v;
    }

    static void
    loadVms(System &s, const Value &v)
    {
        CONSIM_ASSERT(v.size() == s.vms_.size(),
                      "checkpoint: VM count mismatch");
        for (std::size_t i = 0; i < s.vms_.size(); ++i) {
            WorkloadInstance &inst = s.vms_[i]->instance();
            const Value &e = v.at(i);
            const Value &streams = ckptField(e, "streams");
            CONSIM_ASSERT(
                static_cast<int>(streams.size()) ==
                    inst.numThreads(),
                "checkpoint: thread count mismatch in vm ", i);
            for (int t = 0; t < inst.numThreads(); ++t) {
                SyntheticStream &st = inst.thread(t);
                const Value &sv = streams.at(t);
                const Value &rng = ckptField(sv, "rng");
                CONSIM_ASSERT(rng.size() == 4,
                              "checkpoint: bad rng state");
                st.rng_.setState({rng.at(0).asUint(),
                                  rng.at(1).asUint(),
                                  rng.at(2).asUint(),
                                  rng.at(3).asUint()});
                st.hotSharedPos_ = ckptField(sv, "hot_shared").asUint();
                st.hotPrivatePos_ = ckptField(sv, "hot_private").asUint();
                st.refs_ = ckptField(sv, "refs").asUint();
                st.refsInTxn_ = static_cast<std::uint32_t>(
                    ckptField(sv, "refs_in_txn").asUint());
            }
            // Offsets must ascend strictly and fit the footprint; the
            // count is derived from them and must match the record.
            Footprint &fp = inst.footprint_;
            const Value &fpv = ckptField(e, "footprint");
            const Value &touched = ckptField(fpv, "touched");
            std::fill(fp.words_.begin(), fp.words_.end(), 0);
            fp.count_ = 0;
            for (std::size_t j = 0; j < touched.size(); ++j) {
                const std::uint64_t off = touched.at(j).asUint();
                CONSIM_ASSERT(j == 0 || off > touched.at(j - 1).asUint(),
                              "checkpoint: bad footprint in vm ", i,
                              " (offset ", off, " not ascending)");
                CONSIM_ASSERT(off < fp.capacity_,
                              "checkpoint: bad footprint in vm ", i,
                              " (offset ", off, " outside ",
                              fp.capacity_, " blocks)");
                fp.touch(off);
            }
            const std::uint64_t count = ckptField(fpv, "count").asUint();
            CONSIM_ASSERT(count == fp.count_,
                          "checkpoint: bad footprint in vm ", i,
                          " (count ", count, " for ", fp.count_,
                          " offsets)");
        }
    }

    // --- whole machine ---

    static Value
    saveMachine(const System &s)
    {
        Value m = Value::object();
        // Mesh geometry is in the document (not just the context) so
        // a restore can sanity-check the rebuilt machine's shape
        // against the snapshot before walking any per-tile arrays.
        Value mesh = Value::array();
        mesh.push(s.cfg_.meshX);
        mesh.push(s.cfg_.meshY);
        m.set("mesh", std::move(mesh));
        m.set("cycle", cyclesJson(s.now_));
        m.set("events", saveEvents(s));
        Value cores = Value::array();
        for (const auto &c : s.cores_)
            cores.push(saveCore(s, *c));
        m.set("cores", std::move(cores));
        Value l1s = Value::array();
        for (const auto &l : s.l1s_)
            l1s.push(saveL1(*l));
        m.set("l1s", std::move(l1s));
        Value banks = Value::array();
        for (const auto &b : s.banks_)
            banks.push(saveBank(*b));
        m.set("banks", std::move(banks));
        Value dirs = Value::array();
        for (const auto &d : s.dirs_)
            dirs.push(saveDir(*d));
        m.set("dirs", std::move(dirs));
        Value mcs = Value::array();
        for (const auto &mc : s.mcs_)
            mcs.push(saveMc(*mc));
        m.set("mcs", std::move(mcs));
        m.set("dir_entries", saveDirEntries(s.dirStorage_));
        m.set("net", saveNet(s));
        m.set("faults", saveFaults(s));
        // QoS runtime state (v4): the dynamic repartitioner's way
        // allocation and miss-curve samples. Emitted only when QoS is
        // active so QoS-free snapshots keep their exact prior shape.
        if (s.isolation_.enabled())
            m.set("qos", s.isolation_.saveState());
        // Dynamic-scheduling runtime state (v5): the migration
        // count, the epoch-baseline counters the policies delta
        // against and the feedback loop. The policies themselves are
        // pure functions, so this is the entire state. Emitted only
        // when armed so dyn-free snapshots keep their exact prior
        // shape.
        if (s.scheduler_.enabled())
            m.set("dyn_sched", s.scheduler_.saveState());
        m.set("stats", s.statsRoot_.saveState());
        return m;
    }

    static void
    loadMachine(System &s, const Value &m)
    {
        // Restore targets a freshly constructed System: directory
        // entries, cache arrays and queues all start default there,
        // and the sparse loaders rely on it.
        CONSIM_ASSERT(s.now_ == 0 && s.events_.empty(),
                      "restoreCheckpoint needs a fresh System");
        const Value &mesh = ckptField(m, "mesh");
        CONSIM_ASSERT(static_cast<int>(asInt(mesh.at(0))) ==
                              s.cfg_.meshX &&
                          static_cast<int>(asInt(mesh.at(1))) ==
                              s.cfg_.meshY,
                      "checkpoint: mesh geometry mismatch (snapshot ",
                      asInt(mesh.at(0)), "x", asInt(mesh.at(1)),
                      ", machine ", s.cfg_.meshX, "x", s.cfg_.meshY,
                      ")");
        // The clock must be set before events: insertAbs checks
        // every due cycle against now.
        s.now_ = ckptField(m, "cycle").asUint();
        loadEvents(s, ckptField(m, "events"));
        const Value &cores = ckptField(m, "cores");
        CONSIM_ASSERT(cores.size() == s.cores_.size(),
                      "checkpoint: core count mismatch");
        for (std::size_t i = 0; i < s.cores_.size(); ++i)
            loadCore(s, *s.cores_[i], cores.at(i));
        const Value &l1s = ckptField(m, "l1s");
        CONSIM_ASSERT(l1s.size() == s.l1s_.size(),
                      "checkpoint: L1 count mismatch");
        for (std::size_t i = 0; i < s.l1s_.size(); ++i)
            loadL1(*s.l1s_[i], l1s.at(i));
        const Value &banks = ckptField(m, "banks");
        CONSIM_ASSERT(banks.size() == s.banks_.size(),
                      "checkpoint: bank count mismatch");
        for (std::size_t i = 0; i < s.banks_.size(); ++i)
            loadBank(*s.banks_[i], banks.at(i));
        const Value &dirs = ckptField(m, "dirs");
        CONSIM_ASSERT(dirs.size() == s.dirs_.size(),
                      "checkpoint: directory count mismatch");
        for (std::size_t i = 0; i < s.dirs_.size(); ++i)
            loadDir(*s.dirs_[i], dirs.at(i));
        const Value &mcs = ckptField(m, "mcs");
        CONSIM_ASSERT(mcs.size() == s.mcs_.size(),
                      "checkpoint: MC count mismatch");
        for (std::size_t i = 0; i < s.mcs_.size(); ++i)
            loadMc(*s.mcs_[i], mcs.at(i));
        loadDirEntries(s, ckptField(m, "dir_entries"));
        loadNet(s, ckptField(m, "net"));
        loadFaults(s, ckptField(m, "faults"));
        if (const Value *q = m.find("qos"))
            s.isolation_.restoreState(*q);
        if (const Value *d = m.find("dyn_sched"))
            s.scheduler_.restoreState(*d);
        s.statsRoot_.restoreState(ckptField(m, "stats"));
    }
};

json::Value
System::saveCheckpoint() const
{
    json::Value doc = json::Value::object();
    doc.set("schema", "consim.ckpt.v5");
    doc.set("context", ckptCtx_);
    doc.set("machine", CkptAccess::saveMachine(*this));
    doc.set("vms", CkptAccess::saveVms(*this));
    return doc;
}

void
System::restoreCheckpoint(const json::Value &doc)
{
    checkCkptSchema(doc);
    CkptAccess::loadMachine(*this, ckptField(doc, "machine"));
    CkptAccess::loadVms(*this, ckptField(doc, "vms"));
    // Operational knobs (watchdog, deadline, periodic snapshotting)
    // are deliberately not part of the document: callers re-arm them
    // after restore, and setWatchdogInterval re-baselines its
    // progress snapshot against the restored clock.
}

} // namespace consim
