/**
 * @file
 * Checkpoint/resume (`consim.ckpt.v5`): serialization of the complete
 * deterministic machine state.
 *
 * A checkpoint captures everything the next cycle's behaviour depends
 * on — the clock, the event queue (SimEvents; see fabric.hh),
 * every cache array slot-index-exact (victim() choices depend on slot
 * order and LRU stamps), the bank/directory transaction tables, the
 * NoC's VC queues, credits and in-flight transmissions, the
 * memory-controller channels, workload RNG streams and hot-window
 * positions, fault-injection runtime state, thread-to-core bindings,
 * and the raw statistics registry. Restoring it into a freshly
 * constructed System built from the same configuration reproduces the
 * uninterrupted run byte for byte, including the final
 * `consim.run.v1` JSON.
 *
 * Document layout:
 *
 *   {
 *     "schema":  "consim.ckpt.v5",
 *     "context": { ... },   // experiment-layer context, verbatim
 *                           // (run config echo, phase, migration RNG)
 *     "machine": { cycle, events, cores, l1s, banks, dirs, mcs,
 *                  dir_entries, net, faults, stats },
 *     "vms":     [ { streams, footprint }, ... ]
 *   }
 *
 * The machine section stores no configuration: structural parameters
 * (cache geometry, mesh shape, placements) are re-derived by
 * constructing the System from the same config, and restore asserts
 * shape agreement where it is cheap to do so. The experiment layer
 * embeds the full run configuration in "context" so a resume can
 * rebuild that System without out-of-band information.
 *
 * Every record is declared once, as a field list: a function template
 * over a walker (ckpt::Save or ckpt::Load) naming the record's fields
 * in document order, each with its domain.
 *
 * Entry points are System::saveCheckpoint / System::restoreCheckpoint
 * (core/system.hh); this header exposes the walkers (the experiment
 * context is declared with them too), the schema check resume runs
 * before it rebuilds a System, a required-member reader, and the
 * protocol-message codec, which tests reuse.
 */

#ifndef CONSIM_CORE_CHECKPOINT_HH
#define CONSIM_CORE_CHECKPOINT_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "coherence/protocol.hh"
#include "common/coreset.hh"
#include "common/json.hh"

namespace consim
{

namespace ckpt
{

/** The values an integer field may hold: lo..hi. An unsigned 64-bit
 *  field whose hi is INT64_MAX is unbounded; a word set's domain
 *  bounds its bit indices. */
struct Dom
{
    std::int64_t lo;
    std::int64_t hi;
};

constexpr std::int64_t unbounded = std::numeric_limits<std::int64_t>::max();

/** A count: any value from 0. */
constexpr Dom counts{0, unbounded};

/** @return "an index below @p n". */
constexpr Dom below(std::int64_t n) { return {0, n - 1}; }

/** @return "an index below @p n, or -1 for none". */
constexpr Dom belowOrNone(std::int64_t n) { return {-1, n - 1}; }

/** @return the enumerators @p first .. @p last. */
template <typename E>
constexpr Dom
span(E first, E last)
{
    return {static_cast<std::int64_t>(first),
            static_cast<std::int64_t>(last)};
}

/** @return every value an integral or enum T holds (others: any). */
template <typename T>
constexpr Dom
whole()
{
    if constexpr (std::is_enum_v<T>) {
        return whole<std::underlying_type_t<T>>();
    } else if constexpr (std::is_integral_v<T> && sizeof(T) < 8) {
        using L = std::numeric_limits<T>;
        return {L::min(), L::max()};
    } else {
        return {std::is_signed_v<T> ? -unbounded - 1 : 0, unbounded};
    }
}

/** Writes a record's field list as a JSON array (positional) or
 *  object (keyed); it ignores the domains. */
class Save
{
  public:
    static constexpr bool loading = false;

    explicit Save(bool keyed = false)
        : v(keyed ? json::Value::object() : json::Value::array())
    {
    }

    template <typename T>
    void
    operator()(const char *name, const T &x, Dom = {})
    {
        if constexpr (std::is_same_v<T, CoreSet>) {
            json::Value words = json::Value::array();
            for (const std::uint64_t w : x.words())
                words.push(w);
            put(name, std::move(words));
        } else if constexpr (std::is_enum_v<T>) {
            put(name, static_cast<std::int64_t>(x));
        } else if constexpr (std::is_integral_v<T> &&
                             !std::is_same_v<T, bool>) {
            put(name, std::conditional_t<std::is_signed_v<T>, std::int64_t,
                                         std::uint64_t>(x));
        } else {
            put(name, x);
        }
    }

    /** Nested record @p r, whose fields fields(io, r) lists. */
    template <typename R, typename F>
    void
    record(const char *name, R &r, F &&fields, bool keyed = false,
           const char * = nullptr)
    {
        Save sub(keyed);
        fields(sub, r);
        put(name, std::move(sub.v));
    }

    /** A list, each item written by fields(io, item, index). */
    template <typename C, typename F>
    void
    each(const char *name, C &items, F &&fields, const char * = nullptr)
    {
        Save sub;
        std::size_t i = 0;
        for (auto &x : items)
            fields(sub, x, i++);
        put(name, std::move(sub.v));
    }

    template <typename C, typename F>
    void
    list(const char *name, C &items, F &&fields, const char * = nullptr)
    {
        each(name, items, fields);
    }

    /** @return @p present: whether the optional fields that follow
     *  are written. */
    bool has(const char *, bool present) const { return present; }

    json::Value v;

  private:
    void put(const char *name, json::Value x);
};

/**
 * Reads a field list back. A refusal (a failed CONSIM_ASSERT) reads
 * "<refusal> (<path> <problem>)": a missing field, another JSON kind,
 * a value outside its domain or an array of another length. Nested
 * records inherit the refusal unless they name their own. A
 * floating-point field takes any JSON number kind (the writer prints
 * an integral double as an integer literal) and must be finite and
 * not below 0; it has no other domain.
 */
class Load
{
  public:
    static constexpr bool loading = true;

    /** Decode @p v; @p name roots the paths refusals print. */
    Load(const json::Value &v, const char *refusal, const char *name = "",
         bool keyed = false)
        : Load(v, refusal, nullptr, name, keyed)
    {
    }

    template <typename T>
    void
    operator()(const char *name, T &x, Dom d = whole<T>())
    {
        const json::Value &f = next(name);
        if constexpr (std::is_same_v<T, json::Value>) {
            x = f;
        } else if constexpr (std::is_same_v<T, bool>) {
            x = of(name, f, json::Value::Kind::Bool, "a bool").boolean();
        } else if constexpr (std::is_same_v<T, std::string>) {
            x = of(name, f, json::Value::Kind::String, "a string").str();
        } else if constexpr (std::is_same_v<T, CoreSet>) {
            x = wordSet(name, f, d);
        } else if constexpr (std::is_floating_point_v<T>) {
            x = static_cast<T>(real(name, f));
        } else {
            const Dom w = whole<T>();
            const std::uint64_t bits = integer(
                name, f, {std::max(d.lo, w.lo), std::min(d.hi, w.hi)});
            if constexpr (std::is_unsigned_v<T>)
                x = static_cast<T>(bits);
            else
                x = static_cast<T>(static_cast<std::int64_t>(bits));
        }
    }

    template <typename R, typename F>
    void
    record(const char *name, R &r, F &&fields, bool keyed = false,
           const char *refusal = nullptr)
    {
        Load sub(next(name), refusal ? refusal : refusal_, this, name,
                 keyed);
        fields(sub, r);
        sub.done();
    }

    /** A fixed-length list: it must have items.size() entries. */
    template <typename C, typename F>
    void
    each(const char *name, C &items, F &&fields,
         const char *refusal = nullptr)
    {
        Load sub(next(name), refusal ? refusal : refusal_, this, name);
        if (sub.v_.size() != items.size())
            sub.refuse(nullptr, "has ", sub.v_.size(), " entries, want ",
                       items.size());
        std::size_t i = 0;
        for (auto &x : items)
            fields(sub, x, i++);
        sub.done();
    }

    /** A variable-length list, read into @p items. */
    template <typename V, typename F>
    void
    list(const char *name, std::vector<V> &items, F &&fields,
         const char *refusal = nullptr)
    {
        Load sub(next(name), refusal ? refusal : refusal_, this, name);
        items.assign(sub.v_.size(), V{});
        for (std::size_t i = 0; i < items.size(); ++i)
            fields(sub, items[i], i);
        sub.done();
    }

    /** @return whether this keyed record holds optional @p name. */
    bool has(const char *name, bool) const { return v_.find(name); }

    /** @return required member @p name of this keyed record. */
    const json::Value &member(std::string_view name);

    /** Refuse field @p field (null: the record itself). */
    template <typename... Args>
    [[noreturn]] void
    refuse(const char *field, const Args &...detail) const
    {
        fail(field, logging::format(detail...));
    }

  private:
    Load(const json::Value &v, const char *refusal, const Load *outer,
         const char *name, bool keyed = false);

    const json::Value &next(const char *name);
    void done() const;
    std::string path() const;
    [[noreturn]] void fail(const char *field,
                           const std::string &detail) const;
    const json::Value &of(const char *name, const json::Value &f,
                          json::Value::Kind k, const char *what) const;
    std::uint64_t integer(const char *name, const json::Value &f,
                          Dom d) const;
    double real(const char *name, const json::Value &f) const;
    CoreSet wordSet(const char *name, const json::Value &f, Dom d) const;

    const json::Value &v_;
    const char *refusal_;
    const Load *outer_;
    const char *name_;
    std::size_t idx_;     ///< position in a positional outer record
    std::size_t pos_ = 0; ///< next positional field
};

} // namespace ckpt

/** Refuse @p doc unless it is a `consim.ckpt.v5` document, naming
 *  what each older schema lacks. */
void checkCkptSchema(const json::Value &doc);

/** @return required member @p key of a checkpoint object (refuses
 *  the document when it is missing). */
const json::Value &ckptField(const json::Value &obj,
                             std::string_view key);

/** Serialize a protocol message as a fixed-position JSON array. */
json::Value msgToJson(const Msg &m);

/** Inverse of msgToJson, refusing a field outside its type's domain
 *  (restore bounds tiles, groups and VMs by the machine instead). */
Msg msgFromJson(const json::Value &v);

} // namespace consim

#endif // CONSIM_CORE_CHECKPOINT_HH
