/**
 * @file
 * Width-parametric core/group bitsets for sharer and presence
 * tracking.
 *
 * The directory and the L2 banks historically tracked sharers in
 * 16-bit masks, which hard-wired the paper's 16-core chip into the
 * coherence layer. CoreSet replaces those masks with a set that is
 * parametric in width while staying as dense as a plain word for
 * every configuration up to 64 cores/groups:
 *
 *  - bits 0..63 live in an inline word (no allocation, ops compile
 *    to the same and/or/shift instructions the old masks used);
 *  - bits >= 64 spill into a heap-allocated word vector, so 128- and
 *    256-core meshes work without a separate type.
 *
 * Sets auto-grow on set(): callers never declare a width up front,
 * and a default-constructed CoreSet is the empty set. This keeps
 * sizeof(CoreSet) at two pointers, which matters because every L2
 * line carries a presence set and every live directory entry a
 * sharer set (a few hundred thousand of each on a 16 MB L2). A
 * moved-from set hands over its spilled words, so a pool of spilled
 * empty sets can be recycled without allocating (the directory store
 * keeps one above 64 groups).
 *
 * Semantics are pure value semantics: copies are deep, equality
 * ignores trailing zero words, and word I/O (words()/fromWords())
 * gives checkpoints a stable, width-independent serialization.
 */

#ifndef CONSIM_COMMON_CORESET_HH
#define CONSIM_COMMON_CORESET_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace consim
{

/** Dynamically-sized bitset over core (or group) indices. */
class CoreSet
{
  public:
    CoreSet() = default;

    CoreSet(const CoreSet &o) : w0_(o.w0_)
    {
        if (o.ext_)
            ext_ = new std::vector<std::uint64_t>(*o.ext_);
    }

    CoreSet(CoreSet &&o) noexcept : w0_(o.w0_), ext_(o.ext_)
    {
        o.w0_ = 0;
        o.ext_ = nullptr;
    }

    CoreSet &
    operator=(const CoreSet &o)
    {
        if (this != &o) {
            CoreSet tmp(o);
            swap(tmp);
        }
        return *this;
    }

    CoreSet &
    operator=(CoreSet &&o) noexcept
    {
        swap(o);
        return *this;
    }

    ~CoreSet() { delete ext_; }

    void
    swap(CoreSet &o) noexcept
    {
        std::swap(w0_, o.w0_);
        std::swap(ext_, o.ext_);
    }

    /** @return the set containing only @p idx. */
    static CoreSet
    single(int idx)
    {
        CoreSet s;
        s.set(idx);
        return s;
    }

    /** Make this set exactly { @p idx } in place. Unlike assigning
     *  single(idx), spilled storage is reused, not reallocated. */
    void
    assignSingle(int idx)
    {
        reset();
        set(idx);
    }

    /** Add @p idx to the set (grows storage as needed). */
    void
    set(int idx)
    {
        CONSIM_ASSERT(idx >= 0, "CoreSet::set: negative index ", idx);
        if (idx < 64) {
            w0_ |= std::uint64_t(1) << idx;
            return;
        }
        const std::size_t w = static_cast<std::size_t>(idx) / 64;
        if (!ext_)
            ext_ = new std::vector<std::uint64_t>();
        if (ext_->size() < w)
            ext_->resize(w, 0);
        (*ext_)[w - 1] |= std::uint64_t(1) << (idx % 64);
    }

    /** Remove @p idx from the set (no-op when absent). */
    void
    clear(int idx)
    {
        CONSIM_ASSERT(idx >= 0, "CoreSet::clear: negative index ", idx);
        if (idx < 64) {
            w0_ &= ~(std::uint64_t(1) << idx);
            return;
        }
        const std::size_t w = static_cast<std::size_t>(idx) / 64;
        if (ext_ && w <= ext_->size())
            (*ext_)[w - 1] &= ~(std::uint64_t(1) << (idx % 64));
    }

    /** @return true iff @p idx is in the set. */
    bool
    test(int idx) const
    {
        if (idx < 0)
            return false;
        if (idx < 64)
            return (w0_ >> idx) & 1;
        const std::size_t w = static_cast<std::size_t>(idx) / 64;
        if (!ext_ || w > ext_->size())
            return false;
        return ((*ext_)[w - 1] >> (idx % 64)) & 1;
    }

    /** Remove every member. Keeps any spilled storage for reuse. */
    void
    reset()
    {
        w0_ = 0;
        if (ext_)
            for (std::uint64_t &w : *ext_)
                w = 0;
    }

    /** @return true iff the set is non-empty. */
    bool
    any() const
    {
        if (w0_)
            return true;
        if (ext_)
            for (std::uint64_t w : *ext_)
                if (w)
                    return true;
        return false;
    }

    /** @return true iff the set is empty. */
    bool none() const { return !any(); }

    /** @return true when members >= 64 have heap storage. */
    bool spilled() const { return ext_ != nullptr; }

    /** @return number of members. */
    int
    count() const
    {
        int n = popCount(w0_);
        if (ext_)
            for (std::uint64_t w : *ext_)
                n += popCount(w);
        return n;
    }

    /** @return lowest member index, or -1 when empty. */
    int
    findFirst() const
    {
        if (w0_)
            return lowestSetBit(w0_);
        if (ext_) {
            for (std::size_t i = 0; i < ext_->size(); ++i) {
                if ((*ext_)[i])
                    return static_cast<int>((i + 1) * 64) +
                           lowestSetBit((*ext_)[i]);
            }
        }
        return -1;
    }

    /** @return true iff the set is exactly { @p idx }. */
    bool
    isExactly(int idx) const
    {
        return test(idx) && count() == 1;
    }

    /** Call @p f(int idx) for every member, ascending. */
    template <typename F>
    void
    forEachSet(F &&f) const
    {
        for (std::uint64_t w = w0_; w;) {
            const int b = lowestSetBit(w);
            f(b);
            w &= w - 1;
        }
        if (ext_) {
            for (std::size_t i = 0; i < ext_->size(); ++i) {
                for (std::uint64_t w = (*ext_)[i]; w;) {
                    const int b = lowestSetBit(w);
                    f(static_cast<int>((i + 1) * 64) + b);
                    w &= w - 1;
                }
            }
        }
    }

    /** Equality over members (trailing zero words are irrelevant). */
    bool
    operator==(const CoreSet &o) const
    {
        if (w0_ != o.w0_)
            return false;
        const std::size_t na = ext_ ? ext_->size() : 0;
        const std::size_t nb = o.ext_ ? o.ext_->size() : 0;
        for (std::size_t i = 0; i < (na > nb ? na : nb); ++i) {
            const std::uint64_t a = i < na ? (*ext_)[i] : 0;
            const std::uint64_t b = i < nb ? (*o.ext_)[i] : 0;
            if (a != b)
                return false;
        }
        return true;
    }

    bool operator!=(const CoreSet &o) const { return !(*this == o); }

    /**
     * @return the set as little-endian 64-bit words with trailing
     * zero words trimmed (empty vector for the empty set). Stable
     * across widths, so checkpoints serialize it directly.
     */
    std::vector<std::uint64_t>
    words() const
    {
        std::vector<std::uint64_t> out;
        out.push_back(w0_);
        if (ext_)
            for (std::uint64_t w : *ext_)
                out.push_back(w);
        while (!out.empty() && out.back() == 0)
            out.pop_back();
        return out;
    }

    /** Rebuild a set from words() output. */
    static CoreSet
    fromWords(const std::vector<std::uint64_t> &words)
    {
        CoreSet s;
        if (!words.empty())
            s.w0_ = words[0];
        if (words.size() > 1) {
            s.ext_ = new std::vector<std::uint64_t>(words.begin() + 1,
                                                    words.end());
        }
        return s;
    }

  private:
    std::uint64_t w0_ = 0;                   ///< members 0..63
    std::vector<std::uint64_t> *ext_ = nullptr; ///< members 64.. (rare)
};

/** Sharer sets are indexed by GroupId; same representation. */
using GroupSet = CoreSet;

} // namespace consim

#endif // CONSIM_COMMON_CORESET_HH
