/**
 * @file
 * Cache line payloads and coherence state enums shared by the private
 * (L0/L1) and last-level (L2) caches. A payload holds only its cache's
 * own per-line state: which block a slot holds and when it was last
 * touched are the CacheArray's.
 */

#ifndef CONSIM_CACHE_CACHE_LINE_HH
#define CONSIM_CACHE_CACHE_LINE_HH

#include <cstdint>
#include <string>

#include "common/coreset.hh"
#include "common/types.hh"

namespace consim
{

/**
 * Coherence state of a line in a private L0/L1 cache. Within an L2
 * sharing group the partition acts as a local directory over member
 * L1s, so a simple MSI suffices at this level.
 */
enum class L1State : std::uint8_t
{
    Invalid,
    Shared,
    Modified,
};

/** @return short name ("I"/"S"/"M"). */
inline const char *
toString(L1State s)
{
    switch (s) {
      case L1State::Invalid:
        return "I";
      case L1State::Shared:
        return "S";
      case L1State::Modified:
        return "M";
    }
    return "?";
}

/**
 * Partition-level MESI state of a line in an L2 partition, as tracked
 * by the global (SGI-Origin-style) directory. Exclusive allows silent
 * upgrade to Modified inside the partition.
 */
enum class L2State : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** @return short name ("I"/"S"/"E"/"M"). */
inline const char *
toString(L2State s)
{
    switch (s) {
      case L2State::Invalid:
        return "I";
      case L2State::Shared:
        return "S";
      case L2State::Exclusive:
        return "E";
      case L2State::Modified:
        return "M";
    }
    return "?";
}

/** A line in a private L0 or L1 cache. */
struct PrivateCacheLine
{
    L1State state = L1State::Invalid;
};

/** A line in an L2 partition bank. */
struct L2CacheLine
{
    L2State state = L2State::Invalid;
    bool dirty = false;          ///< modified relative to memory
    bool pinned = false;         ///< mid-eviction; not a victim candidate
    std::int16_t ownerCore = -1; ///< local index of L1 owner, -1 none
    CoreSet presence;            ///< member-core L1 presence (local idx)
    VmId vm = invalidVm;         ///< owning virtual machine (for stats)
};

} // namespace consim

#endif // CONSIM_CACHE_CACHE_LINE_HH
