/**
 * @file
 * Global allocation counter.
 *
 * The library replaces the global operator new/delete pair with
 * malloc/free wrappers that bump a relaxed atomic counter per
 * allocation. The hot paths are engineered to be allocation-free in
 * steady state (pooled transaction tables, ring-buffered queues,
 * in-place sharer sets, pre-sized calendar buckets); the counter is
 * how tests and benches *prove* that instead of assuming it. The
 * counter costs one relaxed atomic increment per allocation, which
 * is noise precisely because steady state performs none.
 *
 * Usage: snapshot allocCount() after warm-up, run the measure
 * window, and assert the delta is zero.
 */

#ifndef CONSIM_COMMON_ALLOC_HOOK_HH
#define CONSIM_COMMON_ALLOC_HOOK_HH

#include <cstdint>

namespace consim
{

/** @return global operator-new invocations since process start. */
std::uint64_t allocCount();

/**
 * Debug tripwire: while armed, the next few allocations dump their
 * call stacks to stderr (raw addresses — resolve with addr2line).
 * Arm it after warmup to find whatever broke a zero-allocation
 * window.
 */
void allocTrap(bool on);

} // namespace consim

#endif // CONSIM_COMMON_ALLOC_HOOK_HH
