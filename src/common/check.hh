/**
 * @file
 * Hardening layer core: recoverable simulation errors and runtime
 * check levels.
 *
 * Philosophy: a failed point must say why it failed, and must not
 * take the other points of its sweep down with it. Three pieces
 * cooperate:
 *
 *  - SimError: a recoverable exception carrying a machine-readable
 *    kind and (optionally) a `consim.diag.v1` JSON dump. One wedged
 *    simulation point throws; the sweep engine records the failure
 *    against that point alone, and the caller decides (every bench
 *    exits 1 on it).
 *
 *  - Check levels (CONSIM_CHECK env / setCheckLevel):
 *      off   — seed behaviour: invariant violations abort the process
 *              (CONSIM_ASSERT panics), no extra checking anywhere.
 *      basic — CONSIM_ASSERT violations throw SimError instead of
 *              aborting, so one bad point cannot take down a fleet of
 *              sweep workers.
 *      full  — basic, plus cross-component audits at measurement
 *              window boundaries: directory/L1/L2 sharer-state
 *              consistency, NoC VC credit/flit conservation, and
 *              stuck-transaction (MSHR leak) detection.
 *
 *  - CONSIM_CHECK_ACTIVE(level): the guard every checker call site
 *    sits behind: a single relaxed atomic load, paid only at window
 *    boundaries, never per cycle.
 */

#ifndef CONSIM_COMMON_CHECK_HH
#define CONSIM_COMMON_CHECK_HH

#include <atomic>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace consim
{

/** What went wrong, machine-readable (SweepRun::errorKind). */
enum class SimErrorKind
{
    Invariant, ///< a CONSIM_ASSERT / checker audit failed
    Watchdog,  ///< forward-progress watchdog detected a stall
    Deadline,  ///< per-point simulated-cycle deadline exceeded
};

/** @return stable lower-case tag ("invariant", "watchdog", ...). */
const char *toString(SimErrorKind k);

/**
 * Recoverable simulation failure. Thrown instead of aborting when the
 * check level is basic or above (and always by the watchdog/deadline,
 * which exist precisely to convert hangs into reportable errors).
 */
class SimError : public std::runtime_error
{
  public:
    SimError(SimErrorKind kind, const std::string &msg,
             std::string diag = "")
        : std::runtime_error(msg), kind_(kind), diag_(std::move(diag))
    {
    }

    SimErrorKind kind() const { return kind_; }

    /** `consim.diag.v1` JSON text captured at failure (may be ""). */
    const std::string &diag() const { return diag_; }

    /** Attach the most recent pre-trip checkpoint (may be ""). */
    void setCkpt(std::string ckpt) { ckpt_ = std::move(ckpt); }

    /** `consim.ckpt.v5` JSON text of the last snapshot before the
     *  failure ("" when periodic snapshotting was off). */
    const std::string &ckpt() const { return ckpt_; }

  private:
    SimErrorKind kind_;
    std::string diag_;
    std::string ckpt_;
};

namespace check
{

/** Runtime checking intensity; see file header. */
enum class Level : int
{
    Off = 0,
    Basic = 1,
    Full = 2,
};

/**
 * @return the level CONSIM_CHECK names (off when unset). A value that
 * is not off|basic|full (or 0/1/2) is fatal: running unchecked would
 * not be the run asked for.
 */
Level levelFromEnv();

/** Cached level; initialized from levelFromEnv() on first use. */
std::atomic<int> &levelStorage();

/** @return the current check level. */
inline Level
level()
{
    return static_cast<Level>(
        levelStorage().load(std::memory_order_relaxed));
}

/** Override the level (tests, tools; also wins over the env). */
void setLevel(Level l);

/** Parse "off" | "basic" | "full" (also 0/1/2); false on garbage. */
bool parseLevel(const std::string &s, Level &out);

/** @return human-readable level name. */
const char *toString(Level l);

/** @return true when checking at @p min or stronger is active. */
inline bool
enabled(Level min)
{
    return level() >= min;
}

/**
 * Refusals of outside input. A snapshot that restore refuses is bad
 * input, not a simulator bug, so a front end that reports bad input
 * opens a RefusalsThrow on its thread (consim_run --resume exits 1).
 * While one is open, a check that fails inside an InputScope, which
 * the snapshot readers open, throws SimError at every level. Any
 * other failed check acts as the level says, so a resumed run's own
 * checks, and a library caller that opened no RefusalsThrow, still
 * abort at off.
 */
class RefusalsThrow
{
  public:
    RefusalsThrow();
    ~RefusalsThrow();
    RefusalsThrow(const RefusalsThrow &) = delete;
    RefusalsThrow &operator=(const RefusalsThrow &) = delete;
};

/** The reading of outside input on this thread (see RefusalsThrow). */
class InputScope
{
  public:
    InputScope();
    ~InputScope();
    InputScope(const InputScope &) = delete;
    InputScope &operator=(const InputScope &) = delete;
};

} // namespace check

} // namespace consim

/** Guard for checker call sites: `CONSIM_CHECK_ACTIVE(Full)` reads the
 *  runtime level. */
#define CONSIM_CHECK_ACTIVE(lvl)                                             \
    (::consim::check::enabled(::consim::check::Level::lvl))

/**
 * Report a checker audit failure: always throws SimError (checkers
 * only run in checked mode, where recoverability is the point).
 */
#define CONSIM_CHECK_FAIL(...)                                               \
    throw ::consim::SimError(                                                \
        ::consim::SimErrorKind::Invariant,                                   \
        ::consim::logging::format(__VA_ARGS__, " at ", __FILE__, ":",        \
                                  __LINE__))

#endif // CONSIM_COMMON_CHECK_HH
