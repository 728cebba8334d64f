/**
 * @file
 * Error / status reporting in the gem5 style.
 *
 * panic()  - simulator bug; should never happen regardless of input.
 * fatal()  - user error (bad configuration); clean exit.
 * warn()   - suspicious but survivable condition.
 * inform() - plain status output.
 */

#ifndef CONSIM_COMMON_LOGGING_HH
#define CONSIM_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace consim
{

namespace logging
{

/** Abort with a "panic" message; indicates a simulator bug. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/**
 * Invariant-violation sink for CONSIM_ASSERT: throws a recoverable
 * SimError when the runtime check level is basic or above (so sweep
 * workers can contain the failure), panics otherwise. Implemented in
 * common/check.cc.
 */
[[noreturn]] void invariantFailImpl(const char *file, int line,
                                    const std::string &msg);

/** Exit(1) with a "fatal" message; indicates a user/config error. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning to stderr. */
void warnImpl(const std::string &msg);

/** Print an informational message to stdout. */
void informImpl(const std::string &msg);

/** Enable/disable inform() output (benches silence it). */
void setVerbose(bool verbose);

/** @return whether inform() output is enabled. */
bool verbose();

/** Tiny printf-free formatter: concatenates streamable args. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace logging

} // namespace consim

/** An unreachable branch: fails like a CONSIM_ASSERT (aborts under
 *  CONSIM_CHECK=off, throws SimError under checked levels). */
#define CONSIM_PANIC(...)                                                    \
    ::consim::logging::invariantFailImpl(                                    \
        __FILE__, __LINE__, ::consim::logging::format(__VA_ARGS__))

#define CONSIM_FATAL(...)                                                    \
    ::consim::logging::fatalImpl(__FILE__, __LINE__,                         \
                                 ::consim::logging::format(__VA_ARGS__))

#define CONSIM_WARN(...)                                                     \
    ::consim::logging::warnImpl(::consim::logging::format(__VA_ARGS__))

#define CONSIM_INFORM(...)                                                   \
    ::consim::logging::informImpl(::consim::logging::format(__VA_ARGS__))

/**
 * Invariant check that survives NDEBUG; use for protocol invariants.
 * Aborts under CONSIM_CHECK=off (default); throws SimError in checked
 * mode so a sweep worker survives one poisoned simulation point.
 */
#define CONSIM_ASSERT(cond, ...)                                             \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::consim::logging::invariantFailImpl(                            \
                __FILE__, __LINE__,                                          \
                ::consim::logging::format(                                   \
                    #cond, " ",                                              \
                    ::consim::logging::format(__VA_ARGS__)));                \
        }                                                                    \
    } while (0)

#endif // CONSIM_COMMON_LOGGING_HH
