#include "common/check.hh"

#include <cstdlib>

namespace consim
{

const char *
toString(SimErrorKind k)
{
    switch (k) {
      case SimErrorKind::Invariant:
        return "invariant";
      case SimErrorKind::Watchdog:
        return "watchdog";
      case SimErrorKind::Deadline:
        return "deadline";
    }
    return "?";
}

namespace check
{

Level
levelFromEnv()
{
    const char *v = std::getenv("CONSIM_CHECK");
    if (!v)
        return Level::Off;
    Level l;
    if (!parseLevel(v, l)) {
        CONSIM_FATAL("CONSIM_CHECK='", v,
                     "' is not off|basic|full; unset it or pass one of "
                     "those levels");
    }
    return l;
}

std::atomic<int> &
levelStorage()
{
    static std::atomic<int> storage{static_cast<int>(levelFromEnv())};
    return storage;
}

void
setLevel(Level l)
{
    levelStorage().store(static_cast<int>(l),
                         std::memory_order_relaxed);
}

bool
parseLevel(const std::string &s, Level &out)
{
    if (s == "off" || s == "0") {
        out = Level::Off;
        return true;
    }
    if (s == "basic" || s == "1") {
        out = Level::Basic;
        return true;
    }
    if (s == "full" || s == "2") {
        out = Level::Full;
        return true;
    }
    return false;
}

namespace
{

thread_local int refusalsThrowDepth = 0;
thread_local int inputDepth = 0;

/** @return true when a check failing now on this thread is a refusal
 *  its front end reports: both scopes are open. */
bool
refusalThrows()
{
    return refusalsThrowDepth > 0 && inputDepth > 0;
}

} // namespace

RefusalsThrow::RefusalsThrow() { ++refusalsThrowDepth; }
RefusalsThrow::~RefusalsThrow() { --refusalsThrowDepth; }
InputScope::InputScope() { ++inputDepth; }
InputScope::~InputScope() { --inputDepth; }

const char *
toString(Level l)
{
    switch (l) {
      case Level::Off:
        return "off";
      case Level::Basic:
        return "basic";
      case Level::Full:
        return "full";
    }
    return "?";
}

} // namespace check

namespace logging
{

void
invariantFailImpl(const char *file, int line, const std::string &msg)
{
    if (check::enabled(check::Level::Basic) || check::refusalThrows()) {
        throw SimError(SimErrorKind::Invariant,
                       format("assertion failed: ", msg, " at ", file,
                              ":", line));
    }
    panicImpl(file, line, format("assertion failed: ", msg));
}

} // namespace logging

} // namespace consim
