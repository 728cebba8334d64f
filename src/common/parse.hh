/**
 * @file
 * Strict string-to-number parsing for CLI front ends and config
 * grammars. Unlike atoi/strtoull-with-no-checks, these reject
 * trailing garbage, empty strings, and out-of-range values instead of
 * silently yielding 0 — a prerequisite for refusing to cast junk into
 * enums at the tool boundary.
 */

#ifndef CONSIM_COMMON_PARSE_HH
#define CONSIM_COMMON_PARSE_HH

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace consim
{

/** Split spec text @p s on @p sep, dropping whitespace and empty
 *  pieces (the fault, QoS and dyn-sched grammars). */
inline std::vector<std::string>
splitSpec(std::string_view s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : s) {
        if (c == sep) {
            if (!cur.empty())
                out.push_back(std::move(cur));
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(std::move(cur));
    return out;
}

/** Parse an unsigned decimal (or @p base) number; the whole string
 *  must be consumed. */
inline bool
parseU64(std::string_view s, std::uint64_t &out, int base = 10)
{
    if (s.empty())
        return false;
    const auto *first = s.data();
    const auto *last = s.data() + s.size();
    const auto res = std::from_chars(first, last, out, base);
    return res.ec == std::errc{} && res.ptr == last;
}

/**
 * parseU64 that also takes a 0x-prefixed hexadecimal value, the form
 * block addresses are printed in (`blk=0x...`).
 */
inline bool
parseU64OrHex(std::string_view s, std::uint64_t &out)
{
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X'))
        return parseU64(s.substr(2), out, 16);
    return parseU64(s, out);
}

/** Parse an int in [lo, hi]; the whole string must be consumed. */
inline bool
parseIntInRange(std::string_view s, int lo, int hi, int &out)
{
    if (s.empty())
        return false;
    int v = 0;
    const auto *last = s.data() + s.size();
    const auto res = std::from_chars(s.data(), last, v, 10);
    if (res.ec != std::errc{} || res.ptr != last || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

/**
 * Read an environment variable as a strict unsigned integer. Unset
 * returns @p def; a set-but-malformed value (trailing garbage, empty,
 * negative, overflow) is a fatal user error — silently falling back to
 * the default would run a different experiment than the one asked for.
 */
inline std::uint64_t
envU64(const char *name, std::uint64_t def)
{
    const char *v = std::getenv(name);
    if (!v)
        return def;
    std::uint64_t out = 0;
    if (!parseU64(v, out)) {
        CONSIM_FATAL(name, "='", v,
                     "' is not an unsigned integer; unset it or pass a "
                     "plain decimal value");
    }
    return out;
}

/** envU64 for bounded int knobs: fatal when outside [lo, hi]. */
inline int
envIntInRange(const char *name, int lo, int hi, int def)
{
    const char *v = std::getenv(name);
    if (!v)
        return def;
    int out = 0;
    if (!parseIntInRange(v, lo, hi, out)) {
        CONSIM_FATAL(name, "='", v, "' is not an integer in [", lo, ", ",
                     hi, "]; unset it or pass a value in range");
    }
    return out;
}

} // namespace consim

#endif // CONSIM_COMMON_PARSE_HH
