#ifndef SOSIM_UTIL_PARSE_H
#define SOSIM_UTIL_PARSE_H

/**
 * @file
 * Strict numeric parsing for command-line flags and spec strings.
 *
 * std::stoi and friends stop at the first character they cannot use and
 * wrap a negative value into an unsigned type, so "4x" reads as 4 and
 * "-1" as 2^64-1.  parseNumber accepts a token only when every character
 * is consumed, the value fits the target type (unsigned types take no
 * sign) and, for floating point, the value is finite.
 */

#include <charconv>
#include <cmath>
#include <string>
#include <type_traits>

#include "util/error.h"

namespace sosim::util {

/**
 * Parse all of `text` as a T.  Anything else raises FatalError
 * "<tag>: '<text>' is not ..." — pass the flag or key being parsed as
 * the tag so the message names it.
 */
template <typename T>
T
parseNumber(const std::string &text, const std::string &tag)
{
    static_assert(std::is_arithmetic_v<T>);
    T value{};
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    bool ok = ec == std::errc() && end == last;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    const char *kind = std::is_floating_point_v<T> ? "a finite number"
                       : std::is_unsigned_v<T> ? "a non-negative integer"
                                               : "an integer";
    SOSIM_REQUIRE(ok, tag + ": '" + text + "' is not " + kind);
    return value;
}

} // namespace sosim::util

#endif // SOSIM_UTIL_PARSE_H
