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
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/error.h"

namespace sosim::util {

/**
 * Parse all of `text` as a T; nullopt when anything is left over, the
 * value does not fit, or a floating-point value is not finite.  For hot
 * loops that build their error tag only once a token is refused.
 */
template <typename T>
std::optional<T>
tryParseNumber(std::string_view text)
{
    static_assert(std::is_arithmetic_v<T>);
    T value{};
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    bool ok = ec == std::errc() && end == last;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (!ok)
        return std::nullopt;
    return value;
}

/**
 * Raise the FatalError parseNumber raises for a refused `text`:
 * "<tag>: '<text>' is not ...".
 */
template <typename T>
[[noreturn]] void
rejectNumber(std::string_view text, const std::string &tag)
{
    const char *kind = std::is_floating_point_v<T> ? "a finite number"
                       : std::is_unsigned_v<T> ? "a non-negative integer"
                                               : "an integer";
    fatal(__FILE__, __LINE__,
          tag + ": '" + std::string(text) + "' is not " + kind);
}

/**
 * Parse all of `text` as a T.  Anything else raises FatalError
 * "<tag>: '<text>' is not ..." — pass the flag or key being parsed as
 * the tag so the message names it.
 */
template <typename T>
T
parseNumber(const std::string &text, const std::string &tag)
{
    const auto value = tryParseNumber<T>(text);
    if (!value)
        rejectNumber<T>(text, tag);
    return *value;
}

} // namespace sosim::util

#endif // SOSIM_UTIL_PARSE_H
