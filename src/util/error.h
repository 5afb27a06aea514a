#ifndef SOSIM_UTIL_ERROR_H
#define SOSIM_UTIL_ERROR_H

/**
 * @file
 * Error-handling primitives for the SmoothOperator simulator.
 *
 * Following the gem5 convention we distinguish two failure classes:
 *   - FatalError: the caller supplied an invalid configuration or argument
 *     (the user's fault).  Raised via SOSIM_REQUIRE / fatal().
 *   - LogicError: an internal invariant was violated (our fault).  Raised
 *     via SOSIM_ASSERT / panic().
 */

#include <sstream>
#include <stdexcept>
#include <string>

namespace sosim::util {

/** Exception raised for invalid user-supplied configuration or arguments. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error("fatal: " + msg)
    {}
};

/** Exception raised when an internal invariant is violated. */
class LogicError : public std::logic_error
{
  public:
    explicit LogicError(const std::string &msg)
        : std::logic_error("panic: " + msg)
    {}
};

/**
 * Raise a FatalError with a formatted location-tagged message.
 *
 * @param file Source file of the failing check.
 * @param line Source line of the failing check.
 * @param msg  Human-readable description of what the caller did wrong.
 */
[[noreturn]] inline void
fatal(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << msg << " (" << file << ":" << line << ")";
    throw FatalError(os.str());
}

/**
 * Raise a LogicError with a formatted location-tagged message.
 *
 * @param file Source file of the failing check.
 * @param line Source line of the failing check.
 * @param msg  Description of the violated invariant.
 */
[[noreturn]] inline void
panic(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << msg << " (" << file << ":" << line << ")";
    throw LogicError(os.str());
}

/** Run `body`; a FatalError it raises is raised again as "<tag>: <its
 *  message>", so a nested check names the flag or key being parsed. */
template <typename F>
decltype(auto)
withTag(const std::string &tag, F &&body)
{
    try {
        return body();
    } catch (const FatalError &e) {
        // what() is "fatal: <message>".
        throw FatalError(tag + ": " + (e.what() + sizeof("fatal: ") - 1));
    }
}

} // namespace sosim::util

/** Check a user-facing precondition; throws sosim::util::FatalError. */
#define SOSIM_REQUIRE(cond, msg)                                            \
    do {                                                                    \
        if (!(cond))                                                        \
            ::sosim::util::fatal(__FILE__, __LINE__, (msg));                \
    } while (0)

/** Check an internal invariant; throws sosim::util::LogicError. */
#define SOSIM_ASSERT(cond, msg)                                             \
    do {                                                                    \
        if (!(cond))                                                        \
            ::sosim::util::panic(__FILE__, __LINE__, (msg));                \
    } while (0)

#endif // SOSIM_UTIL_ERROR_H
