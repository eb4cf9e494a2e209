/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: fatal() terminates because the *user* did
 * something unsupportable (bad configuration, impossible request), while
 * panic() terminates because an internal invariant of the library was
 * violated (a bug in this code). inform()/warn() report status without
 * stopping anything.
 */
#ifndef SNIP_UTIL_LOGGING_H
#define SNIP_UTIL_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace snip {

namespace detail {

/** Concatenate any streamable arguments into a string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

/** Emit one log line with a severity prefix. */
void emit(const std::string &prefix, const std::string &msg);

[[noreturn]] void die(const std::string &prefix, const std::string &msg,
                      bool abort_process);

} // namespace detail

/** Informative message the user should see but not worry about. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emit("info", detail::concat(args...));
}

/** Something may be off, but execution can continue. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emit("warn", detail::concat(args...));
}

/** Unrecoverable *user* error (bad config / arguments): exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::die("fatal", detail::concat(args...), /*abort_process=*/false);
}

/** Unrecoverable *internal* error (library bug): abort(). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::die("panic", detail::concat(args...), /*abort_process=*/true);
}

/** panic() unless a library invariant holds. */
#define SNIP_ASSERT(cond, ...)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::snip::panic("assertion failed: " #cond " ", ##__VA_ARGS__);    \
        }                                                                    \
    } while (0)

} // namespace snip

#endif // SNIP_UTIL_LOGGING_H
