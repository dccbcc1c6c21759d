/**
 * @file
 * Error reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal invariant was violated (a bug in this library);
 *            aborts so a core dump / debugger can be used.
 * fatal()  — the caller misused the library or the environment cannot
 *            support the request; exits with an error code.
 */

#ifndef ALASKA_BASE_LOGGING_H
#define ALASKA_BASE_LOGGING_H

#include <cstdarg>

namespace alaska
{

/** Print a formatted message and abort(). Never returns. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted message and exit(1). Never returns. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace alaska

/**
 * Always-on assertion for library invariants. Unlike assert(3) this is not
 * compiled out in release builds; invariant checks in this codebase are
 * cheap relative to the operations they guard.
 */
#define ALASKA_ASSERT(cond, fmt, ...)                                     \
    do {                                                                  \
        if (__builtin_expect(!(cond), 0)) {                               \
            ::alaska::panic("assertion failed at %s:%d: %s: " fmt,        \
                            __FILE__, __LINE__, #cond, ##__VA_ARGS__);    \
        }                                                                 \
    } while (0)

#endif // ALASKA_BASE_LOGGING_H
