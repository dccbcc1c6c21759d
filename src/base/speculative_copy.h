/**
 * @file
 * The speculative byte copy used by concurrent relocation.
 *
 * A mover copies object bytes between its mark CAS and its commit
 * CAS, so the copy may race a writer that pinned (and thereby cleared
 * the mover's mark, in the pin's own RMW) in that window. The
 * protocol makes the race benign — a cleared mark fails the commit
 * CAS and the torn copy is discarded unread — but ThreadSanitizer
 * cannot see protocol arguments, only the racing plain accesses.
 * Under TSAN builds the copy therefore runs as an uninstrumented
 * volatile byte loop (the attribute alone would not help: TSAN
 * intercepts memcpy/memmove at the libc layer regardless of caller
 * instrumentation).
 */

#ifndef ALASKA_BASE_SPECULATIVE_COPY_H
#define ALASKA_BASE_SPECULATIVE_COPY_H

#include <cstddef>
#include <cstring>

namespace alaska
{

#if defined(__SANITIZE_THREAD__)
__attribute__((no_sanitize("thread"))) inline void
speculativeCopy(void *dst, const void *src, size_t n)
{
    volatile unsigned char *d = static_cast<unsigned char *>(dst);
    const volatile unsigned char *s =
        static_cast<const unsigned char *>(src);
    for (size_t i = 0; i < n; i++)
        d[i] = s[i];
}
#else
inline void
speculativeCopy(void *dst, const void *src, size_t n)
{
    std::memmove(dst, src, n);
}
#endif

} // namespace alaska

#endif // ALASKA_BASE_SPECULATIVE_COPY_H
