/**
 * @file
 * The handle translation fast path (paper §3.3, Figure 5) and the
 * safepoint poll.
 *
 * translate() compiles to the paper's shape on x64: a sign test and
 * branch, a shift+mask to extract the handle ID, a 32-bit truncation of
 * the offset, one load from the handle table, and an add — plus one AND
 * that strips the pin count, Invalid and the mover's mark from the
 * entry's word (HandleTableEntry). The branch is the "is this a handle
 * at all?" check that lets handles and raw pointers coexist in the same
 * variables.
 */

#ifndef ALASKA_CORE_TRANSLATE_H
#define ALASKA_CORE_TRANSLATE_H

#include "core/handle.h"
#include "core/handle_table.h"
#include "core/runtime.h"
#include "telemetry/telemetry.h"

namespace alaska
{

/**
 * Translate a maybe-handle to a raw pointer.
 *
 * If the value is a raw pointer it is returned unchanged; if it is a
 * handle, the entry's word is loaded from the handle table, its address
 * bits kept and the offset applied. The caller is responsible for having pinned the handle
 * first (see pin.h) if the translation outlives the next safepoint.
 *
 * At ALASKA_TELEMETRY_LEVEL >= 2 every handle hit bumps the
 * translate_fast counter; at the default level the body keeps the
 * paper's two-instruction shape untouched.
 */
inline void *
translate(const void *maybe_handle)
{
    const uint64_t v = reinterpret_cast<uint64_t>(maybe_handle);
    if (static_cast<int64_t>(v) >= 0)
        return const_cast<void *>(maybe_handle);
    telemetry::countHot(telemetry::Counter::TranslateFast);
    const HandleTableEntry &e =
        Runtime::gTableBase[(v >> 32) & (maxHandleId - 1)];
    return static_cast<char *>(e.address()) + static_cast<uint32_t>(v);
}

/**
 * Translation with the handle-fault check enabled (paper §7).
 *
 * If the entry has been marked Invalid by a service (e.g. the object was
 * swapped out), control traps into the runtime, which asks the service
 * to restore the object. Invalid is a bit of the same word, so the
 * check costs a test and a branch, never a second load. The paper
 * measures this extra check at ~1-2%.
 */
void *translateChecked(const void *maybe_handle);

/**
 * Safepoint poll (paper §4.1.3).
 *
 * The compiler places these at loop back edges, function entries, and
 * before external calls. The fast path is one relaxed load and a
 * predictable branch — our cooperative stand-in for the paper's
 * NOP-patched LLVM patch points.
 */
inline void
poll()
{
    if (__builtin_expect(Runtime::barrierPending(), 0))
        Runtime::gRuntime->park();
}

} // namespace alaska

#endif // ALASKA_CORE_TRANSLATE_H
