/**
 * @file
 * Pin sets (paper §3.4, §4.1.3).
 *
 * A PinFrame is what the Alaska compiler would emit in a function's
 * prelude: a fixed-size slot array in the stack frame, registered on the
 * thread's shadow stack. Pinning a handle is a single plain store into a
 * slot followed by the translation — no atomics, no heap traffic. At a
 * barrier, the runtime walks every thread's frames to unify pin sets.
 *
 * The slot count per frame and the slot index per translation are static
 * decisions; in this library the "compiler output" is either produced by
 * the mini-compiler (src/compiler/pin_tracking) or written by hand in
 * kernels, mirroring what the LLVM pass would have emitted.
 */

#ifndef ALASKA_CORE_PIN_H
#define ALASKA_CORE_PIN_H

#include <cstdint>

#include "base/logging.h"
#include "core/runtime.h"
#include "core/translate.h"

namespace alaska
{

/**
 * A pin-set frame over a caller-provided, stack-resident slot array.
 *
 * The calling thread must be registered with the runtime.
 */
class PinFrame
{
  public:
    PinFrame(uint64_t *slots, uint32_t count)
        : slots_(slots), state_(checkedThreadState())
    {
        for (uint32_t i = 0; i < count; i++)
            slots_[i] = 0;
        state_.frames.push_back(PinFrameRecord{slots, count});
    }

    ~PinFrame() { state_.frames.pop_back(); }

    PinFrame(const PinFrame &) = delete;
    PinFrame &operator=(const PinFrame &) = delete;

    /**
     * Pin a maybe-handle into a slot and return its translation. This is
     * the store+translate pair the compiler emits before a memory access
     * (paper: "before a handle is translated, the handle is stored in
     * the pin set").
     */
    void *
    pin(uint32_t slot, const void *maybe_handle)
    {
        slots_[slot] = reinterpret_cast<uint64_t>(maybe_handle);
        return translate(maybe_handle);
    }

    /** Typed convenience overload. */
    template <typename T>
    T *
    pin(uint32_t slot, T *maybe_handle)
    {
        return static_cast<T *>(
            pin(slot, static_cast<const void *>(maybe_handle)));
    }

    /**
     * Release a slot (the compiler's release(handle) at end of the
     * translation's live range).
     */
    void release(uint32_t slot) { slots_[slot] = 0; }

  private:
    /**
     * Pin frames hang off the calling thread's shadow stack, so both a
     * live runtime and a ThreadRegistration are hard requirements.
     * Failing loudly here beats the alternative: with no runtime,
     * `gRuntime->currentThreadState()` is a silent null deref, and the
     * first symptom would be a corrupt-looking crash far from the
     * misuse.
     */
    static ThreadState &
    checkedThreadState()
    {
        if (Runtime::gRuntime == nullptr) {
            fatal("PinFrame: no live Runtime — construct a Runtime "
                  "before pinning handles");
        }
        ThreadState *state =
            Runtime::gRuntime->currentThreadStateOrNull();
        if (state == nullptr) {
            fatal("PinFrame: calling thread is not registered with the "
                  "runtime — create a ThreadRegistration for it first");
        }
        return *state;
    }

    uint64_t *slots_;
    ThreadState &state_;
};

/**
 * Declare a pin frame of n slots in the current scope. n must be a
 * compile-time constant, exactly like the statically sized pin sets the
 * compiler emits.
 */
#define ALASKA_PIN_FRAME(name, n)                                         \
    uint64_t name##_slots[n];                                             \
    ::alaska::PinFrame name(name##_slots, n)

// NOTE: the one-slot RAII pin that used to live here (Pinned<T>) was
// replaced by alaska::pinned<T> in api/access.h, which is additionally
// safe against concurrent relocation campaigns — a stack pin alone is
// invisible to campaigns, which check HTE pin counts. Keeping a
// case-only sibling of the safe guard invited silent misuse.

} // namespace alaska

#endif // ALASKA_CORE_PIN_H
