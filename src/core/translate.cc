#include "core/translate.h"

namespace alaska
{

void *
translateChecked(const void *maybe_handle)
{
    const uint64_t v = reinterpret_cast<uint64_t>(maybe_handle);
    if (static_cast<int64_t>(v) >= 0)
        return const_cast<void *>(maybe_handle);
    const uint32_t id = (v >> 32) & (maxHandleId - 1);
    telemetry::countHot(telemetry::Counter::TranslateFast);
    const uint64_t word =
        Runtime::gTableBase[id].word(std::memory_order_acquire);
    if (__builtin_expect(word & HandleTableEntry::Invalid, 0)) {
        // Trap to the runtime; the service restores the object.
        void *base = Runtime::gRuntime->handleFault(id);
        return static_cast<char *>(base) + static_cast<uint32_t>(v);
    }
    return static_cast<char *>(HandleTableEntry::addressOf(word)) +
           static_cast<uint32_t>(v);
}

} // namespace alaska
