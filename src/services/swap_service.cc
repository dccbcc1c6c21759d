#include "services/swap_service.h"

#include <cstdlib>
#include <cstring>

#include "base/logging.h"

namespace alaska
{

void
SwapService::init(Runtime &runtime)
{
    runtime_ = &runtime;
}

void
SwapService::deinit()
{
    runtime_ = nullptr;
}

void *
SwapService::alloc(uint32_t id, size_t size)
{
    (void)id;
    void *p = std::malloc(size ? size : 1);
    if (p) {
        std::lock_guard<std::mutex> guard(mutex_);
        hot_.emplace(p, size);
        hotBytes_ += size;
    }
    return p;
}

void
SwapService::free(uint32_t id, void *ptr)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = cold_.find(id);
    if (it != cold_.end()) {
        // Freed while swapped out: drop the cold copy.
        coldBytes_ -= it->second.size();
        cold_.erase(it);
        return;
    }
    auto hot = hot_.find(ptr);
    ALASKA_ASSERT(hot != hot_.end(), "free of unknown block %p", ptr);
    hotBytes_ -= hot->second;
    hot_.erase(hot);
    std::free(ptr);
}

size_t
SwapService::usableSize(const void *ptr) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = hot_.find(ptr);
    return it == hot_.end() ? 0 : it->second;
}

size_t
SwapService::hotBytes() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return hotBytes_;
}

size_t
SwapService::coldBytes() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return coldBytes_;
}

bool
SwapService::swapOut(uint32_t id)
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (cold_.count(id))
        return false;
    auto &entry = runtime_->table().entry(id);
    ALASKA_ASSERT(entry.allocated(), "swapOut of freed handle %u", id);
    // Mark the entry Invalid and drop its address in one RMW *before*
    // dropping the backing memory; the checked translation path will
    // trap to fault().
    void *ptr = HandleTableEntry::addressOf(
        entry.exchangeBacking(HandleTableEntry::Invalid));
    auto hot = hot_.find(ptr);
    ALASKA_ASSERT(hot != hot_.end(), "swapOut of unknown block %p", ptr);
    const size_t size = hot->second;
    hot_.erase(hot);

    std::vector<unsigned char> bytes(size);
    std::memcpy(bytes.data(), ptr, size);
    cold_.emplace(id, std::move(bytes));
    coldBytes_ += size;
    hotBytes_ -= size;
    std::free(ptr);
    return true;
}

size_t
SwapService::swapOutAllUnpinned()
{
    size_t evicted = 0;
    runtime_->barrier([&](const PinnedSet &pinned) {
        const uint32_t wm = runtime_->table().watermark();
        for (uint32_t id = 0; id < wm; id++) {
            auto &entry = runtime_->table().entry(id);
            if (!entry.allocated() || entry.invalid() ||
                pinned.contains(id)) {
                continue;
            }
            if (swapOut(id))
                evicted++;
        }
    });
    return evicted;
}

void *
SwapService::fault(uint32_t id)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto &entry = runtime_->table().entry(id);
    auto it = cold_.find(id);
    if (it == cold_.end()) {
        // Another thread faulted it in between our check and the lock.
        void *ptr = entry.address(std::memory_order_acquire);
        ALASKA_ASSERT(ptr != nullptr, "fault on handle %u with no cold "
                      "copy and no backing", id);
        return ptr;
    }

    const size_t size = it->second.size();
    void *fresh = std::malloc(size ? size : 1);
    std::memcpy(fresh, it->second.data(), size);
    coldBytes_ -= size;
    hotBytes_ += size;
    cold_.erase(it);
    hot_.emplace(fresh, size);

    // Publishing the address clears Invalid in the same RMW.
    entry.install(fresh);
    swapIns_++;
    return fresh;
}

} // namespace alaska
