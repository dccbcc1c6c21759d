#include "core/handle_table.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "base/logging.h"
#include "telemetry/telemetry.h"

namespace alaska
{

namespace
{

/**
 * Thread ordinals: each thread gets one on first contact with any
 * handle table (or any other shard-keyed subsystem). A round-robin
 * counter spreads threads perfectly across shards, unlike hashing the
 * (often sequential) std::thread::id values, which can collide badly.
 */
std::atomic<uint32_t> gNextThreadOrdinal{0};
thread_local uint32_t tlsThreadOrdinal = UINT32_MAX;

} // anonymous namespace

uint32_t
HandleTable::threadOrdinal()
{
    if (tlsThreadOrdinal == UINT32_MAX) {
        tlsThreadOrdinal =
            gNextThreadOrdinal.fetch_add(1, std::memory_order_relaxed);
    }
    return tlsThreadOrdinal;
}

HandleTable::HandleTable(uint32_t capacity) : capacity_(capacity)
{
    static_assert((numShards & (numShards - 1)) == 0,
                  "numShards must be a power of two");
    ALASKA_ASSERT(capacity > 0 && capacity <= maxHandleId,
                  "capacity %u out of range", capacity);
    const size_t bytes = static_cast<size_t>(capacity) *
                         sizeof(HandleTableEntry);
    void *mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED)
        fatal("handle table: cannot reserve %zu bytes", bytes);
    table_ = static_cast<HandleTableEntry *>(mem);
    // Anonymous mappings are zero-filled, which is exactly the initial
    // entry state we need: no address, no flags, no pins.
}

HandleTable::~HandleTable()
{
    if (table_) {
        ::munmap(table_,
                 static_cast<size_t>(capacity_) * sizeof(HandleTableEntry));
    }
}

HandleTable::Shard &
HandleTable::homeShard()
{
    return shards_[threadOrdinal() & (numShards - 1)];
}

uint32_t
HandleTable::bumpBatch(uint32_t *out, uint32_t want)
{
    uint32_t cur = bump_.load(std::memory_order_relaxed);
    for (;;) {
        if (cur >= capacity_)
            return 0;
        const uint32_t take = std::min(want, capacity_ - cur);
        if (bump_.compare_exchange_weak(cur, cur + take,
                                        std::memory_order_relaxed)) {
            for (uint32_t i = 0; i < take; i++)
                out[i] = cur + i;
            return take;
        }
    }
}

uint32_t
HandleTable::stealBatch(uint32_t *out, uint32_t want)
{
    uint32_t n = 0;
    for (uint32_t s = 0; s < numShards && n < want; s++) {
        Shard &shard = shards_[s];
        std::lock_guard<std::mutex> guard(shard.mutex);
        while (n < want && !shard.freeList.empty()) {
            out[n++] = shard.freeList.back();
            shard.freeList.pop_back();
        }
    }
    if (n > 0)
        telemetry::count(telemetry::Counter::IdShardSteal);
    return n;
}

uint32_t
HandleTable::allocate()
{
    uint32_t id;
    reserveBatch(&id, 1);
    activate(id);
    return id;
}

void
HandleTable::release(uint32_t id)
{
    deactivate(id);
    Shard &shard = homeShard();
    std::lock_guard<std::mutex> guard(shard.mutex);
    shard.freeList.push_back(id);
}

uint32_t
HandleTable::reserveBatch(uint32_t *out, uint32_t want)
{
    ALASKA_ASSERT(want > 0, "reserveBatch of zero IDs");
    uint32_t n = 0;
    {
        Shard &shard = homeShard();
        std::lock_guard<std::mutex> guard(shard.mutex);
        while (n < want && !shard.freeList.empty()) {
            out[n++] = shard.freeList.back();
            shard.freeList.pop_back();
        }
    }
    if (n < want)
        n += bumpBatch(out + n, want - n);
    if (n == 0)
        n = stealBatch(out, want);
    if (n == 0)
        fatal("handle table exhausted (%u entries)", capacity_);
    return n;
}

void
HandleTable::unreserveBatch(const uint32_t *ids, uint32_t count)
{
    if (count == 0)
        return;
    Shard &shard = homeShard();
    std::lock_guard<std::mutex> guard(shard.mutex);
    shard.freeList.insert(shard.freeList.end(), ids, ids + count);
}

void
HandleTable::activate(uint32_t id)
{
    ALASKA_ASSERT(id < capacity_, "id %u out of range", id);
    // An RMW, not a store: a stale accessor may still hold an atomic
    // pin on this recycled entry (see deactivate).
    const uint64_t old =
        table_[id].exchangeBacking(HandleTableEntry::Invalid);
    ALASKA_ASSERT(!HandleTableEntry::allocatedWord(old),
                  "activate of live handle %u", id);
}

uint64_t
HandleTable::deactivate(uint32_t id)
{
    ALASKA_ASSERT(id < capacity_, "id %u out of range", id);
    // Clear everything but the pin count: a racing accessor may hold a
    // concurrent pin on this entry and will unpin after we ran —
    // wiping the whole word would make that unpin underflow.
    const uint64_t old = table_[id].exchangeBacking(0);
    ALASKA_ASSERT(HandleTableEntry::allocatedWord(old),
                  "double free of handle %u", id);
    return old;
}

HandleTableEntry &
HandleTable::entry(uint32_t id)
{
    ALASKA_ASSERT(id < capacity_, "id %u out of range", id);
    return table_[id];
}

const HandleTableEntry &
HandleTable::entry(uint32_t id) const
{
    ALASKA_ASSERT(id < capacity_, "id %u out of range", id);
    return table_[id];
}

uint32_t
HandleTable::watermark() const
{
    return bump_.load(std::memory_order_relaxed);
}

uint32_t
HandleTable::liveCount() const
{
    const uint32_t end = watermark();
    uint32_t live = 0;
    for (uint32_t id = 0; id < end; id++)
        live += table_[id].allocated();
    return live;
}

} // namespace alaska
