/**
 * @file
 * The handle table (paper §4.2.1): a single-level array of per-object
 * entries, analogous to a one-level page table but with one entry per
 * object. The whole table is reserved virtually up front (it can never
 * move once handles are live) and is backed lazily by demand paging.
 *
 * Entry allocation is O(1): a free list of recycled IDs is consulted
 * first, then a bump cursor. To keep many mutator threads off a single
 * lock, the free list is split into cache-line-padded shards selected
 * by thread; the bump cursor stays global so watermark semantics are
 * unchanged. On top of the shards, reserveBatch()/unreserveBatch() let
 * per-thread magazines (see ThreadState) move IDs in and out in bulk,
 * so the steady-state allocate/release path touches no shared state.
 * Live-entry accounting is likewise sharded: each thread bumps a
 * per-shard delta and liveCount() sums them, keeping the hot path off
 * any single contended cache line.
 */

#ifndef ALASKA_CORE_HANDLE_TABLE_H
#define ALASKA_CORE_HANDLE_TABLE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/handle.h"

namespace alaska
{

/**
 * One handle table entry (HTE).
 *
 * The paper's minimal HTE is just the backing pointer (8 bytes/object);
 * we carry the object size and a flags/state word so services and the
 * handle-fault path (§7) do not need a side table.
 */
struct HandleTableEntry
{
    /** Flag bits stored in state. */
    enum StateBits : uint32_t
    {
        Allocated = 1U << 0,
        /** Set by a service to force translation through the fault
         *  path (the "handle faults" mechanism of §7). */
        Invalid = 1U << 1,
    };

    /** Current backing memory; updated by services when objects move. */
    std::atomic<void *> ptr{nullptr};
    /** Object size in bytes as requested at halloc time. */
    uint32_t size = 0;
    /**
     * Entry state. The low bits are StateBits; the remaining bits are
     * an atomic pin count. Since the epoch rework of scoped
     * translation, the count is fed only by pinned<T> (via
     * ConcurrentPin — the API's one per-object pin) and by the
     * ablation-only AtomicPins tracking mode; campaigns veto a move
     * when the count is nonzero, everything else rides epoch grace.
     */
    std::atomic<uint32_t> state{0};

    static constexpr uint32_t pinCountShift = 8;
    static constexpr uint32_t pinCountOne = 1U << pinCountShift;

    bool
    allocated() const
    {
        return state.load(std::memory_order_relaxed) & Allocated;
    }

    bool
    invalid() const
    {
        return state.load(std::memory_order_acquire) & Invalid;
    }

    uint32_t
    atomicPinCount() const
    {
        return state.load(std::memory_order_relaxed) >> pinCountShift;
    }
};

static_assert(sizeof(HandleTableEntry) == 16,
              "HTE should stay one load wide plus metadata");

/**
 * The concurrent-relocation mark (paper §7): a mover tags the low bit
 * of an entry's backing pointer while it speculatively copies the
 * object (objects are 16-byte aligned, so the bit is free). Accessors
 * and the free path clear the mark to abort the in-flight move. The
 * helpers live here so the runtime's hfree/hrealloc, the low-level
 * relocation protocol, and Anchorage campaigns agree on the encoding.
 */
namespace reloc
{

inline constexpr uint64_t markBit = 1;

inline void *
marked(void *ptr)
{
    return reinterpret_cast<void *>(reinterpret_cast<uint64_t>(ptr) |
                                    markBit);
}

inline void *
unmarked(void *ptr)
{
    return reinterpret_cast<void *>(reinterpret_cast<uint64_t>(ptr) &
                                    ~markBit);
}

inline bool
isMarked(const void *ptr)
{
    return reinterpret_cast<uint64_t>(ptr) & markBit;
}

} // namespace reloc

/**
 * The single-level handle table.
 *
 * Thread safety: allocate()/release() and the batch reservation API may
 * be called concurrently; reads of entries through translation are
 * lock-free.
 */
class HandleTable
{
  public:
    /** Number of free-list shards. Must be a power of two. */
    static constexpr uint32_t numShards = 16;

    /**
     * Process-wide round-robin ordinal of the calling thread, assigned
     * on first use and stable for the thread's lifetime. The table maps
     * a thread to its free-list shard as ordinal mod numShards; other
     * shard-keyed subsystems (the Anchorage service's per-shard
     * sub-heap chains) key off the same ordinal so a thread's handle-ID
     * shard and its heap shard coincide.
     */
    static uint32_t threadOrdinal();

    /**
     * Reserve a table with the given capacity (entries). The memory is
     * mapped with MAP_NORESERVE so only touched pages consume RSS,
     * matching the paper's "mmap it in its entirety at startup" scheme.
     */
    explicit HandleTable(uint32_t capacity);
    ~HandleTable();

    HandleTable(const HandleTable &) = delete;
    HandleTable &operator=(const HandleTable &) = delete;

    /**
     * Allocate a fresh entry.
     * @return its handle ID.
     */
    uint32_t allocate();

    /** Return an entry to the calling thread's free-list shard. */
    void release(uint32_t id);

    // --- batch reservation (magazine refill/flush) ----------------------
    /**
     * Reserve up to want IDs for the calling thread, consulting its
     * free-list shard first and bumping the cursor for the remainder.
     * Reserved IDs are *not* yet allocated: they are invisible to
     * liveCount() until activate()d, and must be returned with
     * unreserveBatch() if never used. Fatals only if the table is
     * completely exhausted (all shards empty and the cursor at
     * capacity); otherwise returns at least one ID.
     *
     * Reserved IDs parked in per-thread magazines are unreachable to
     * other threads, so size the table with headroom of roughly
     * HandleMagazine::capacity x thread count beyond peak live
     * handles — negligible against the default 2^22-entry capacity.
     * @return the number of IDs written to out.
     */
    uint32_t reserveBatch(uint32_t *out, uint32_t want);

    /** Return unused reserved IDs to the calling thread's shard. */
    void unreserveBatch(const uint32_t *ids, uint32_t count);

    /** Mark a reserved ID as a live allocation. */
    void activate(uint32_t id);

    /**
     * Clear a live entry back to the reserved state *without* putting it
     * on any free list — the caller keeps the ID (in its magazine).
     * Any atomic pin count in the entry's state survives: a concurrent
     * accessor that pinned the entry must be able to unpin it after the
     * free without corrupting the state word.
     */
    void deactivate(uint32_t id);

    /** Access an entry by ID (bounds-checked in debug). */
    HandleTableEntry &entry(uint32_t id);
    const HandleTableEntry &entry(uint32_t id) const;

    /** Base pointer, for the inline translation fast path. */
    HandleTableEntry *base() { return table_; }

    /** Capacity in entries. */
    uint32_t capacity() const { return capacity_; }

    /** One past the highest ID ever allocated; IDs >= this are untouched. */
    uint32_t watermark() const;

    /**
     * Number of currently live (allocated) entries. Summed over the
     * per-shard deltas, so concurrent callers may observe a transiently
     * stale value; quiescent reads are exact.
     */
    uint32_t liveCount() const;

  private:
    /**
     * One free-list shard, padded so concurrent release() calls from
     * threads mapped to different shards never share a cache line.
     */
    struct alignas(64) Shard
    {
        std::mutex mutex;
        std::vector<uint32_t> freeList;
        /**
         * This shard's contribution to liveCount(). Each thread bumps
         * its home shard's delta, so the magazine fast path never RMWs
         * a shared counter; individual deltas may go negative (a handle
         * can be activated on one shard and deactivated on another) but
         * the sum is exact.
         */
        std::atomic<int64_t> liveDelta{0};
    };

    /** The calling thread's home shard (round-robin assigned). */
    Shard &homeShard();

    /** Bump-allocate up to want fresh IDs; returns how many. */
    uint32_t bumpBatch(uint32_t *out, uint32_t want);

    /** Steal free IDs from any shard (slow path near exhaustion). */
    uint32_t stealBatch(uint32_t *out, uint32_t want);

    HandleTableEntry *table_ = nullptr;
    uint32_t capacity_ = 0;
    std::atomic<uint32_t> bump_{0};
    Shard shards_[numShards];
};

} // namespace alaska

#endif // ALASKA_CORE_HANDLE_TABLE_H
