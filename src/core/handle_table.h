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
 * The table keeps no live-entry count: an entry is live while its
 * word holds an address or Invalid, and liveCount() scans for those
 * bits. An entry is one 8-byte word (HandleTableEntry), so a 4 KiB
 * page of the table maps 512 handles.
 */

#ifndef ALASKA_CORE_HANDLE_TABLE_H
#define ALASKA_CORE_HANDLE_TABLE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "base/logging.h"
#include "core/handle.h"

namespace alaska
{

/**
 * The concurrent-relocation mark (paper §7): a mover tags the low bit
 * of an entry's word while it speculatively copies the object (objects
 * are 16-byte aligned, so the bit is free). A pin clears the mark to
 * abort the in-flight move, and so do the free and resize paths, which
 * replace the address. The helpers live here so the runtime, the
 * accessor half of the protocol and Anchorage campaigns agree on the
 * encoding.
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
 * An entry's word, held as an integer atomic so a pin and an unpin are
 * one fetch_add / fetch_sub each, and loaded, stored and compared as a
 * pointer, since an unpinned, valid, unmarked entry is exactly its
 * backing pointer.
 */
struct EntryWord
{
    std::atomic<uint64_t> bits{0};

    void *
    load(std::memory_order order = std::memory_order_seq_cst) const
    {
        return reinterpret_cast<void *>(bits.load(order));
    }

    void
    store(void *word, std::memory_order order = std::memory_order_seq_cst)
    {
        bits.store(reinterpret_cast<uint64_t>(word), order);
    }

    bool
    compare_exchange_strong(
        void *&expected, void *desired,
        std::memory_order order = std::memory_order_seq_cst)
    {
        uint64_t seen = reinterpret_cast<uint64_t>(expected);
        const bool ok = bits.compare_exchange_strong(
            seen, reinterpret_cast<uint64_t>(desired), order);
        expected = reinterpret_cast<void *>(seen);
        return ok;
    }
};

/**
 * One handle table entry (HTE): the paper's minimal entry, one 8-byte
 * word per object, with the protocol state folded into bits the
 * backing address never uses:
 *
 *   bits 63..48 : atomic pin count (ConcurrentPin, the API's one
 *                 per-object pin; campaigns and barriers never move
 *                 an object whose count is nonzero)
 *   bits 47..2  : backing address (below 2^48; objects are 16-byte
 *                 aligned, and the word needs bits 1..0 clear)
 *   bit  1      : Invalid — translateChecked() traps into the
 *                 runtime's handle-fault path (§7)
 *   bit  0      : the mover's mark (reloc::markBit)
 *
 * A live entry that is unpinned, valid and unmarked holds exactly its
 * backing address, and every translation strips the other bits with
 * one AND. An entry is allocated while it holds an address or Invalid
 * (a swapped-out object, or a handle between activation and its first
 * backing). The object's size is not kept here: Service::usableSize()
 * answers it from the service's own block metadata.
 *
 * A pin and an unpin are one fetch_add / fetch_sub on the pin field
 * (a pin that finds a mark also clears it); every other
 * read-modify-write is a CAS on the whole word (update(), or a mover's
 * own mark, commit and move CASes). So a pin and a mark, a commit or a
 * free can never both win: a mover marks only a word with no pins and
 * commits only over its marked, pin-free word, a pin clears the mark,
 * and the free, resize and swap paths carry the pin count over.
 */
struct HandleTableEntry
{
    /** Set by a service to force translation through the fault path
     *  (the "handle faults" mechanism of §7). */
    static constexpr uint64_t Invalid = 1ULL << 1;
    static constexpr int pinCountShift = 48;
    static constexpr uint64_t pinCountOne = 1ULL << pinCountShift;
    static constexpr uint64_t pinCountMask = ~(pinCountOne - 1);
    static constexpr uint32_t maxPinCount = 0xffff;
    /** The bits a translation keeps. */
    static constexpr uint64_t addressMask =
        (pinCountOne - 1) & ~(reloc::markBit | Invalid);

    /** The entry's word. */
    EntryWord ptr;

    static uint64_t
    bitsOf(const void *word)
    {
        return reinterpret_cast<uint64_t>(word);
    }

    /** The backing address a word names (null if none). */
    static void *
    addressOf(uint64_t word)
    {
        return reinterpret_cast<void *>(word & addressMask);
    }

    static bool
    allocatedWord(uint64_t word)
    {
        return word & (addressMask | Invalid);
    }

    static uint32_t
    pinCountOf(uint64_t word)
    {
        return static_cast<uint32_t>(word >> pinCountShift);
    }

    uint64_t
    word(std::memory_order order = std::memory_order_relaxed) const
    {
        return ptr.bits.load(order);
    }

    /** The backing address, mark, pins and Invalid stripped. */
    void *
    address(std::memory_order order = std::memory_order_relaxed) const
    {
        return addressOf(word(order));
    }

    bool allocated() const { return allocatedWord(word()); }

    bool
    invalid() const
    {
        return word(std::memory_order_acquire) & Invalid;
    }

    uint32_t atomicPinCount() const { return pinCountOf(word()); }

    /**
     * Atomically replace the word w with next(w) (seq_cst, so every
     * RMW on the entry sits in one total order with the mover's mark,
     * commit and the scoped readers' loads).
     * @return the word replaced.
     */
    template <typename F>
    uint64_t
    update(F next)
    {
        uint64_t old = ptr.bits.load(std::memory_order_relaxed);
        while (!ptr.bits.compare_exchange_weak(old, next(old),
                                               std::memory_order_seq_cst,
                                               std::memory_order_relaxed)) {
        }
        return old;
    }

    /**
     * Replace everything but the pin count (address, mark and Invalid)
     * with bits: a pin taken by a racing accessor survives a free, a
     * resize or a swap, and its unpin leaves a clean word.
     * @return the word replaced.
     */
    uint64_t
    exchangeBacking(uint64_t bits)
    {
        return update(
            [bits](uint64_t w) { return (w & pinCountMask) | bits; });
    }

    /**
     * Publish backing as the object's address (clearing Invalid and
     * any mark, keeping pins). fatal()s on an address that does not
     * fit the word: at or above 2^48, or not 4-byte aligned.
     * @return the word replaced.
     */
    uint64_t
    install(void *backing)
    {
        const uint64_t bits = bitsOf(backing);
        if (__builtin_expect((bits & ~addressMask) != 0, 0))
            fatal("handle table: backing address %p does not fit an "
                  "entry (it must be 4-byte aligned and below 2^48)",
                  backing);
        return exchangeBacking(bits);
    }

    /**
     * Take one atomic pin, clearing any mark, aborting an in-flight
     * move (see ConcurrentPin). fatal()s past maxPinCount.
     * @return the word the pin was added to, whose address the pinner
     *         translates.
     */
    uint64_t
    pin()
    {
        const uint64_t old =
            ptr.bits.fetch_add(pinCountOne, std::memory_order_seq_cst);
        if (__builtin_expect(pinCountOf(old) == maxPinCount, 0))
            fatal("handle table: more than %u concurrent pins on one "
                  "object", maxPinCount);
        // The commit CAS expects no pins, so it already fails while
        // this pin is counted; the clear keeps it failing after the
        // unpin, which would otherwise restore the exact marked word.
        // No mover can mark again while the pin is held.
        if (old & reloc::markBit)
            ptr.bits.fetch_and(~reloc::markBit, std::memory_order_seq_cst);
        return old;
    }

    /** Drop a pin taken by pin(). */
    void
    unpin()
    {
        ptr.bits.fetch_sub(pinCountOne, std::memory_order_seq_cst);
    }
};

static_assert(sizeof(HandleTableEntry) == 8,
              "an HTE is one word: the backing pointer and its tag bits");

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
     * liveCount() until activate()d or given a backing address, and
     * must be returned with unreserveBatch() if never used. Fatals
     * only if the table is completely exhausted (all shards empty and
     * the cursor at capacity); otherwise returns at least one ID.
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

    /**
     * Mark a reserved ID as a live allocation that has no backing yet:
     * its word becomes Invalid until HandleTableEntry::install() gives
     * it an address.
     */
    void activate(uint32_t id);

    /**
     * Clear a live entry back to the reserved state *without* putting it
     * on any free list — the caller keeps the ID (in its magazine).
     * Any atomic pin count in the word survives: a concurrent accessor
     * that pinned the entry must be able to unpin it after the free
     * without corrupting the word.
     * @return the word replaced; its address is the caller's to free.
     */
    uint64_t deactivate(uint32_t id);

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
     * Number of currently live (allocated) entries: an O(watermark())
     * scan for words holding an address or Invalid, meant for tests
     * and quiescent leak
     * checks. Concurrent callers may see a transiently skewed count;
     * quiescent reads are exact.
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
