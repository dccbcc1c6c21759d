/**
 * @file
 * Anchorage sub-heaps (paper §4.3).
 *
 * Each sub-heap is a contiguous region allocated with a naive bump
 * pointer plus a power-of-two free list: an allocation first checks the
 * front of its size class's list (O(1)), then bumps. A class list
 * yields only blocks of its own class. There is no
 * splitting, no thread caching, and no coalescing on the mutator free
 * path — the allocator is deliberately simple because defragmentation,
 * not placement cleverness, is what fights fragmentation here. Defrag
 * passes do coalesce (coalesceHoles()): after a sub-heap is evacuated
 * its class-exact holes would otherwise cap how densely later moves
 * can repack it.
 *
 * Block metadata is kept out-of-band (a sorted vector per sub-heap)
 * rather than in headers so the same code runs over real and phantom
 * address spaces; see docs/ARCHITECTURE.md, layers 4 and 6.
 *
 * Each sub-heap also publishes two fit hints, in the manner of TLSF's
 * per-class free bitmaps (Masmano et al., ECRTS 2004): a mask with bit
 * c set iff a free block of class c exists (kept from an exact count
 * per class), and the bump offset. A mover reads them without the
 * owning shard's lock to skip sub-heaps that cannot take an object.
 */

#ifndef ALASKA_ANCHORAGE_SUB_HEAP_H
#define ALASKA_ANCHORAGE_SUB_HEAP_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/address_space.h"

namespace alaska::anchorage
{

/** Out-of-band metadata for one heap block. */
struct Block
{
    static constexpr uint32_t freeMarker = 0xffffffffu;

    uint64_t addr = 0;
    /** Usable size (16-byte aligned). */
    uint32_t size = 0;
    /** Owning handle ID, or freeMarker if the block is free. */
    uint32_t handleId = freeMarker;

    bool isFree() const { return handleId == freeMarker; }
};

/** Result of allocating within a sub-heap. */
struct SubHeapAlloc
{
    bool ok = false;
    uint64_t addr = 0;
};

/** One bump-allocated, free-list-recycled heap segment. */
class SubHeap
{
  public:
    /** Number of power-of-two size classes (16 B .. 2 GiB). */
    static constexpr int numClasses = 28;
    /** Block alignment. */
    static constexpr uint64_t alignment = 16;

    /**
     * @param space backing address space (thread-safe; see sim/)
     * @param capacity region size in bytes
     */
    SubHeap(AddressSpace &space, size_t capacity);
    ~SubHeap();

    SubHeap(const SubHeap &) = delete;
    SubHeap &operator=(const SubHeap &) = delete;

    /**
     * Allocate size bytes for handle id: front-of-class free list first,
     * bump second. Fails (ok=false) if neither fits.
     */
    SubHeapAlloc alloc(uint32_t id, size_t size);

    /**
     * Like alloc() but reuses an existing hole only — never bumps.
     * Concurrent relocation campaigns use this for cross-heap
     * destinations so that a campaign can reduce but never grow the
     * heap's extent (stop-the-world passes may bump because their trims
     * run with the world stopped and win the space right back).
     */
    SubHeapAlloc allocFromFreeList(uint32_t id, size_t size);

    /** Free the block at addr (must be a live block of this heap). */
    void free(uint64_t addr);

    /** True iff addr lies within this sub-heap's region. */
    bool
    contains(uint64_t addr) const
    {
        return addr >= base_ && addr < base_ + capacity_;
    }

    /** Find the index of the live block at addr; -1 if absent. */
    int findBlock(uint64_t addr) const;

    /**
     * Retract the bump pointer past any trailing free blocks and
     * MADV_DONTNEED the reclaimed tail.
     * @return bytes reclaimed from the extent.
     */
    size_t trimTop();

    /**
     * Merge runs of address-adjacent free blocks into single holes and
     * rebuild the free lists. Defrag-only (blocks_ indices change, so
     * the caller must hold the shard lock and must not have a live
     * CompactionIndex for this heap): called when a pass or campaign
     * finishes with a source sub-heap, so the class-exact holes its
     * evacuation left behind fuse into holes big enough for any later
     * placement — without this, concurrent campaigns floor out above
     * the stop-the-world fragmentation floor. O(blocks).
     * @return number of holes merged away.
     */
    size_t coalesceHoles();

    /** Base address of the region. */
    uint64_t base() const { return base_; }
    /** Region capacity in bytes. */
    size_t capacity() const { return capacity_; }
    /**
     * Current bump offset — the sub-heap's used extent. A fit hint:
     * see freeClassMask() for who may read it without the lock.
     */
    size_t
    extent() const
    {
        return bump_.load(std::memory_order_relaxed);
    }
    /** Bytes in live blocks. */
    size_t liveBytes() const { return liveBytes_; }
    /** Bytes sitting in free blocks (reusable holes). */
    size_t freeBytes() const { return freeBytes_; }
    /** Number of live blocks. */
    size_t liveBlocks() const { return liveCount_; }

    /** All blocks, address-ordered (live and free). For defrag walks. */
    std::vector<Block> &blocks() { return blocks_; }
    const std::vector<Block> &blocks() const { return blocks_; }

    /**
     * Mark the free block at index as reallocated to handle id (a
     * defrag destination found via popLowestFreeBelow).
     */
    void claimBlock(int index, uint32_t id, size_t size);

    /** Release a block by index (defrag source). */
    void freeBlockAt(int index);

    /**
     * Address-sorted snapshot of the free blocks, consumed cursor-wise
     * by a top-down defrag walk (whose limit only decreases). Lets a
     * whole pass run in O(F log F) instead of O(F) per moved object.
     * Entries are validated on pop, so the snapshot may outlive
     * mutator allocations (concurrent campaigns) and even trims.
     */
    struct CompactionIndex
    {
        std::array<std::vector<uint32_t>, numClasses> sorted;
        std::array<size_t, numClasses> cursor{};
    };

    /** Build the snapshot for this sub-heap. */
    CompactionIndex buildCompactionIndex() const;

    /**
     * Pop the lowest free block that fits size below limit, advancing
     * the class cursor. @return block index or -1.
     */
    int popLowestFreeBelow(CompactionIndex &index, size_t size,
                           uint64_t limit);

    /** Size class of a request (index into the free lists). */
    static int
    classOf(size_t size)
    {
        if (size < alignment)
            size = alignment;
        const int cls = 63 - __builtin_clzll(size) - 4; // 16 B -> class 0
        return cls < numClasses ? cls : numClasses - 1;
    }

    // --- fit hints ---------------------------------------------------------
    //
    // Invariant: with no writer mid-operation, bit c of freeClassMask()
    // is set iff blocks() holds a free block of class c, and extent()
    // is the end of the last block. Only code that may mutate the heap
    // (the owning shard's lock holder, or the heap's only user) writes
    // them. Any thread holding a stable SubHeap* may read them without
    // the lock; such a read can be stale by the operations in flight,
    // so it only says whether taking the lock can pay off, and the
    // locked call still decides. At quiescence the hints are exact:
    // mayReuse() / mayAlloc() false means the call would fail.

    /** Bit c set iff a free block of size class c exists. */
    uint32_t
    freeClassMask() const
    {
        return freeClassMask_.load(std::memory_order_relaxed);
    }

    /** Hint: allocFromFreeList(id, size) can succeed — a free block of
     *  the request's class exists. */
    bool
    mayReuse(size_t size) const
    {
        return (freeClassMask() >> classOf(alignUp(size))) & 1;
    }

    /** Hint: alloc(id, size) can succeed — a free block of the
     *  request's class exists, or the bump has room. */
    bool
    mayAlloc(size_t size) const
    {
        return mayReuse(size) || extent() + alignUp(size) <= capacity_;
    }

  private:
    /** size rounded up to the block alignment. */
    static size_t
    alignUp(size_t size)
    {
        return (size + alignment - 1) & ~(alignment - 1);
    }

    SubHeapAlloc bumpAlloc(uint32_t id, size_t size);
    /** Drop stale indices from the front of a class list: trimmed,
     *  reused, or naming a block of another class. */
    void pruneClassFront(int cls);
    /** A free block of class cls appeared / went away: keep the count
     *  and publish the class bit when it flips. */
    void countFree(int cls);
    void uncountFree(int cls);

    AddressSpace &space_;
    uint64_t base_ = 0;
    size_t capacity_ = 0;
    /** Bump offset; a published fit hint (see freeClassMask()). */
    std::atomic<size_t> bump_{0};
    size_t liveBytes_ = 0;
    size_t freeBytes_ = 0;
    size_t liveCount_ = 0;

    /** Address-ordered block metadata; indices are stable except for
     *  trailing pops in trimTop(). */
    std::vector<Block> blocks_;
    /** LIFO free lists of block indices, one per power-of-two class.
     *  Entries may be stale (trimmed, reused, or — after a trim and a
     *  regrow — naming a block of another class); validated on pop. */
    std::array<std::vector<uint32_t>, numClasses> freeLists_;
    /** Exact number of free blocks per class (not list entries). */
    std::array<uint32_t, numClasses> freeCount_{};
    /** Bit c set iff freeCount_[c] > 0; a published fit hint. */
    std::atomic<uint32_t> freeClassMask_{0};
};

} // namespace alaska::anchorage

#endif // ALASKA_ANCHORAGE_SUB_HEAP_H
