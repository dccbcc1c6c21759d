/**
 * @file
 * Per-thread runtime state: the pin-set shadow stack and the safepoint
 * mode used by the stop-the-world barrier (paper §3.4, §4.1.3), plus
 * the per-thread caches and counters that keep halloc/hfree off shared
 * cache lines.
 *
 * In the paper, pin sets live directly in stack frames and are found at
 * barrier time by walking the native stack with LLVM StackMaps +
 * libunwind. Without an LLVM backend we keep an explicit shadow stack of
 * frame records per thread: each compiler-shaped function pushes one
 * record pointing at its stack-resident slot array. The data layout and
 * the no-atomics property are preserved: pin stores are plain writes to
 * the thread's own stack.
 */

#ifndef ALASKA_CORE_THREAD_STATE_H
#define ALASKA_CORE_THREAD_STATE_H

#include <atomic>
#include <cstdint>
#include <vector>

namespace alaska
{

/** Where a thread stands with respect to barriers. */
enum class ThreadMode : int
{
    /** Executing managed (transformed) code; must poll safepoints. */
    Managed = 0,
    /** Parked at a safepoint inside a barrier. */
    Parked = 1,
    /**
     * Executing external (untransformed) code, possibly blocked in the
     * kernel. Barriers do not wait for these threads: no pin sets can
     * exist below the external frame (paper §4.1.3).
     */
    External = 2,
};

/** One pin-set frame: a view of a slot array living on the call stack. */
struct PinFrameRecord
{
    /** Slot array; each slot holds a handle value or 0. */
    const uint64_t *slots = nullptr;
    /** Number of slots (decided statically per function). */
    uint32_t count = 0;
};

/**
 * A per-thread cache of reserved handle IDs (a "magazine", after
 * Bonwick's magazine allocator). Steady-state allocate/release pops and
 * pushes here with no shared state at all; the magazine refills from
 * and flushes to the handle table's free-list shards in batches.
 * Owner-thread access only.
 */
struct HandleMagazine
{
    /** Batch size: one refill grabs this many IDs from the table. */
    static constexpr uint32_t capacity = 64;

    /** IDs held, LIFO at ids[count - 1]; none are live allocations. */
    uint32_t ids[capacity];
    uint32_t count = 0;

    bool empty() const { return count == 0; }
    bool full() const { return count == capacity; }
};

/**
 * Counts of Runtime::halloc/hfree/hrealloc calls. In a ThreadState only
 * the owning thread writes them, with a plain load and store (no
 * read-modify-write), while Runtime::stats() reads them concurrently.
 * Cache-line aligned so a counting thread shares the line with no other
 * thread's writes.
 */
struct alignas(64) AllocCounts
{
    std::atomic<uint64_t> hallocs{0};
    std::atomic<uint64_t> hfrees{0};
    std::atomic<uint64_t> hreallocs{0};
};

/** All barrier-relevant state of one registered thread. */
struct ThreadState
{
    std::atomic<ThreadMode> mode{ThreadMode::Managed};
    /** Shadow stack of pin-set frames; owner-writable only. */
    std::vector<PinFrameRecord> frames;
    /** Cached handle IDs for lock-free allocate/release fast paths. */
    HandleMagazine magazine;
    /**
     * The thread's published access epoch: odd while the thread is
     * inside a ConcurrentAccessScope, even when quiescent, advanced by
     * one seq_cst increment at each outermost scope boundary (the
     * thread is the only writer). This is the reader half of the
     * grace-period protocol (Runtime::beginGrace): a relocation
     * campaign frees a committed source only once every thread whose
     * epoch was odd at the ticket's snapshot has advanced, which
     * proves every translation obtained before the snapshot has been
     * dropped. No per-object state is touched on the deref path —
     * protection is one word per *thread*, not one RMW per access.
     */
    std::atomic<uint64_t> accessEpoch{0};
    /** This thread's allocation counts (see Runtime::stats). */
    AllocCounts allocs;

    ThreadState() { frames.reserve(64); }
};

} // namespace alaska

#endif // ALASKA_CORE_THREAD_STATE_H
