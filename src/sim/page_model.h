/**
 * @file
 * Page-granular residency accounting.
 *
 * The paper measures defragmentation success as the process's resident
 * set size over time, sampled from the kernel. Sampling /proc from
 * inside unit tests is noisy and machine-dependent, so every allocator
 * in this repository routes its page-level effects (first touch,
 * MADV_DONTNEED, and Mesh-style page aliasing) through this model, which
 * produces exact, deterministic RSS numbers. Real-backed address spaces
 * additionally perform the matching mmap/madvise calls so the behaviour
 * stays honest.
 *
 * Residency is one atomic bit per physical frame, kept in a radix tree
 * over the frame number (a fixed root array, middle nodes, and 4 KiB
 * bitmap leaves that each cover 2^15 pages). Nodes are created on first
 * touch by a compare-and-swap and live until the model is destroyed.
 * The tree spans frames 0 to 2^39 - 1, which covers every user-space
 * address at 4 KiB pages, so it does not depend on which regions an
 * AddressSpace mapped. One counter holds the number of set bits; it
 * changes only when a bit actually flips, so rss() is exact and O(1).
 *
 * Thread safety: touch(), discard(), and the queries may be called
 * concurrently and take no lock. touch() sets bits with fetch_or and
 * discard() clears them with fetch_and, a word (64 pages) at a time;
 * touching a page that is already resident is a single load with no
 * write, no lock and no allocation. This matters because the sharded
 * Anchorage service (anchorage/anchorage_service.h) drives touches from
 * every shard concurrently, and concurrent relocation campaigns copy
 * (and therefore touch) outside any heap lock. Shared state is written
 * only when a residency bit flips (the bit's word and the counter) or
 * when a tree node is first created. While writers are in flight
 * rss() may lag them by the flips not yet counted; it is exact once
 * they quiesce.
 *
 * alias()/unalias() are also safe to call concurrently with the other
 * operations: the alias map lives behind its own mutex, and the
 * no-alias fast path (the overwhelmingly common case — all modes
 * except meshing) stays a single relaxed-atomic load. A touch racing
 * an alias() may transiently keep the superseded frame resident; RSS
 * can briefly overcount by a page but never undercounts.
 */

#ifndef ALASKA_SIM_PAGE_MODEL_H
#define ALASKA_SIM_PAGE_MODEL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace alaska
{

/** Deterministic model of kernel page residency for a process. */
class PageModel
{
  public:
    explicit PageModel(size_t page_size = 4096) : pageSize_(page_size) {}
    ~PageModel();

    PageModel(const PageModel &) = delete;
    PageModel &operator=(const PageModel &) = delete;

    /** Page size in bytes. */
    size_t pageSize() const { return pageSize_; }

    /**
     * Mark every page overlapping [addr, addr+len) resident. Frames
     * numbered 2^39 and above (addresses from 2 PiB up, at 4 KiB
     * pages) are outside the model; touching one is fatal.
     */
    void touch(uint64_t addr, size_t len);

    /**
     * MADV_DONTNEED on [addr, addr+len): pages *fully contained* in the
     * range lose residency (partial edge pages stay, as in the kernel).
     */
    void discard(uint64_t addr, size_t len);

    /**
     * Mesh-style aliasing: virtual page vpage is remapped to the
     * physical frame backing target. vpage's own frame (if any) is
     * released; future touches of either virtual page land on the
     * shared frame. Safe to call concurrently with touch/discard/
     * queries (see the file comment for the transient-overcount
     * caveat); callers that need a pass to observe a consistent block
     * layout synchronize at a higher level (the mesh pass holds its
     * shard lock).
     */
    void alias(uint64_t vpage_addr, uint64_t target_page_addr);

    /**
     * Undo an alias: vpage gets back a private frame (itself) and that
     * frame becomes resident — the model of a copy-on-write split
     * fault, where the kernel materializes a private copy of the
     * shared frame on write. No-op if vpage is not aliased.
     */
    void unalias(uint64_t vpage_addr);

    /** Number of virtual pages currently aliased onto another frame. */
    size_t aliasedPages() const;

    /** Physical frame address backing the page containing addr. */
    uint64_t frameAddrOf(uint64_t addr) const
    {
        return frameOf(addr / pageSize_) * pageSize_;
    }

    /** Resident bytes (distinct physical frames times page size). */
    size_t rss() const { return residentPages() * pageSize_; }

    /** Number of distinct resident physical frames. */
    size_t residentPages() const;

    /** True iff the page containing addr is resident. */
    bool isResident(uint64_t addr) const;

  private:
    /** log2 of the frames one leaf covers: 2^15 bits, a 4 KiB leaf. */
    static constexpr unsigned leafBits = 15;
    /** log2 of the leaves under one middle node. */
    static constexpr unsigned midBits = 12;
    /** log2 of the root's middle-node slots. */
    static constexpr unsigned topBits = 12;

    struct Leaf
    {
        std::atomic<uint64_t> words[(size_t{1} << leafBits) / 64] = {};
    };

    struct Mid
    {
        std::atomic<Leaf *> leaves[size_t{1} << midBits] = {};
    };

    /** The leaf holding frame's bit, or nullptr if none exists yet. */
    Leaf *findLeaf(uint64_t frame) const;

    /** The leaf holding frame's bit, created if absent. */
    Leaf &leafFor(uint64_t frame);

    /**
     * Set (resident) or clear every bit in frames [begin, end), a word
     * at a time, and count the bits that flipped.
     */
    void markFrames(uint64_t begin, uint64_t end, bool resident);

    /**
     * markFrames() for the frames backing virtual pages [begin, end):
     * the whole range at once while no alias exists, else page by page
     * through frameOf().
     */
    void markPages(uint64_t begin, uint64_t end, bool resident);

    /** Map a virtual page index to its physical frame index. */
    uint64_t frameOf(uint64_t vpage) const;

    size_t pageSize_;

    /** Root of the residency tree; slots are filled on first touch. */
    std::atomic<Mid *> top_[size_t{1} << topBits] = {};

    /**
     * Number of set bits. Signed: a clear can be counted before the set
     * it undid when the two race, so the value may dip below zero while
     * they are in flight. On its own cache line, away from the
     * read-mostly aliasCount_ every touch loads.
     */
    alignas(64) std::atomic<int64_t> resident_{0};

    /**
     * Virtual page -> physical frame, for aliased pages only, guarded
     * by aliasMutex_. aliasCount_ mirrors aliases_.size() so frameOf()
     * can skip the lock entirely while no aliases exist — the touch
     * fast path every non-meshing mode runs stays one atomic load.
     * frameOf() drops aliasMutex_ before its caller updates a bit, so
     * alias()/unalias() are the only paths that flip bits under it.
     */
    alignas(64) std::atomic<size_t> aliasCount_{0};
    mutable std::mutex aliasMutex_;
    std::unordered_map<uint64_t, uint64_t> aliases_;
};

} // namespace alaska

#endif // ALASKA_SIM_PAGE_MODEL_H
