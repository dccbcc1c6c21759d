/**
 * @file
 * Page-granular residency accounting.
 *
 * The paper measures defragmentation success as the process's resident
 * set size over time, sampled from the kernel. Sampling /proc from
 * inside unit tests is noisy and machine-dependent, so every allocator
 * in this repository routes its page-level effects (first touch and
 * MADV_DONTNEED) through this model, which produces exact,
 * deterministic RSS numbers. Real-backed address spaces
 * additionally perform the matching mmap/madvise calls so the behaviour
 * stays honest.
 *
 * Residency is one atomic bit per page, kept in a radix tree
 * over the page number (a fixed root array, middle nodes, and 4 KiB
 * bitmap leaves that each cover 2^15 pages). Nodes are created on first
 * touch by a compare-and-swap and live until the model is destroyed.
 * The tree spans pages 0 to 2^39 - 1, which covers every user-space
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
 */

#ifndef ALASKA_SIM_PAGE_MODEL_H
#define ALASKA_SIM_PAGE_MODEL_H

#include <atomic>
#include <cstddef>
#include <cstdint>

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
     * Mark every page overlapping [addr, addr+len) resident. Pages
     * numbered 2^39 and above (addresses from 2 PiB up, at 4 KiB
     * pages) are outside the model; touching one is fatal.
     */
    void touch(uint64_t addr, size_t len);

    /**
     * MADV_DONTNEED on [addr, addr+len): pages *fully contained* in the
     * range lose residency (partial edge pages stay, as in the kernel).
     */
    void discard(uint64_t addr, size_t len);

    /** Resident bytes (resident pages times page size). */
    size_t rss() const { return residentPages() * pageSize_; }

    /** Number of resident pages. */
    size_t residentPages() const;

    /** True iff the page containing addr is resident. */
    bool isResident(uint64_t addr) const;

  private:
    /** log2 of the pages one leaf covers: 2^15 bits, a 4 KiB leaf. */
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

    /** The leaf holding page's bit, or nullptr if none exists yet. */
    Leaf *findLeaf(uint64_t page) const;

    /** The leaf holding page's bit, created if absent. */
    Leaf &leafFor(uint64_t page);

    /**
     * Set (resident) or clear every bit in pages [begin, end), a word
     * at a time, and count the bits that flipped.
     */
    void markPages(uint64_t begin, uint64_t end, bool resident);

    size_t pageSize_;

    /** Root of the residency tree; slots are filled on first touch. */
    std::atomic<Mid *> top_[size_t{1} << topBits] = {};

    /**
     * Number of set bits. Signed: a clear can be counted before the set
     * it undid when the two race, so the value may dip below zero while
     * they are in flight. On its own cache line, away from the
     * read-mostly tree root every touch loads.
     */
    alignas(64) std::atomic<int64_t> resident_{0};
};

} // namespace alaska

#endif // ALASKA_SIM_PAGE_MODEL_H
