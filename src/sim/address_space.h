/**
 * @file
 * Pluggable heap address spaces.
 *
 * Allocators in this repository (Anchorage, Mesh, the glibc/jemalloc
 * models) operate on abstract 64-bit addresses and route all page-level
 * effects through a PageModel. Two implementations exist:
 *
 *  - RealAddressSpace: addresses are actual mmap'd memory; copies are
 *    real memmoves and discards are real madvise(MADV_DONTNEED) calls in
 *    addition to the accounting. Used when object contents matter
 *    (Figure 9's Redis workload, all correctness tests).
 *
 *  - PhantomAddressSpace: addresses are accounting-only; no bytes are
 *    backed. Used for experiments whose heaps would not fit in the test
 *    machine (Figure 11's 50 GiB-policy workload, scaled): the layout,
 *    metadata, fragmentation and controller dynamics are identical —
 *    only the payload bytes are absent.
 */

#ifndef ALASKA_SIM_ADDRESS_SPACE_H
#define ALASKA_SIM_ADDRESS_SPACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sim/page_model.h"

namespace alaska
{

/**
 * Abstract heap address space with page accounting.
 *
 * map/copy/touch/discard and rss() are safe to call concurrently: page
 * accounting is a lock-free per-page bitmap inside PageModel (which
 * does not depend on map(): it covers any address), real mappings go
 * through the (thread-safe) kernel, and phantom bases come from an
 * atomic cursor. unmap() must not race accesses to the region being
 * unmapped.
 */
class AddressSpace
{
  public:
    virtual ~AddressSpace() = default;

    /** Reserve a region of bytes; returns its base address. */
    virtual uint64_t map(size_t bytes) = 0;

    /** Release a region previously returned by map(). */
    virtual void unmap(uint64_t base, size_t bytes) = 0;

    /** memmove dst <- src (and touch destination pages). */
    virtual void copy(uint64_t dst, uint64_t src, size_t len) = 0;

    /** Application write: touch pages (and nothing else). */
    virtual void touch(uint64_t addr, size_t len) = 0;

    /** MADV_DONTNEED the given range. */
    virtual void discard(uint64_t addr, size_t len) = 0;

    /**
     * Raw pointer for an address, or nullptr if this space has no real
     * backing (phantom mode).
     */
    virtual void *raw(uint64_t addr) = 0;

    /** Resident set size attributable to this space, in bytes. */
    size_t rss() const { return pages_.rss(); }

    /** The underlying page model (for tests and residency queries). */
    PageModel &pages() { return pages_; }
    const PageModel &pages() const { return pages_; }

  protected:
    PageModel pages_;
};

/** mmap-backed address space; addresses are real pointers. */
class RealAddressSpace : public AddressSpace
{
  public:
    uint64_t map(size_t bytes) override;
    void unmap(uint64_t base, size_t bytes) override;
    void copy(uint64_t dst, uint64_t src, size_t len) override;
    void touch(uint64_t addr, size_t len) override;
    void discard(uint64_t addr, size_t len) override;
    void *raw(uint64_t addr) override;
};

/** Accounting-only address space; addresses are synthetic. */
class PhantomAddressSpace : public AddressSpace
{
  public:
    uint64_t map(size_t bytes) override;
    void unmap(uint64_t base, size_t bytes) override;
    void copy(uint64_t dst, uint64_t src, size_t len) override;
    void touch(uint64_t addr, size_t len) override;
    void discard(uint64_t addr, size_t len) override;
    void *raw(uint64_t /*addr*/) override { return nullptr; }

  private:
    /** Next synthetic base; starts high and far from real mappings.
     *  Atomic so sharded allocators may map sub-heaps concurrently. */
    std::atomic<uint64_t> next_{UINT64_C(0x100000000000)};
};

} // namespace alaska

#endif // ALASKA_SIM_ADDRESS_SPACE_H
