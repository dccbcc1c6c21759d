/**
 * @file
 * The allocator-model interface used by the fragmentation experiments
 * (Figures 1, 9, 10, 11).
 *
 * The paper compares Anchorage against three non-mobile memory managers
 * under Redis: glibc malloc (baseline), jemalloc + activedefrag, and
 * Mesh. We reproduce their RSS behaviour with faithful allocator models
 * driven by the same allocation/lifetime stream as the real run; page
 * residency flows through PageModel, making every curve deterministic
 * (docs/ARCHITECTURE.md, layer 6). The models stand in for the real
 * allocators, whose RSS would depend on the host's kernel and libc.
 */

#ifndef ALASKA_ALLOC_SIM_ALLOC_MODEL_H
#define ALASKA_ALLOC_SIM_ALLOC_MODEL_H

#include <cstddef>
#include <cstdint>

namespace alaska
{

/**
 * An allocator model: hands out address tokens, accounts pages.
 *
 * Tokens are synthetic heap addresses; they are stable for the lifetime
 * of the allocation unless the owner explicitly moves it (activedefrag).
 */
class AllocModel
{
  public:
    virtual ~AllocModel() = default;

    /** Allocate size bytes; returns the address token. */
    virtual uint64_t alloc(size_t size) = 0;

    /** Free a token from alloc(). */
    virtual void free(uint64_t token) = 0;

    /** Resident set size attributable to the heap, bytes. */
    virtual size_t rss() const = 0;

    /** Bytes in live allocations. */
    virtual size_t activeBytes() const = 0;

    /** Model name for reports. */
    virtual const char *name() const = 0;

    /**
     * Periodic background maintenance (Mesh's meshing passes, decay,
     * ...). Called by harnesses on their sampling cadence. Default: none.
     */
    virtual void maintain() {}

    /**
     * Defragmentation hint (the jemalloc API activedefrag is built on):
     * true if the application should reallocate this token to reduce
     * fragmentation. Default: allocator cannot benefit from moves.
     */
    virtual bool shouldMove(uint64_t token) const
    {
        (void)token;
        return false;
    }
};

} // namespace alaska

#endif // ALASKA_ALLOC_SIM_ALLOC_MODEL_H
