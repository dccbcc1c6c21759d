/**
 * @file
 * A swapping service built on "handle faults" (paper §7).
 *
 * The paper's discussion section proposes marking handle table entries
 * invalid so that translation traps into the runtime, which can then
 * restore the object — approximating page faults at object granularity.
 * This service implements that mechanism: swapOut() evicts an unpinned
 * object's bytes into a cold store and marks the entry Invalid; the
 * next translateChecked() of any alias faults, and the service swaps
 * the object back in. This is the building block the paper names for
 * object-granularity swapping, compression, and far memory.
 *
 * The cold store models a slower tier: bytes are kept in a side arena
 * with its own accounting, standing in for disk or far memory.
 */

#ifndef ALASKA_SERVICES_SWAP_SERVICE_H
#define ALASKA_SERVICES_SWAP_SERVICE_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/runtime.h"
#include "core/service.h"

namespace alaska
{

/** malloc-backed service with object-granularity swapping. */
class SwapService : public Service
{
  public:
    void init(Runtime &runtime) override;
    void deinit() override;
    void *alloc(uint32_t id, size_t size) override;
    void free(uint32_t id, void *ptr) override;
    const char *name() const override { return "swap"; }
    /** Size requested for the resident block at ptr; 0 if unknown. */
    size_t usableSize(const void *ptr) const override;

    /**
     * Restore a swapped-out object (the handle-fault slow path).
     * Called by the runtime from translateChecked().
     */
    void *fault(uint32_t id) override;

    /**
     * Evict an object to the cold store. Must be called with the world
     * stopped (inside a barrier) for unpinned handles only, exactly
     * like a relocation.
     * @return false if the object was already swapped out.
     */
    bool swapOut(uint32_t id);

    /** Evict all unpinned objects over a barrier; returns count. */
    size_t swapOutAllUnpinned();

    /** Bytes currently in the hot (resident) tier. */
    size_t hotBytes() const;
    /** Bytes currently in the cold (swapped) tier. */
    size_t coldBytes() const;
    /** Number of faults served (swap-ins). */
    size_t swapIns() const { return swapIns_; }

  private:
    Runtime *runtime_ = nullptr;
    mutable std::mutex mutex_;
    /** Hot store: resident block -> size requested. */
    std::unordered_map<const void *, size_t> hot_;
    /** Cold store: id -> evicted bytes. */
    std::unordered_map<uint32_t, std::vector<unsigned char>> cold_;
    size_t hotBytes_ = 0;
    size_t coldBytes_ = 0;
    size_t swapIns_ = 0;
};

} // namespace alaska

#endif // ALASKA_SERVICES_SWAP_SERVICE_H
