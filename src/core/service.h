/**
 * @file
 * The extensible service interface (paper §3.5, §4.2.2).
 *
 * Alaska's core runtime does not manage backing memory itself; it defers
 * to a pluggable service through this interface. The paper describes the
 * interface as "eight callback functions: two lifetime management
 * functions (init/deinit), two backing memory management functions
 * (alloc/free), and four metadata functions". The runtime calls seven
 * through this class: the four lifetime and memory callbacks, name(),
 * usableSize(), and the optional handle-fault hook discussed in §7.
 * Object sizes live with the service's own block metadata, not in the
 * handle table, whose entry is the backing word alone (§4.2.1); heap
 * metadata such as extent and live bytes lives on the concrete service
 * that keeps it (AnchorageService), for the callers that hold one.
 */

#ifndef ALASKA_CORE_SERVICE_H
#define ALASKA_CORE_SERVICE_H

#include <cstddef>
#include <cstdint>

namespace alaska
{

class Runtime;

/** Pluggable backing-memory manager. */
class Service
{
  public:
    virtual ~Service() = default;

    // --- lifetime management -------------------------------------------
    /** Called once when the service is attached to a runtime. */
    virtual void init(Runtime &runtime) = 0;
    /** Called once when the runtime shuts down or detaches the service. */
    virtual void deinit() = 0;

    // --- backing memory management --------------------------------------
    /**
     * Provide backing memory for a new object.
     * @param id the handle ID the object will live behind
     * @param size requested object size in bytes
     */
    virtual void *alloc(uint32_t id, size_t size) = 0;
    /** Release the backing memory of a freed object. */
    virtual void free(uint32_t id, void *ptr) = 0;

    // --- metadata --------------------------------------------------------
    /** Human-readable service name. */
    virtual const char *name() const = 0;
    /**
     * Usable size of the block at ptr, a pointer alloc() returned and
     * free() has not yet taken: at least the size requested, possibly
     * rounded up. Serves hrealloc's copy and Runtime::usableSize().
     */
    virtual size_t usableSize(const void *ptr) const = 0;

    // --- optional: handle faults (§7) -----------------------------------
    /**
     * Called by the checked translation path when an entry is marked
     * Invalid. The service must restore backing memory, update the HTE,
     * and return the new base pointer. Default: this service does not
     * support faulting.
     */
    virtual void *fault(uint32_t id);
};

} // namespace alaska

#endif // ALASKA_CORE_SERVICE_H
