/**
 * @file
 * The "no service" configuration of the paper's evaluation (§5.4):
 * backing memory comes straight from libc malloc. Used to measure the
 * pure cost of translation + pin tracking (Figures 7 and 8) without any
 * mobility-exploiting service in the loop.
 */

#ifndef ALASKA_CORE_MALLOC_SERVICE_H
#define ALASKA_CORE_MALLOC_SERVICE_H

#include "core/service.h"

namespace alaska
{

/** malloc-backed service; objects never move. */
class MallocService : public Service
{
  public:
    void init(Runtime &runtime) override;
    void deinit() override;

    void *alloc(uint32_t id, size_t size) override;
    void free(uint32_t id, void *ptr) override;

    const char *name() const override { return "malloc"; }
    /** malloc_usable_size(ptr). */
    size_t usableSize(const void *ptr) const override;
};

} // namespace alaska

#endif // ALASKA_CORE_MALLOC_SERVICE_H
