#include "core/malloc_service.h"

#include <malloc.h>

#include <cstdlib>

namespace alaska
{

void
MallocService::init(Runtime &runtime)
{
    (void)runtime;
}

void
MallocService::deinit()
{
}

void *
MallocService::alloc(uint32_t id, size_t size)
{
    (void)id;
    return std::malloc(size ? size : 1);
}

void
MallocService::free(uint32_t id, void *ptr)
{
    (void)id;
    std::free(ptr);
}

size_t
MallocService::usableSize(const void *ptr) const
{
    return malloc_usable_size(const_cast<void *>(ptr));
}

} // namespace alaska
