#include "anchorage/sub_heap.h"

#include <algorithm>

#include "base/logging.h"

namespace alaska::anchorage
{

static_assert(SubHeap::numClasses <= 32,
              "freeClassMask() holds one bit per class");

SubHeap::SubHeap(AddressSpace &space, size_t capacity)
    : space_(space), capacity_(capacity)
{
    if (capacity > maxCapacity)
        fatal("sub-heap: a capacity of %zu bytes does not fit the "
              "32-bit block offset (at most %zu bytes)",
              capacity, maxCapacity);
    base_ = space_.map(capacity);
    slots_.reserve(1024);
}

SubHeap::~SubHeap()
{
    space_.unmap(base_, capacity_);
}

void
SubHeap::countFree(int cls)
{
    if (freeCount_[cls]++ == 0) {
        freeClassMask_.store(freeClassMask() | (1u << cls),
                             std::memory_order_relaxed);
    }
}

void
SubHeap::uncountFree(int cls)
{
    if (--freeCount_[cls] == 0) {
        freeClassMask_.store(freeClassMask() & ~(1u << cls),
                             std::memory_order_relaxed);
    }
}

SubHeapAlloc
SubHeap::alloc(uint32_t id, size_t size)
{
    const SubHeapAlloc reused = allocFromFreeList(id, size);
    if (reused.ok)
        return reused;
    return bumpAlloc(id, alignUp(size));
}

SubHeapAlloc
SubHeap::allocFromFreeList(uint32_t id, size_t size)
{
    const size_t need = alignUp(size);
    const int cls = classOf(need);

    // O(1) reuse: only the front of the class list is checked (§4.3).
    pruneClassFront(cls);
    auto &list = freeLists_[cls];
    if (!list.empty()) {
        const uint32_t idx = list.back();
        const size_t size = sizeAt(idx);
        // A same-class block can still be smaller than the request
        // (classes span [2^k, 2^(k+1))); the caller bumps in that case.
        if (size >= need) {
            list.pop_back();
            slots_[idx].handleId = id;
            uncountFree(cls);
            freeBytes_ -= size;
            liveBytes_ += size;
            liveCount_++;
            space_.touch(addrAt(idx), need);
            return {true, addrAt(idx)};
        }
    }
    return {false, 0};
}

SubHeapAlloc
SubHeap::bumpAlloc(uint32_t id, size_t need)
{
    const size_t bump = extent();
    if (bump + need > capacity_)
        return {false, 0};
    const uint64_t addr = base_ + bump;
    bump_.store(bump + need, std::memory_order_relaxed);
    slots_.push_back(Slot{static_cast<uint32_t>(bump), id});
    liveBytes_ += need;
    liveCount_++;
    space_.touch(addr, need);
    return {true, addr};
}

void
SubHeap::pruneClassFront(int cls)
{
    auto &list = freeLists_[cls];
    while (!list.empty()) {
        const uint32_t idx = list.back();
        // An index can outlive its block: trimTop() pops trailing
        // blocks, and a regrown heap may put a block of another class
        // there. Only a free block of this class is a live entry.
        if (idx < slots_.size() && isFreeAt(idx) &&
            classOf(sizeAt(idx)) == cls)
            return;
        list.pop_back(); // stale: trimmed away, reused, or reclassed
    }
}

int
SubHeap::findBlock(uint64_t addr) const
{
    // Outside the region an offset would wrap or truncate into it.
    if (!contains(addr))
        return -1;
    const uint32_t offset = static_cast<uint32_t>(addr - base_);
    auto it = std::lower_bound(
        slots_.begin(), slots_.end(), offset,
        [](const Slot &s, uint32_t o) { return s.offset < o; });
    if (it == slots_.end() || it->offset != offset)
        return -1;
    return static_cast<int>(it - slots_.begin());
}

void
SubHeap::free(uint64_t addr)
{
    const int idx = findBlock(addr);
    ALASKA_ASSERT(idx >= 0, "free of unknown block at %llx",
                  static_cast<unsigned long long>(addr));
    freeBlockAt(idx);
}

void
SubHeap::freeBlockAt(int index)
{
    ALASKA_ASSERT(!isFreeAt(index), "double free of block at %llx",
                  static_cast<unsigned long long>(addrAt(index)));
    slots_[index].handleId = Block::freeMarker;
    const size_t size = sizeAt(index);
    liveBytes_ -= size;
    liveCount_--;
    freeBytes_ += size;
    const int cls = classOf(size);
    freeLists_[cls].push_back(static_cast<uint32_t>(index));
    countFree(cls);
}

void
SubHeap::claimBlock(int index, uint32_t id, size_t size)
{
    ALASKA_ASSERT(isFreeAt(index), "claim of live block");
    const size_t block_size = sizeAt(index);
    ALASKA_ASSERT(block_size >= size, "claimed block too small");
    slots_[index].handleId = id;
    uncountFree(classOf(block_size));
    freeBytes_ -= block_size;
    liveBytes_ += block_size;
    liveCount_++;
    space_.touch(addrAt(index), size);
    // The matching free-list entry becomes stale and is pruned lazily.
}

SubHeap::CompactionIndex
SubHeap::buildCompactionIndex() const
{
    CompactionIndex index;
    for (uint32_t i = 0; i < slots_.size(); i++) {
        if (isFreeAt(i))
            index.sorted[classOf(sizeAt(i))].push_back(i);
    }
    // slots_ is address-ordered, so each class list already is too.
    return index;
}

int
SubHeap::popLowestFreeBelow(CompactionIndex &index, size_t size,
                            uint64_t limit)
{
    const size_t need = alignUp(size);
    const int cls = classOf(need);
    auto &list = index.sorted[cls];
    auto &cursor = index.cursor[cls];
    while (cursor < list.size()) {
        const uint32_t idx = list[cursor];
        if (idx >= slots_.size()) {
            // Snapshot index outlived a trim (moveBatchLocked trims its
            // source when a batch ends mid-source, then resumes on the
            // same index next barrier): the block is gone.
            cursor++;
            continue;
        }
        if (!isFreeAt(idx) || sizeAt(idx) < need) {
            cursor++; // reused meanwhile, or a smaller same-class block
            continue;
        }
        if (addrAt(idx) >= limit)
            return -1; // ascending addresses: nothing below limit left
        cursor++;
        return static_cast<int>(idx);
    }
    return -1;
}

size_t
SubHeap::coalesceHoles()
{
    // The slots tile the extent with no gaps, so vector-adjacent free
    // blocks are address-adjacent: one compaction sweep that drops
    // every free slot following a free slot merges every run of holes
    // in place, each into the run's first slot.
    size_t merged = 0;
    size_t w = 0;
    for (size_t r = 0; r < slots_.size(); r++) {
        if (w > 0 && isFreeAt(w - 1) && isFreeAt(r)) {
            merged++;
            continue;
        }
        slots_[w++] = slots_[r];
    }
    if (merged == 0)
        return 0;
    slots_.resize(w);
    // Every index changed: rebuild the free lists and counts from
    // scratch. The reverse walk makes each class's back() (the O(1)
    // reuse slot) the lowest-addressed hole, which is also where
    // defrag wants mutator reuse to land.
    for (auto &list : freeLists_)
        list.clear();
    freeCount_.fill(0);
    uint32_t mask = 0;
    for (size_t i = slots_.size(); i-- > 0;) {
        if (isFreeAt(i)) {
            const int cls = classOf(sizeAt(i));
            freeLists_[cls].push_back(static_cast<uint32_t>(i));
            freeCount_[cls]++;
            mask |= 1u << cls;
        }
    }
    freeClassMask_.store(mask, std::memory_order_relaxed);
    return merged;
}

size_t
SubHeap::trimTop()
{
    const size_t old_bump = extent();
    size_t bump = old_bump;
    while (!slots_.empty() && isFreeAt(slots_.size() - 1)) {
        // The bump has not moved yet, so size the popped block from
        // the local one.
        const size_t offset = slots_.back().offset;
        freeBytes_ -= bump - offset;
        uncountFree(classOf(bump - offset));
        bump = offset;
        slots_.pop_back();
        // The free-list entries for popped indices go stale and are
        // pruned lazily on their next pop.
    }
    if (bump < old_bump) {
        bump_.store(bump, std::memory_order_relaxed);
        // Return the reclaimed tail to the kernel (MADV_DONTNEED).
        space_.discard(base_ + bump, old_bump - bump);
        return old_bump - bump;
    }
    return 0;
}

} // namespace alaska::anchorage
