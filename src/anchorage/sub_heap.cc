#include "anchorage/sub_heap.h"

#include <algorithm>

#include "base/logging.h"

namespace alaska::anchorage
{

static_assert(SubHeap::numClasses <= 32,
              "freeClassMask() holds one bit per class");

SubHeap::SubHeap(AddressSpace &space, size_t capacity,
                 uint32_t owner_shard)
    : space_(space), capacity_(capacity), ownerShard_(owner_shard)
{
    base_ = space_.map(capacity);
    blocks_.reserve(1024);
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
        Block &blk = blocks_[idx];
        // A same-class block can still be smaller than the request
        // (classes span [2^k, 2^(k+1))); the caller bumps in that case.
        if (blk.size >= need) {
            list.pop_back();
            blk.handleId = id;
            uncountFree(cls);
            freeBytes_ -= blk.size;
            liveBytes_ += blk.size;
            liveCount_++;
            space_.touch(blk.addr, need);
            return {true, blk.addr};
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
    blocks_.push_back(Block{addr, static_cast<uint32_t>(need), id});
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
        if (idx < blocks_.size() && blocks_[idx].isFree() &&
            classOf(blocks_[idx].size) == cls)
            return;
        list.pop_back(); // stale: trimmed away, reused, or reclassed
    }
}

int
SubHeap::findBlock(uint64_t addr) const
{
    auto it = std::lower_bound(
        blocks_.begin(), blocks_.end(), addr,
        [](const Block &b, uint64_t a) { return b.addr < a; });
    if (it == blocks_.end() || it->addr != addr)
        return -1;
    return static_cast<int>(it - blocks_.begin());
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
    Block &blk = blocks_[index];
    ALASKA_ASSERT(!blk.isFree(), "double free of block at %llx",
                  static_cast<unsigned long long>(blk.addr));
    blk.handleId = Block::freeMarker;
    liveBytes_ -= blk.size;
    liveCount_--;
    freeBytes_ += blk.size;
    const int cls = classOf(blk.size);
    freeLists_[cls].push_back(static_cast<uint32_t>(index));
    countFree(cls);
}

void
SubHeap::claimBlock(int index, uint32_t id, size_t size)
{
    Block &blk = blocks_[index];
    ALASKA_ASSERT(blk.isFree(), "claim of live block");
    ALASKA_ASSERT(blk.size >= size, "claimed block too small");
    blk.handleId = id;
    uncountFree(classOf(blk.size));
    freeBytes_ -= blk.size;
    liveBytes_ += blk.size;
    liveCount_++;
    space_.touch(blk.addr, size);
    // The matching free-list entry becomes stale and is pruned lazily.
}

int
SubHeap::lowestFreeBlockBelow(size_t size, uint64_t limit)
{
    const size_t need = alignUp(size);
    const int cls = classOf(need);
    int best = -1;
    // Full scan of the class list: this runs inside the stop-the-world
    // pause, where thoroughness is worth the time (the mutator-facing
    // alloc path stays O(1)).
    for (uint32_t idx : freeLists_[cls]) {
        if (idx >= blocks_.size())
            continue;
        const Block &blk = blocks_[idx];
        if (!blk.isFree() || blk.size < need || blk.addr >= limit)
            continue;
        if (best < 0 || blk.addr < blocks_[best].addr)
            best = static_cast<int>(idx);
    }
    return best;
}

SubHeap::CompactionIndex
SubHeap::buildCompactionIndex() const
{
    CompactionIndex index;
    for (uint32_t i = 0; i < blocks_.size(); i++) {
        const Block &blk = blocks_[i];
        if (blk.isFree())
            index.sorted[classOf(blk.size)].push_back(i);
    }
    // blocks_ is address-ordered, so each class list already is too.
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
        if (idx >= blocks_.size()) {
            // Snapshot index outlived a trim (a Hybrid-mode barrier ran
            // between a concurrent campaign's moves): the block is gone.
            cursor++;
            continue;
        }
        const Block &blk = blocks_[idx];
        if (!blk.isFree() || blk.size < need) {
            cursor++; // reused meanwhile, or a smaller same-class block
            continue;
        }
        if (blk.addr >= limit)
            return -1; // ascending addresses: nothing below limit left
        cursor++;
        return static_cast<int>(idx);
    }
    return -1;
}

size_t
SubHeap::coalesceHoles()
{
    // blocks_ is address-ordered and tiles the extent with no gaps
    // (bump allocation appends back-to-back), so vector-adjacent free
    // blocks are address-adjacent: one compaction sweep merges every
    // run of holes in place.
    size_t merged = 0;
    size_t w = 0;
    for (size_t r = 0; r < blocks_.size();) {
        if (blocks_[r].isFree()) {
            Block run = blocks_[r];
            size_t r2 = r + 1;
            while (r2 < blocks_.size() && blocks_[r2].isFree()) {
                run.size += blocks_[r2].size;
                r2++;
            }
            merged += (r2 - r) - 1;
            blocks_[w++] = run;
            r = r2;
        } else {
            blocks_[w++] = blocks_[r++];
        }
    }
    if (merged == 0)
        return 0;
    blocks_.resize(w);
    // Every index changed: rebuild the free lists and counts from
    // scratch. The reverse walk makes each class's back() (the O(1)
    // reuse slot) the lowest-addressed hole, which is also where
    // defrag wants mutator reuse to land.
    for (auto &list : freeLists_)
        list.clear();
    freeCount_.fill(0);
    uint32_t mask = 0;
    for (size_t i = blocks_.size(); i-- > 0;) {
        if (blocks_[i].isFree()) {
            const int cls = classOf(blocks_[i].size);
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
    while (!blocks_.empty() && blocks_.back().isFree()) {
        const Block &blk = blocks_.back();
        freeBytes_ -= blk.size;
        uncountFree(classOf(blk.size));
        bump = blk.addr - base_;
        blocks_.pop_back();
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
