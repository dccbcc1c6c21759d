/**
 * @file
 * Tests for Anchorage sub-heaps: bump allocation, power-of-two free-list
 * reuse, tail trimming (§4.3), the compaction index defrag walks, the
 * fit hints movers read without the shard lock, and the 8-byte block
 * slots whose sizes are derived from the next slot's offset.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "anchorage/sub_heap.h"
#include "base/rng.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

static_assert(sizeof(SubHeap::Slot) == 8,
              "a block's stored record is one 8-byte slot");

class SubHeapTest : public ::testing::Test
{
  protected:
    PhantomAddressSpace space_;
};

TEST_F(SubHeapTest, BumpAllocationIsContiguous)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 100);
    auto b = heap.alloc(2, 100);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(b.addr, a.addr + 112); // 100 aligned up to 112
    EXPECT_EQ(heap.extent(), 224u);
    EXPECT_EQ(heap.liveBytes(), 224u);
}

TEST_F(SubHeapTest, SizeClassesArePowersOfTwo)
{
    EXPECT_EQ(SubHeap::classOf(1), 0);
    EXPECT_EQ(SubHeap::classOf(16), 0);
    EXPECT_EQ(SubHeap::classOf(31), 0);
    EXPECT_EQ(SubHeap::classOf(32), 1);
    EXPECT_EQ(SubHeap::classOf(63), 1);
    EXPECT_EQ(SubHeap::classOf(64), 2);
    EXPECT_EQ(SubHeap::classOf(4096), 8);
}

TEST_F(SubHeapTest, FreeListReusesBlocks)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 64);
    heap.alloc(2, 64);
    heap.free(a.addr);
    EXPECT_EQ(heap.freeBytes(), 64u);
    // Same class -> the hole is reused, not bumped past.
    auto c = heap.alloc(3, 64);
    EXPECT_EQ(c.addr, a.addr);
    EXPECT_EQ(heap.freeBytes(), 0u);
}

TEST_F(SubHeapTest, OnlyFrontOfClassListIsChecked)
{
    SubHeap heap(space_, 1 << 20);
    // Two frees in the same class; LIFO order means the most recently
    // freed block is the "front".
    auto a = heap.alloc(1, 64);
    auto b = heap.alloc(2, 64);
    heap.alloc(3, 64);
    heap.free(a.addr);
    heap.free(b.addr);
    auto c = heap.alloc(4, 64);
    EXPECT_EQ(c.addr, b.addr);
}

TEST_F(SubHeapTest, DifferentClassDoesNotReuse)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 1024);
    heap.alloc(2, 16);
    heap.free(a.addr);
    // A 16-byte request must not consume the 1 KiB hole (different
    // class) — that is what keeps reuse O(1) and internal waste < 2x.
    auto c = heap.alloc(3, 16);
    EXPECT_NE(c.addr, a.addr);
}

TEST_F(SubHeapTest, ExhaustionFailsCleanly)
{
    SubHeap heap(space_, 4096);
    auto a = heap.alloc(1, 4096);
    ASSERT_TRUE(a.ok);
    auto b = heap.alloc(2, 16);
    EXPECT_FALSE(b.ok);
}

TEST_F(SubHeapTest, TrimTopRetractsTrailingFreeBlocks)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 8192);
    auto b = heap.alloc(2, 8192);
    auto c = heap.alloc(3, 8192);
    (void)a;
    (void)b;
    heap.free(b.addr);
    heap.free(c.addr);
    const size_t extent_before = heap.extent();
    const size_t reclaimed = heap.trimTop();
    // b and c are both trailing-free after c's release; both go.
    EXPECT_EQ(reclaimed, 2 * 8192u);
    EXPECT_EQ(heap.extent(), extent_before - 2 * 8192u);
    EXPECT_EQ(heap.freeBytes(), 0u);
}

TEST_F(SubHeapTest, TrimStopsAtLiveBlock)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 4096);
    heap.alloc(2, 4096);
    heap.free(a.addr); // a free hole below a live block
    EXPECT_EQ(heap.trimTop(), 0u);
    EXPECT_EQ(heap.freeBytes(), 4096u);
}

TEST_F(SubHeapTest, TrimReturnsPagesToTheKernel)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 64 * 4096);
    const size_t rss_full = space_.rss();
    EXPECT_GE(rss_full, 64 * 4096u);
    heap.free(a.addr);
    heap.trimTop();
    EXPECT_EQ(space_.rss(), 0u);
}

TEST_F(SubHeapTest, StaleFreeListEntriesAreHarmless)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 64);
    heap.free(a.addr);
    heap.trimTop(); // block trimmed; its free-list entry is now stale
    auto b = heap.alloc(2, 64);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(b.addr, a.addr); // re-bumped over the same space
    EXPECT_EQ(heap.liveBytes(), 64u);
}

TEST_F(SubHeapTest, ClassListYieldsOnlyBlocksOfItsClass)
{
    SubHeap heap(space_, 1 << 20);
    heap.alloc(1, 64);
    auto a = heap.alloc(2, 320); // class 4 (256..511 B)
    heap.free(a.addr);
    heap.trimTop(); // a's class-4 free-list entry outlives its block
    // The regrown heap puts a class-5 block at the same index, and
    // freeing it leaves that stale class-4 entry naming a free block.
    auto b = heap.alloc(3, 816);
    ASSERT_EQ(b.addr, a.addr);
    heap.free(b.addr);
    const size_t live = heap.liveBytes();
    // A class-4 request must not take the 816-byte class-5 hole.
    auto c = heap.alloc(4, 320);
    ASSERT_TRUE(c.ok);
    EXPECT_NE(c.addr, b.addr);
    EXPECT_EQ(heap.liveBytes(), live + 320);
    EXPECT_EQ(heap.freeBytes(), 816u);
}

TEST_F(SubHeapTest, CompactionIndexFindsCompactionTargets)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 64);
    auto b = heap.alloc(2, 64);
    auto c = heap.alloc(3, 64);
    heap.free(a.addr);
    heap.free(b.addr);
    SubHeap::CompactionIndex index = heap.buildCompactionIndex();
    // Nothing below a.
    EXPECT_EQ(heap.popLowestFreeBelow(index, 64, a.addr), -1);
    // The defrag walk wants the lowest hole below c, then the next.
    const int first = heap.popLowestFreeBelow(index, 64, c.addr);
    ASSERT_GE(first, 0);
    EXPECT_EQ(heap.block(first).addr, a.addr);
    const int second = heap.popLowestFreeBelow(index, 64, c.addr);
    ASSERT_GE(second, 0);
    EXPECT_EQ(heap.block(second).addr, b.addr);
    EXPECT_EQ(heap.popLowestFreeBelow(index, 64, c.addr), -1);
}

TEST_F(SubHeapTest, CompactionIndexSkipsBlocksTrimmedAfterItWasBuilt)
{
    // A batched pass trims its source when a batch ends mid-source and
    // resumes on the same index next barrier: an entry whose block the
    // trim popped must be skipped, not handed out.
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 64);
    heap.alloc(2, 64);
    auto c = heap.alloc(3, 64);
    heap.free(a.addr);
    heap.free(c.addr);
    SubHeap::CompactionIndex index = heap.buildCompactionIndex();
    ASSERT_EQ(index.sorted[SubHeap::classOf(64)].size(), 2u);
    heap.trimTop(); // pops c's block; its index entry goes stale
    ASSERT_EQ(heap.blockCount(), 2u);

    const uint64_t top = heap.base() + heap.capacity();
    const int idx = heap.popLowestFreeBelow(index, 64, top);
    ASSERT_GE(idx, 0);
    EXPECT_EQ(heap.block(idx).addr, a.addr);
    EXPECT_EQ(heap.popLowestFreeBelow(index, 64, top), -1);
}

TEST_F(SubHeapTest, FindBlockMatchesOnlyBlockStarts)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 64);
    auto b = heap.alloc(2, 64);
    ASSERT_EQ(heap.findBlock(a.addr), 0);
    ASSERT_EQ(heap.findBlock(b.addr), 1);
    // Below the region, and at or past its end: none may wrap or
    // truncate onto a 32-bit block offset.
    const uint64_t wrap = uint64_t{1} << 32;
    EXPECT_EQ(heap.findBlock(heap.base() - SubHeap::alignment), -1);
    EXPECT_EQ(heap.findBlock(heap.base() - wrap), -1);
    EXPECT_EQ(heap.findBlock(heap.base() + heap.capacity()), -1);
    EXPECT_EQ(heap.findBlock(heap.base() + wrap), -1);
    EXPECT_EQ(heap.findBlock(b.addr + wrap), -1);
    // Inside a live block but not at its start.
    EXPECT_EQ(heap.findBlock(a.addr + SubHeap::alignment), -1);
    EXPECT_EQ(heap.findBlock(b.addr + 1), -1);
}

TEST_F(SubHeapTest, CoalescedHoleSpansTheRunItReplaced)
{
    SubHeap heap(space_, 1 << 20);
    auto a = heap.alloc(1, 64);
    auto b = heap.alloc(2, 100);  // 112 B
    auto c = heap.alloc(3, 1000); // 1008 B
    auto d = heap.alloc(4, 32);
    heap.free(a.addr);
    heap.free(b.addr);
    heap.free(c.addr);
    const size_t run = 64 + 112 + 1008;
    EXPECT_EQ(heap.coalesceHoles(), 2u);
    ASSERT_EQ(heap.blockCount(), 2u);
    const Block hole = heap.block(0);
    EXPECT_TRUE(hole.isFree());
    EXPECT_EQ(hole.addr, a.addr);
    EXPECT_EQ(hole.size, run);
    EXPECT_EQ(heap.block(1).addr, d.addr);
    EXPECT_EQ(heap.block(1).size, 32u);
    EXPECT_EQ(heap.freeBytes(), run);
    // The merged hole serves a request no single run member could.
    auto e = heap.alloc(5, 1100);
    EXPECT_EQ(e.addr, a.addr);
}

/**
 * Property: accounting invariants hold under random churn, and the fit
 * hints are exact after every operation.
 */
class SubHeapChurn : public ::testing::TestWithParam<uint64_t>
{
};

/** The class mask recounted from the blocks. */
uint32_t
recountClassMask(const SubHeap &heap)
{
    uint32_t mask = 0;
    for (size_t i = 0; i < heap.blockCount(); i++) {
        const Block blk = heap.block(i);
        if (blk.isFree())
            mask |= 1u << SubHeap::classOf(blk.size);
    }
    return mask;
}

/** The extent recounted from the blocks: they tile it with no gaps. */
size_t
recountExtent(const SubHeap &heap)
{
    if (heap.blockCount() == 0)
        return 0;
    const Block last = heap.block(heap.blockCount() - 1);
    return last.addr + last.size - heap.base();
}

TEST_P(SubHeapChurn, AccountingInvariants)
{
    PhantomAddressSpace space;
    // Small enough that the bump runs out, so the hint's no-room answer
    // is exercised as well as its no-hole answer.
    SubHeap heap(space, 1 << 20);
    Rng rng(GetParam());
    std::vector<std::pair<uint64_t, size_t>> live;
    /** live, keyed by address: the size each block was handed out at. */
    std::unordered_map<uint64_t, size_t> handed_out;
    size_t expected_live_bytes = 0;
    uint32_t next_id = 1000;

    auto track = [&](uint64_t addr) {
        // Reused blocks may be up to 2x the request (same class);
        // account what the heap actually handed out.
        const int idx = heap.findBlock(addr);
        ASSERT_GE(idx, 0);
        const size_t actual = heap.block(idx).size;
        live.emplace_back(addr, actual);
        handed_out[addr] = actual;
        expected_live_bytes += actual;
    };

    for (int step = 0; step < 20000; step++) {
        const uint64_t op = rng.below(100);
        if (live.empty() || op < 50) {
            const size_t size = 1 + rng.below(2048);
            auto r = heap.alloc(next_id++, size);
            if (r.ok)
                track(r.addr);
        } else if (op < 90) {
            const size_t idx = rng.below(live.size());
            heap.free(live[idx].first);
            handed_out.erase(live[idx].first);
            expected_live_bytes -= live[idx].second;
            live[idx] = live.back();
            live.pop_back();
        } else if (op < 96) {
            // A defrag claim: any free block, for a request it fits.
            std::vector<int> holes;
            for (size_t i = 0; i < heap.blockCount(); i++) {
                if (heap.isFreeAt(i))
                    holes.push_back(static_cast<int>(i));
            }
            if (!holes.empty()) {
                const int idx = holes[rng.below(holes.size())];
                const Block blk = heap.block(idx);
                heap.claimBlock(idx, next_id++, 1 + rng.below(blk.size));
                track(blk.addr);
            }
        } else if (op < 98) {
            heap.trimTop();
        } else {
            heap.coalesceHoles();
        }
        ASSERT_EQ(heap.liveBlocks(), live.size());
        ASSERT_EQ(heap.liveBytes(), expected_live_bytes);
        ASSERT_LE(heap.liveBytes() + heap.freeBytes(), heap.extent());

        // The published hints match a recount...
        ASSERT_EQ(heap.freeClassMask(), recountClassMask(heap))
            << "step " << step;
        ASSERT_EQ(heap.extent(), recountExtent(heap)) << "step " << step;
        // Every live block's derived size is still the size it was
        // handed out at, whatever was bumped, trimmed or merged since.
        size_t live_seen = 0;
        for (size_t i = 0; i < heap.blockCount(); i++) {
            const Block blk = heap.block(i);
            if (blk.isFree())
                continue;
            const auto it = handed_out.find(blk.addr);
            ASSERT_NE(it, handed_out.end()) << "step " << step;
            ASSERT_EQ(blk.size, it->second) << "step " << step;
            live_seen++;
        }
        ASSERT_EQ(live_seen, live.size()) << "step " << step;
        // ...and a "no" from them means the locked call fails.
        const size_t probe = 1 + rng.below(4096);
        if (!heap.mayReuse(probe)) {
            const auto r = heap.allocFromFreeList(next_id++, probe);
            ASSERT_FALSE(r.ok) << "step " << step;
        }
        if (!heap.mayAlloc(probe)) {
            const auto r = heap.alloc(next_id++, probe);
            ASSERT_FALSE(r.ok) << "step " << step;
        }
    }
    // Freeing everything and trimming returns the heap to pristine.
    for (auto &[addr, size] : live)
        heap.free(addr);
    heap.trimTop();
    EXPECT_EQ(heap.extent(), 0u);
    EXPECT_EQ(heap.liveBytes(), 0u);
    EXPECT_EQ(heap.freeBytes(), 0u);
    EXPECT_EQ(heap.freeClassMask(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubHeapChurn,
                         ::testing::Values(101, 202, 303));

} // namespace
