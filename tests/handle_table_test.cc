/**
 * @file
 * Tests for the single-level handle table (§4.2.1).
 */

#include <gtest/gtest.h>

#include <thread>
#include <unordered_set>
#include <vector>

#include "base/rng.h"
#include "core/handle_table.h"

namespace
{

using namespace alaska;

TEST(HandleTable, BumpAllocationStartsAtZero)
{
    HandleTable table(1024);
    EXPECT_EQ(table.allocate(), 0u);
    EXPECT_EQ(table.allocate(), 1u);
    EXPECT_EQ(table.allocate(), 2u);
    EXPECT_EQ(table.watermark(), 3u);
    EXPECT_EQ(table.liveCount(), 3u);
    for (uint32_t id : {0u, 1u, 2u})
        table.release(id);
}

TEST(HandleTable, FreeListIsConsultedBeforeBump)
{
    HandleTable table(1024);
    const uint32_t a = table.allocate();
    const uint32_t b = table.allocate();
    table.release(a);
    // The paper: "The free list is consulted before bump allocation."
    EXPECT_EQ(table.allocate(), a);
    EXPECT_EQ(table.watermark(), 2u);
    table.release(a);
    table.release(b);
}

TEST(HandleTable, ReleaseClearsEntry)
{
    HandleTable table(64);
    const uint32_t id = table.allocate();
    auto &e = table.entry(id);
    e.install(reinterpret_cast<void *>(0xdeadbef0));
    EXPECT_EQ(e.address(), reinterpret_cast<void *>(0xdeadbef0));
    table.release(id);
    EXPECT_EQ(e.ptr.load(std::memory_order_relaxed), nullptr);
    EXPECT_FALSE(e.allocated());
}

TEST(HandleTable, EntriesAreOneWord)
{
    // The paper's minimal entry: the backing pointer alone.
    EXPECT_EQ(sizeof(HandleTableEntry), 8u);
}

/**
 * The word's tag bits never leak into a translation: a pinned, marked
 * or Invalid entry still names its address, and each bit reads back
 * through its own accessor.
 */
TEST(HandleTable, WordKeepsAddressBesideTagBits)
{
    HandleTable table(64);
    const uint32_t id = table.allocate();
    auto &e = table.entry(id);
    void *const backing = reinterpret_cast<void *>(0x7fff12345670);
    e.install(backing);
    EXPECT_EQ(e.word(), HandleTableEntry::bitsOf(backing));

    e.pin();
    e.pin();
    EXPECT_EQ(e.atomicPinCount(), 2u);
    EXPECT_EQ(e.address(), backing);
    e.unpin();
    e.unpin();
    EXPECT_EQ(e.word(), HandleTableEntry::bitsOf(backing));

    e.ptr.store(reloc::marked(backing));
    EXPECT_EQ(e.address(), backing);
    // A pin clears the mark it finds.
    e.pin();
    EXPECT_FALSE(reloc::isMarked(e.ptr.load()));
    e.unpin();
    EXPECT_EQ(e.word(), HandleTableEntry::bitsOf(backing));

    EXPECT_EQ(HandleTableEntry::addressOf(
                  e.exchangeBacking(HandleTableEntry::Invalid)),
              backing);
    EXPECT_TRUE(e.invalid());
    EXPECT_TRUE(e.allocated());
    EXPECT_EQ(e.address(), nullptr);
    table.release(id);
    EXPECT_EQ(e.word(), 0u);
}

TEST(HandleTable, LargeCapacityIsVirtuallyReserved)
{
    // 2^26 entries = 1 GiB of virtual space; must not consume RSS.
    HandleTable table(1u << 26);
    EXPECT_EQ(table.allocate(), 0u);
    table.release(0);
}

TEST(HandleTable, ConcurrentAllocateYieldsUniqueIds)
{
    HandleTable table(1u << 16);
    constexpr int n_threads = 8;
    constexpr int per_thread = 2000;
    std::vector<std::vector<uint32_t>> got(n_threads);
    std::vector<std::thread> threads;
    threads.reserve(n_threads);
    for (int t = 0; t < n_threads; t++) {
        threads.emplace_back([&table, &got, t] {
            for (int i = 0; i < per_thread; i++)
                got[t].push_back(table.allocate());
        });
    }
    for (auto &th : threads)
        th.join();
    std::unordered_set<uint32_t> all;
    for (const auto &ids : got)
        for (uint32_t id : ids)
            EXPECT_TRUE(all.insert(id).second) << "duplicate id " << id;
    EXPECT_EQ(all.size(), static_cast<size_t>(n_threads * per_thread));
}

/**
 * liveCount() counts entries whose word holds an address or Invalid,
 * not entries with a nonzero word: a reserved ID is not live, and an
 * entry freed while a concurrent accessor still pins it keeps its pin
 * count with no address until the accessor unpins.
 */
TEST(HandleTable, LiveCountCountsOnlyAllocatedEntries)
{
    HandleTable table(1024);
    uint32_t ids[2];
    ASSERT_EQ(table.reserveBatch(ids, 2), 2u);
    // Reserved but never activated: below the watermark, not live.
    EXPECT_EQ(table.liveCount(), 0u);

    const uint32_t id = ids[0];
    auto &e = table.entry(id);
    table.activate(id);
    // An atomic pin, as ConcurrentPin::pinFor takes it, outlives the
    // free: the word keeps the pin count, the rest clears.
    e.pin();
    table.deactivate(id);
    ASSERT_EQ(e.word(), HandleTableEntry::pinCountOne);
    EXPECT_EQ(table.liveCount(), 0u);

    // Re-activating the still-pinned entry counts it exactly once.
    table.activate(id);
    EXPECT_EQ(e.atomicPinCount(), 1u);
    EXPECT_EQ(table.liveCount(), 1u);

    e.unpin();
    table.deactivate(id);
    table.unreserveBatch(ids, 2);
    EXPECT_EQ(table.liveCount(), 0u);
}

/** Property: random alloc/release interleavings keep accounting exact. */
class HandleTableChurn : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(HandleTableChurn, LiveCountMatchesModel)
{
    HandleTable table(4096);
    Rng rng(GetParam());
    std::vector<uint32_t> live;
    for (int step = 0; step < 20000; step++) {
        if (live.empty() || (live.size() < 2048 && rng.chance(0.55))) {
            live.push_back(table.allocate());
        } else {
            const size_t idx = rng.below(live.size());
            table.release(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(table.liveCount(), live.size());
    }
    for (uint32_t id : live)
        table.release(id);
    EXPECT_EQ(table.liveCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HandleTableChurn,
                         ::testing::Values(11, 22, 33));

} // namespace
