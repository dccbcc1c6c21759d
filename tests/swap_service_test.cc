/**
 * @file
 * Tests for the handle-fault-based swap service and the accessor half
 * of the concurrent-relocation handshake (paper §7).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/malloc_service.h"
#include "core/pin.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "services/concurrent_reloc.h"
#include "services/swap_service.h"

namespace
{

using namespace alaska;

class SwapTest : public ::testing::Test
{
  protected:
    SwapTest() : runtime_(RuntimeConfig{.tableCapacity = 1u << 12}),
                 registration_(runtime_)
    {
        runtime_.attachService(&service_);
    }

    // Declaration order matters: the service must outlive the runtime.
    SwapService service_;
    Runtime runtime_;
    ThreadRegistration registration_;
};

TEST_F(SwapTest, SwapOutMovesBytesToColdTier)
{
    void *h = runtime_.halloc(128);
    std::memset(translate(h), 0x7e, 128);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    EXPECT_EQ(service_.hotBytes(), 128u);
    runtime_.barrier([&](const PinnedSet &) { service_.swapOut(id); });
    EXPECT_EQ(service_.hotBytes(), 0u);
    EXPECT_EQ(service_.coldBytes(), 128u);
    EXPECT_TRUE(runtime_.table().entry(id).invalid());
    runtime_.hfree(h);
}

TEST_F(SwapTest, CheckedTranslationFaultsTheObjectBackIn)
{
    void *h = runtime_.halloc(64);
    std::memset(translate(h), 0x3c, 64);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    runtime_.barrier([&](const PinnedSet &) { service_.swapOut(id); });

    // Object-granularity "page fault": translateChecked restores it.
    auto *p = static_cast<unsigned char *>(translateChecked(h));
    for (int i = 0; i < 64; i++)
        ASSERT_EQ(p[i], 0x3c);
    EXPECT_EQ(service_.swapIns(), 1u);
    EXPECT_EQ(service_.coldBytes(), 0u);
    EXPECT_FALSE(runtime_.table().entry(id).invalid());
    EXPECT_EQ(runtime_.stats().faults, 1u);
    runtime_.hfree(h);
}

TEST_F(SwapTest, FaultPreservesInteriorOffsets)
{
    void *h = runtime_.halloc(256);
    auto *p = static_cast<char *>(translate(h));
    p[200] = 'x';
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    runtime_.barrier([&](const PinnedSet &) { service_.swapOut(id); });
    void *interior =
        reinterpret_cast<void *>(reinterpret_cast<uint64_t>(h) + 200);
    EXPECT_EQ(*static_cast<char *>(translateChecked(interior)), 'x');
    runtime_.hfree(h);
}

TEST_F(SwapTest, PinnedObjectsAreNotEvicted)
{
    void *hot = runtime_.halloc(64);
    void *cold = runtime_.halloc(64);
    ALASKA_PIN_FRAME(frame, 1);
    frame.pin(0, hot);
    EXPECT_EQ(service_.swapOutAllUnpinned(), 1u);
    const uint32_t hot_id = handleId(reinterpret_cast<uint64_t>(hot));
    const uint32_t cold_id = handleId(reinterpret_cast<uint64_t>(cold));
    EXPECT_FALSE(runtime_.table().entry(hot_id).invalid());
    EXPECT_TRUE(runtime_.table().entry(cold_id).invalid());
    runtime_.hfree(hot);
    runtime_.hfree(cold);
}

TEST_F(SwapTest, FreeingASwappedObjectDropsTheColdCopy)
{
    void *h = runtime_.halloc(512);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    runtime_.barrier([&](const PinnedSet &) { service_.swapOut(id); });
    EXPECT_EQ(service_.coldBytes(), 512u);
    runtime_.hfree(h);
    EXPECT_EQ(service_.coldBytes(), 0u);
}

TEST_F(SwapTest, WorkingSetSwapsInUnderChurn)
{
    // Evict everything, then touch a working set; only it returns.
    std::vector<void *> handles;
    for (int i = 0; i < 100; i++) {
        handles.push_back(runtime_.halloc(1024));
        std::memset(translate(handles.back()), i, 1024);
    }
    EXPECT_EQ(service_.swapOutAllUnpinned(), 100u);
    EXPECT_EQ(service_.hotBytes(), 0u);
    for (int i = 0; i < 10; i++) {
        auto *p = static_cast<unsigned char *>(
            translateChecked(handles[i]));
        ASSERT_EQ(p[500], static_cast<unsigned char>(i));
    }
    EXPECT_EQ(service_.hotBytes(), 10 * 1024u);
    EXPECT_EQ(service_.coldBytes(), 90 * 1024u);
    for (void *h : handles)
        runtime_.hfree(h);
}

class RelocTest : public ::testing::Test
{
  protected:
    RelocTest() : runtime_(RuntimeConfig{.tableCapacity = 1u << 12}),
                  registration_(runtime_)
    {
        runtime_.attachService(&service_);
    }

    // Declaration order matters: the service must outlive the runtime.
    MallocService service_;
    Runtime runtime_;
    ThreadRegistration registration_;
};

TEST_F(RelocTest, AccessorAbortsInFlightRelocation)
{
    // Simulate the race by hand: mark, then access, then commit fails.
    void *h = runtime_.halloc(64);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    auto &entry = runtime_.table().entry(id);
    void *old_ptr = entry.ptr.load();
    // Mover phase 1 (mark).
    entry.ptr.store(reinterpret_cast<void *>(
        reinterpret_cast<uint64_t>(old_ptr) | 1));
    // Accessor arrives: translateConcurrent clears the mark.
    EXPECT_EQ(translateConcurrent(h), old_ptr);
    EXPECT_EQ(entry.ptr.load(), old_ptr);
    runtime_.hfree(h);
}

} // namespace
