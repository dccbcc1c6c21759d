/**
 * @file
 * Tests for the Anchorage defragmenting service (§4.3): correctness of
 * object movement, pin respect, fragmentation reduction, and kernel
 * memory return.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "base/rng.h"
#include "core/pin.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "services/concurrent_reloc.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

class AnchorageTest : public ::testing::Test
{
  protected:
    AnchorageTest()
        : service_(space_, AnchorageConfig{.subHeapBytes = 1 << 20}),
          runtime_(RuntimeConfig{.tableCapacity = 1u << 18}),
          registration_(runtime_)
    {
        runtime_.attachService(&service_);
    }

    // Declaration order matters: the service must outlive the runtime.
    RealAddressSpace space_;
    AnchorageService service_;
    Runtime runtime_;
    ThreadRegistration registration_;
};

TEST_F(AnchorageTest, AllocationsAreUsableMemory)
{
    void *h = runtime_.halloc(100);
    auto *p = static_cast<char *>(translate(h));
    std::strcpy(p, "anchorage");
    EXPECT_STREQ(static_cast<char *>(translate(h)), "anchorage");
    runtime_.hfree(h);
}

TEST_F(AnchorageTest, FragmentationMetricTracksHoles)
{
    EXPECT_DOUBLE_EQ(service_.fragmentation(), 1.0);
    std::vector<void *> handles;
    for (int i = 0; i < 1000; i++)
        handles.push_back(runtime_.halloc(496));
    EXPECT_NEAR(service_.fragmentation(), 1.0, 0.01);
    // Free every other object: extent unchanged, active halves.
    for (size_t i = 0; i < handles.size(); i += 2)
        runtime_.hfree(handles[i]);
    EXPECT_NEAR(service_.fragmentation(), 2.0, 0.05);
    for (size_t i = 1; i < handles.size(); i += 2)
        runtime_.hfree(handles[i]);
}

TEST_F(AnchorageTest, DefragPreservesContents)
{
    Rng rng(77);
    struct Obj
    {
        void *h;
        std::vector<unsigned char> shadow;
    };
    std::vector<Obj> objects;
    for (int i = 0; i < 2000; i++) {
        const size_t size = 16 + rng.below(256);
        Obj obj;
        obj.h = runtime_.halloc(size);
        obj.shadow.resize(size);
        for (auto &byte : obj.shadow)
            byte = static_cast<unsigned char>(rng.below(256));
        std::memcpy(translate(obj.h), obj.shadow.data(), size);
        objects.push_back(std::move(obj));
    }
    // Punch holes to create fragmentation.
    Rng hole_rng(88);
    for (size_t i = objects.size(); i-- > 0;) {
        if (hole_rng.chance(0.5)) {
            runtime_.hfree(objects[i].h);
            objects[i] = objects.back();
            objects.pop_back();
        }
    }
    const double frag_before = service_.fragmentation();
    const DefragStats stats = service_.defragFully();
    EXPECT_GT(stats.movedObjects, 0u);
    EXPECT_LT(service_.fragmentation(), frag_before);
    // Every surviving object is intact, bit for bit.
    for (auto &obj : objects) {
        ASSERT_EQ(std::memcmp(translate(obj.h), obj.shadow.data(),
                              obj.shadow.size()),
                  0);
        runtime_.hfree(obj.h);
    }
}

TEST_F(AnchorageTest, DefragCompactsToNearOne)
{
    std::vector<void *> handles;
    for (int i = 0; i < 4000; i++)
        handles.push_back(runtime_.halloc(240));
    for (size_t i = 0; i < handles.size(); i++) {
        if (i % 4 != 0)
            runtime_.hfree(handles[i]);
    }
    service_.defragFully();
    // All survivors are equal-sized; compaction can reach density ~1.
    EXPECT_LT(service_.fragmentation(), 1.05);
    for (size_t i = 0; i < handles.size(); i += 4)
        runtime_.hfree(handles[i]);
}

TEST_F(AnchorageTest, PinnedObjectsDoNotMove)
{
    std::vector<void *> handles;
    for (int i = 0; i < 512; i++)
        handles.push_back(runtime_.halloc(128));
    for (size_t i = 0; i < handles.size(); i++) {
        if (i % 2 != 0)
            runtime_.hfree(handles[i]);
    }
    void *target = handles[handles.size() - 2];
    ALASKA_PIN_FRAME(frame, 1);
    auto *before = frame.pin(0, target);
    const DefragStats stats = service_.defrag(SIZE_MAX);
    EXPECT_GT(stats.pinnedSkips, 0u);
    // The pinned object's raw address is unchanged...
    EXPECT_EQ(translate(target), before);
    frame.release(0);
    // ...but once released it is free to move.
    service_.defragFully();
    for (size_t i = 0; i < handles.size(); i += 2)
        runtime_.hfree(handles[i]);
}

// An atomic pin (ConcurrentPin: the pin half of pinned<T> under the
// Scoped discipline) with no pin-frame slot behind it must hold against
// real stop-the-world moves, whether the pinning thread is the one
// running the barrier or a second thread parked in poll().
TEST_F(AnchorageTest, AtomicPinsHoldAgainstStopTheWorldMoves)
{
    const std::function<DefragStats()> passes[] = {
        [&] { return service_.defrag(SIZE_MAX); },
        [&] { return service_.beginBatchedDefrag(SIZE_MAX).step(16 << 10); },
    };
    for (const auto &pass : passes) {
        for (const bool parked_holder : {false, true}) {
            // From an empty heap: a 256-byte hole at the bottom, then
            // 128-byte objects with every other one freed, then the
            // 256-byte target on top. A pass visits the target first;
            // the bottom hole is the only one of its size class, so the
            // 128-byte moves cannot take it and it stays free below.
            void *hole = runtime_.halloc(256);
            std::vector<void *> handles;
            for (int i = 0; i < 256; i++)
                handles.push_back(runtime_.halloc(128));
            void *target = runtime_.halloc(256);
            runtime_.hfree(hole);
            for (size_t i = 1; i < handles.size(); i += 2)
                runtime_.hfree(handles[i]);
            void *before = translate(target);

            std::atomic<int> phase{0};
            std::thread holder;
            std::optional<ConcurrentPin> pin;
            if (parked_holder) {
                holder = std::thread([&] {
                    ThreadRegistration reg(runtime_);
                    ConcurrentPin held(target);
                    phase.store(1);
                    while (phase.load() == 1)
                        poll();
                });
                while (phase.load() == 0)
                    std::this_thread::yield();
            } else {
                pin.emplace(target);
            }
            const DefragStats stats = pass();
            EXPECT_GT(stats.pinnedSkips, 0u);
            EXPECT_GT(stats.movedObjects, 0u);
            EXPECT_EQ(translate(target), before);
            pin.reset();
            phase.store(2);
            if (holder.joinable())
                holder.join();

            // Released, it moves (into the bottom hole).
            pass();
            EXPECT_NE(translate(target), before);

            for (size_t i = 0; i < handles.size(); i += 2)
                runtime_.hfree(handles[i]);
            runtime_.hfree(target);
            service_.defragFully(); // back to an empty heap
        }
    }
}

TEST_F(AnchorageTest, DefragReducesRss)
{
    std::vector<void *> handles;
    for (int i = 0; i < 8000; i++)
        handles.push_back(runtime_.halloc(496));
    const size_t rss_full = service_.rss();
    for (size_t i = 0; i < handles.size(); i++) {
        if (i % 4 != 0)
            runtime_.hfree(handles[i]);
    }
    // Scattered holes: RSS barely moves before defrag.
    EXPECT_GT(service_.rss(), rss_full / 2);
    service_.defragFully();
    // After compaction, ~3/4 of pages went back to the kernel.
    EXPECT_LT(service_.rss(), rss_full / 2);
    for (size_t i = 0; i < handles.size(); i += 4)
        runtime_.hfree(handles[i]);
}

TEST_F(AnchorageTest, PartialDefragRespectsBudget)
{
    std::vector<void *> handles;
    for (int i = 0; i < 4000; i++)
        handles.push_back(runtime_.halloc(256));
    for (size_t i = 0; i < handles.size(); i++) {
        if (i % 2 != 0)
            runtime_.hfree(handles[i]);
    }
    const DefragStats stats = service_.defrag(64 * 1024);
    // alpha-style budget: no more than budget + one object overshoot.
    EXPECT_LE(stats.movedBytes, 64 * 1024u + 256u);
    for (size_t i = 0; i < handles.size(); i += 2)
        runtime_.hfree(handles[i]);
}

TEST_F(AnchorageTest, HreallocWorksOnAnchorage)
{
    void *h = runtime_.halloc(64);
    std::memset(translate(h), 0x5a, 64);
    runtime_.hrealloc(h, 4096);
    auto *p = static_cast<unsigned char *>(translate(h));
    for (int i = 0; i < 64; i++)
        ASSERT_EQ(p[i], 0x5a);
    runtime_.hfree(h);
}

TEST_F(AnchorageTest, OversizedObjectsGetDedicatedSubHeaps)
{
    const size_t before = service_.subHeapCount();
    void *h = runtime_.halloc(4u << 20); // bigger than subHeapBytes
    EXPECT_GT(service_.subHeapCount(), before);
    auto *p = static_cast<char *>(translate(h));
    p[0] = 'a';
    p[(4u << 20) - 1] = 'z';
    runtime_.hfree(h);
}

/** Property: churn + periodic defrag never corrupts live objects. */
class AnchorageChurn : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(AnchorageChurn, ChurnWithDefragIsSound)
{
    RealAddressSpace space;
    AnchorageService service(space,
                             AnchorageConfig{.subHeapBytes = 1 << 20});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);
    Rng rng(GetParam());

    struct Obj
    {
        void *h;
        uint64_t tag;
        size_t size;
    };
    std::vector<Obj> live;

    for (int step = 0; step < 30000; step++) {
        if (live.empty() || rng.chance(0.52)) {
            // Min 16 so the head and tail tags cannot overlap.
            const size_t size = 16 + rng.below(1024);
            void *h = runtime.halloc(size);
            const uint64_t tag = rng.next();
            // Stamp the first and last word with the tag.
            auto *p = static_cast<char *>(translate(h));
            std::memcpy(p, &tag, sizeof(tag));
            std::memcpy(p + size - sizeof(tag), &tag, sizeof(tag));
            live.push_back({h, tag, size});
        } else {
            const size_t idx = rng.below(live.size());
            runtime.hfree(live[idx].h);
            live[idx] = live.back();
            live.pop_back();
        }
        if (step % 5000 == 4999)
            service.defrag(SIZE_MAX);
    }
    service.defragFully();
    for (auto &obj : live) {
        auto *p = static_cast<char *>(translate(obj.h));
        uint64_t head, tail;
        std::memcpy(&head, p, sizeof(head));
        std::memcpy(&tail, p + obj.size - sizeof(tail), sizeof(tail));
        ASSERT_EQ(head, obj.tag);
        ASSERT_EQ(tail, obj.tag);
        runtime.hfree(obj.h);
    }
    EXPECT_EQ(runtime.table().liveCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnchorageChurn,
                         ::testing::Values(1, 2, 3));

} // namespace
