/**
 * @file
 * Tests for the core runtime allocation API (halloc/hfree/hrealloc) and
 * handle translation against the malloc-backed service.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/malloc_service.h"
#include "core/pin.h"
#include "core/runtime.h"
#include "core/translate.h"

namespace
{

using namespace alaska;

class RuntimeTest : public ::testing::Test
{
  protected:
    RuntimeTest() : runtime_(RuntimeConfig{.tableCapacity = 1u << 16})
    {
        runtime_.attachService(&service_);
    }

    // Declaration order matters: the service must outlive the runtime.
    MallocService service_;
    Runtime runtime_;
};

TEST_F(RuntimeTest, HallocReturnsAHandle)
{
    void *h = runtime_.halloc(64);
    EXPECT_TRUE(isHandle(h));
    EXPECT_EQ(handleOffset(reinterpret_cast<uint64_t>(h)), 0u);
    runtime_.hfree(h);
}

TEST_F(RuntimeTest, TranslationReachesBackingMemory)
{
    void *h = runtime_.halloc(sizeof(int));
    int *p = static_cast<int *>(translate(h));
    *p = 42;
    EXPECT_EQ(*static_cast<int *>(translate(h)), 42);
    runtime_.hfree(h);
}

TEST_F(RuntimeTest, TranslationIsIdentityOnRawPointers)
{
    int value = 7;
    EXPECT_EQ(translate(&value), &value);
    EXPECT_EQ(translate(nullptr), nullptr);
}

TEST_F(RuntimeTest, InteriorHandleTranslatesWithOffset)
{
    void *h = runtime_.halloc(256);
    char *base = static_cast<char *>(translate(h));
    // Pointer arithmetic happens on the handle, translation afterwards.
    void *interior =
        reinterpret_cast<void *>(reinterpret_cast<uint64_t>(h) + 100);
    EXPECT_EQ(translate(interior), base + 100);
    runtime_.hfree(h);
}

TEST_F(RuntimeTest, HreallocPreservesHandleValueAndContents)
{
    void *h = runtime_.halloc(16);
    std::memcpy(translate(h), "fifteen bytes..", 16);
    void *h2 = runtime_.hrealloc(h, 4096);
    // The whole point of handles: growth does not change the "pointer".
    EXPECT_EQ(h2, h);
    EXPECT_EQ(std::memcmp(translate(h), "fifteen bytes..", 16), 0);
    EXPECT_EQ(runtime_.usableSize(h), 4096u);
    runtime_.hfree(h);
}

TEST_F(RuntimeTest, HreallocNullBehavesLikeHalloc)
{
    void *h = runtime_.hrealloc(nullptr, 32);
    EXPECT_TRUE(isHandle(h));
    runtime_.hfree(h);
}

TEST_F(RuntimeTest, HreallocZeroBehavesLikeFree)
{
    void *h = runtime_.halloc(32);
    EXPECT_EQ(runtime_.hrealloc(h, 0), nullptr);
    EXPECT_EQ(runtime_.table().liveCount(), 0u);
}

TEST_F(RuntimeTest, HcallocZeroes)
{
    void *h = runtime_.hcalloc(8, 16);
    auto *p = static_cast<unsigned char *>(translate(h));
    for (int i = 0; i < 128; i++)
        EXPECT_EQ(p[i], 0);
    runtime_.hfree(h);
}

TEST_F(RuntimeTest, HfreeOfRawPointerFallsThroughToLibc)
{
    // Untransformed code may hand us plain malloc memory (§4.1.4).
    void *raw = std::malloc(32);
    runtime_.hfree(raw); // must not crash or touch the table
    EXPECT_EQ(runtime_.table().liveCount(), 0u);
}

TEST_F(RuntimeTest, FreedIdsAreRecycled)
{
    void *a = runtime_.halloc(8);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(a));
    runtime_.hfree(a);
    void *b = runtime_.halloc(8);
    EXPECT_EQ(handleId(reinterpret_cast<uint64_t>(b)), id);
    runtime_.hfree(b);
}

TEST_F(RuntimeTest, StatsCount)
{
    void *h = runtime_.halloc(8);
    h = runtime_.hrealloc(h, 64);
    runtime_.hfree(h);
    const RuntimeStats s = runtime_.stats();
    EXPECT_EQ(s.hallocs, 1u);
    EXPECT_EQ(s.hreallocs, 1u);
    EXPECT_EQ(s.hfrees, 1u);
}

TEST_F(RuntimeTest, ObjectMovementIsOneStoreAwayFromAllAliases)
{
    // Simulate a service moving an object: every alias (any number of
    // copies of the handle, anywhere) observes the move instantly.
    void *h = runtime_.halloc(64);
    std::vector<void *> aliases(10, h);
    std::memset(translate(h), 0xab, 64);

    auto &entry =
        runtime_.table().entry(handleId(reinterpret_cast<uint64_t>(h)));
    void *old_backing = entry.ptr.load(std::memory_order_relaxed);
    void *new_backing = std::malloc(64);
    std::memcpy(new_backing, old_backing, 64);
    entry.ptr.store(new_backing, std::memory_order_release);

    for (void *alias : aliases)
        EXPECT_EQ(translate(alias), new_backing);

    entry.ptr.store(old_backing, std::memory_order_release);
    std::free(new_backing);
    runtime_.hfree(h);
}

/** Property: a random churn of handle allocations stays consistent. */
class RuntimeChurn : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RuntimeChurn, ContentsSurviveChurn)
{
    MallocService service;
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 16});
    runtime.attachService(&service);
    Rng rng(GetParam());

    struct Obj
    {
        void *h;
        unsigned char fill;
        size_t size;
    };
    std::vector<Obj> live;

    for (int step = 0; step < 5000; step++) {
        if (live.empty() || rng.chance(0.5)) {
            const size_t size = 1 + rng.below(512);
            const auto fill = static_cast<unsigned char>(rng.below(256));
            void *h = runtime.halloc(size);
            std::memset(translate(h), fill, size);
            live.push_back({h, fill, size});
        } else if (rng.chance(0.3)) {
            auto &obj = live[rng.below(live.size())];
            const size_t new_size = 1 + rng.below(1024);
            const size_t keep = std::min(obj.size, new_size);
            runtime.hrealloc(obj.h, new_size);
            auto *p = static_cast<unsigned char *>(translate(obj.h));
            for (size_t i = 0; i < keep; i++)
                ASSERT_EQ(p[i], obj.fill);
            std::memset(p, obj.fill, new_size);
            obj.size = new_size;
        } else {
            const size_t idx = rng.below(live.size());
            auto &obj = live[idx];
            auto *p = static_cast<unsigned char *>(translate(obj.h));
            for (size_t i = 0; i < obj.size; i++)
                ASSERT_EQ(p[i], obj.fill);
            runtime.hfree(obj.h);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    for (auto &obj : live)
        runtime.hfree(obj.h);
    EXPECT_EQ(runtime.table().liveCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeChurn,
                         ::testing::Values(5, 6, 7, 8));

} // namespace
