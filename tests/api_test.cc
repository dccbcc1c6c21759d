/**
 * @file
 * Tests for the typed API layer (src/api): href arithmetic at the
 * offset-field boundary, hbox ownership and lifetime rules (including
 * use-after-move), the mode-aware access/pinned guards against live
 * relocation (a guard held across a real Anchorage campaign), the
 * handle-backed STL allocator, and the PinFrame misuse diagnostics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "api/api.h"
#include "core/malloc_service.h"
#include "services/swap_service.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;

// ===== href<T>: typed, field-safe offset arithmetic ========================

TEST(HrefTest, TypedElementArithmetic)
{
    auto *h = reinterpret_cast<int64_t *>(makeHandle(777, 0));
    href<int64_t> ref(h);
    EXPECT_TRUE(ref.isHandle());
    EXPECT_EQ(ref.id(), 777u);
    EXPECT_EQ(ref.offset(), 0u);

    href<int64_t> fourth = ref + 4;
    EXPECT_EQ(fourth.id(), 777u);
    EXPECT_EQ(fourth.offset(), 32u); // elements, not bytes
    EXPECT_EQ(fourth - ref, 4);

    fourth -= 2;
    EXPECT_EQ(fourth.offset(), 16u);
    ++fourth;
    EXPECT_EQ(fourth.offset(), 24u);
    EXPECT_EQ((fourth - 3).offset(), 0u);
}

TEST(HrefTest, OffsetWrapCannotCorruptIdField)
{
    // Park the view 8 bytes below the 4 GiB offset ceiling, then step
    // past it: the offset must wrap mod 2^32 while ID and tag survive.
    constexpr uint32_t id = maxHandleId - 2;
    auto *h = reinterpret_cast<int64_t *>(
        makeHandle(id, 0xfffffff8u));
    href<int64_t> ref(h);

    href<int64_t> wrapped = ref + 2; // +16 bytes: 0xfffffff8 -> 0x8
    EXPECT_TRUE(wrapped.isHandle());
    EXPECT_EQ(wrapped.id(), id);
    EXPECT_EQ(wrapped.offset(), 0x8u);

    // Back across the boundary the other way.
    href<int64_t> back = wrapped - 2;
    EXPECT_EQ(back.id(), id);
    EXPECT_EQ(back.offset(), 0xfffffff8u);

    // A step below offset zero wraps high, still the same object.
    href<int64_t> below = href<int64_t>(
        reinterpret_cast<int64_t *>(makeHandle(id, 0))) - 1;
    EXPECT_EQ(below.id(), id);
    EXPECT_EQ(below.offset(), 0xfffffff8u);
}

TEST(HrefTest, RawPointersPassThrough)
{
    int64_t array[8] = {};
    href<int64_t> ref(&array[0]);
    EXPECT_FALSE(ref.isHandle());
    EXPECT_EQ((ref + 3).get(), &array[3]);
    EXPECT_EQ((ref + 5) - ref, 5);
}

// ===== runtime-backed fixtures =============================================

class ApiTest : public ::testing::Test
{
  protected:
    ApiTest() : runtime_(RuntimeConfig{.tableCapacity = 1u << 12}),
                registration_(runtime_)
    {
        runtime_.attachService(&service_);
    }

    // Declaration order matters: the service must outlive the runtime.
    MallocService service_;
    Runtime runtime_;
    ThreadRegistration registration_;
};

// ===== hbox<T>: ownership and lifetime rules ===============================

TEST_F(ApiTest, HboxAllocatesZeroedTypedSpan)
{
    const uint32_t live_before = runtime_.table().liveCount();
    {
        hbox<int64_t> box(runtime_, 32);
        EXPECT_TRUE(static_cast<bool>(box));
        EXPECT_EQ(box.size(), 32u);
        EXPECT_EQ(box.sizeBytes(), 256u);
        EXPECT_TRUE(isHandle(reinterpret_cast<uint64_t>(box.get())));
        EXPECT_EQ(runtime_.table().liveCount(), live_before + 1);

        alaska::access<int64_t> mem(box);
        for (size_t i = 0; i < box.size(); i++)
            EXPECT_EQ(mem[i], 0); // hcalloc semantics
        for (size_t i = 0; i < box.size(); i++)
            mem[i] = static_cast<int64_t>(i * 3);
        EXPECT_EQ(mem[31], 93);
    }
    // Destruction freed the handle.
    EXPECT_EQ(runtime_.table().liveCount(), live_before);
}

TEST_F(ApiTest, HboxMoveTransfersOwnershipExactlyOnce)
{
    const uint32_t live_before = runtime_.table().liveCount();
    {
        hbox<int> original(runtime_, 4);
        {
            alaska::access<int> mem(original);
            mem[0] = 41;
        }

        hbox<int> stolen = std::move(original);
        // Use-after-move: the moved-from box is empty and harmless.
        EXPECT_FALSE(static_cast<bool>(original));
        EXPECT_EQ(original.get(), nullptr);
        EXPECT_EQ(original.size(), 0u);
        original.reset(); // double-reset of a moved-from box is a no-op

        EXPECT_EQ(stolen.size(), 4u);
        EXPECT_EQ(*alaska::access<int>(stolen), 41);
        EXPECT_EQ(runtime_.table().liveCount(), live_before + 1);

        hbox<int> reassigned(runtime_, 2);
        reassigned = std::move(stolen); // frees reassigned's span
        EXPECT_EQ(runtime_.table().liveCount(), live_before + 1);
        EXPECT_EQ(*alaska::access<int>(reassigned), 41);
    }
    // Exactly one allocation existed; both destructors together freed
    // exactly one handle (no double free, no leak).
    EXPECT_EQ(runtime_.table().liveCount(), live_before);
}

TEST_F(ApiTest, HboxReleaseBridgesToRawApiAndAdoptBack)
{
    hbox<char> box(runtime_, 16);
    char *raw_handle = box.release();
    EXPECT_FALSE(static_cast<bool>(box));
    ASSERT_NE(raw_handle, nullptr);

    // The raw surface owns it now; the typed surface can adopt it back.
    std::strcpy(static_cast<char *>(translate(raw_handle)), "bridged");
    hbox<char> readopted = hbox<char>::adopt(runtime_, raw_handle, 16);
    EXPECT_STREQ(alaska::access<char>(readopted).get(), "bridged");
}

// ===== access<T> / pinned<T> vs live relocation ============================

TEST_F(ApiTest, ScopedDerefReadsThroughAMarkWithoutClearingIt)
{
    hbox<int64_t> box(runtime_, 8);
    const uint32_t id = box.ref().id();
    {
        alaska::access<int64_t> mem(box);
        mem[2] = 99;
    }

    // Simulate a campaign in flight (flag up, as relocateCampaign
    // raises it) so the scope's derefs take the mark-aware strip path.
    Runtime::declareConcurrentDefrag();
    Runtime::gConcurrentRelocCampaigns.fetch_add(1);
    {
        access_scope op;
        const int64_t *raw = api::deref(box.get());
        auto &entry = runtime_.table().entry(id);

        // The strip path reads through a marked entry without touching
        // it: no RMW, the mark survives, the move is never aborted.
        void *unmarked_ptr = entry.ptr.load(std::memory_order_seq_cst);
        entry.ptr.store(reloc::marked(unmarked_ptr),
                        std::memory_order_seq_cst);
        EXPECT_EQ(api::deref(box.get()), raw);
        EXPECT_TRUE(reloc::isMarked(
            entry.ptr.load(std::memory_order_seq_cst)));
        entry.ptr.store(unmarked_ptr, std::memory_order_seq_cst);
    }
    Runtime::gConcurrentRelocCampaigns.fetch_sub(1);
    Runtime::retireConcurrentDefrag();

    EXPECT_EQ(alaska::access<int64_t>(box)[2], 99);
}

TEST_F(ApiTest, PinnedGuardIsImmobileAcrossBarriers)
{
    hbox<int> box(runtime_, 1);
    const uint32_t id = box.ref().id();
    {
        pinned<int> pin(box);
        *pin = 7;
        runtime_.barrier([&](const PinnedSet &set) {
            EXPECT_TRUE(set.contains(id));
        });
        EXPECT_EQ(*pin, 7);
    }
    runtime_.barrier([&](const PinnedSet &set) {
        EXPECT_FALSE(set.contains(id));
    });
}

TEST_F(ApiTest, AccessScopeIsInertUnderDirectDiscipline)
{
    ASSERT_EQ(Runtime::translationDiscipline(),
              TranslationDiscipline::Direct);
    hbox<int> box(runtime_, 1);
    access_scope op; // must not pin anything under Direct
    int *raw = api::deref(box.get());
    *raw = 3;
    EXPECT_EQ(*alaska::access<int>(box), 3);
}

// ===== access<T> / pinned<T> vs a relocation campaign ======================

/**
 * The guards against the one mover, AnchorageService::relocateCampaign,
 * on a layout it always wants to compact: a filler then the target,
 * filler freed, so the campaign slides the target down into the hole.
 */
class ApiCampaignTest : public ::testing::Test
{
  protected:
    ApiCampaignTest()
        : service_(space_,
                   anchorage::AnchorageConfig{.subHeapBytes = 1 << 20}),
          runtime_(RuntimeConfig{.tableCapacity = 1u << 12}),
          registration_(runtime_)
    {
        runtime_.attachService(&service_);
    }

    /** An n-element box with a free hole of its size just below it. */
    template <typename T>
    hbox<T>
    movableBox(size_t n)
    {
        hbox<T> filler(runtime_, n);
        return hbox<T>(runtime_, n);
    }

    // Declaration order matters: the service must outlive the runtime.
    RealAddressSpace space_;
    anchorage::AnchorageService service_;
    Runtime runtime_;
    ThreadRegistration registration_;
};

TEST_F(ApiCampaignTest, AccessGuardHoldsCampaignOffUntilItCloses)
{
    hbox<int64_t> box = movableBox<int64_t>(64);
    {
        alaska::access<int64_t> mem(box);
        mem[0] = 1234;
        mem[63] = 5678;
    }
    auto &entry = runtime_.table().entry(box.ref().id());

    // Announce concurrent defrag, as a daemon would *before* mutators
    // run: guards now open epoch scopes.
    Runtime::declareConcurrentDefrag();
    ASSERT_EQ(Runtime::translationDiscipline(),
              TranslationDiscipline::Scoped);
    std::atomic<bool> done{false};
    anchorage::DefragStats stats;
    std::thread campaign;
    {
        alaska::access<int64_t> guard(box);
        const int64_t *raw = guard.get();
        campaign = std::thread([&] {
            ThreadRegistration reg(runtime_);
            stats = service_.relocateCampaign(SIZE_MAX);
            done.store(true, std::memory_order_seq_cst);
        });
        // The campaign's first grace wait covers the guard's scope:
        // give it ample time to prove it cannot finish or move the
        // object while the guard is open.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_FALSE(done.load(std::memory_order_seq_cst));
        EXPECT_EQ(raw[0], 1234);
        EXPECT_EQ(raw[63], 5678);
        EXPECT_EQ(raw, guard.get()); // the guard's cached view is stable
        EXPECT_EQ(reloc::unmarked(entry.ptr.load(std::memory_order_seq_cst)),
                  static_cast<void *>(const_cast<int64_t *>(raw)));
    }
    // Guard gone: the grace elapses and the campaign moves the object.
    campaign.join();
    Runtime::retireConcurrentDefrag();
    EXPECT_GT(stats.committed, 0u);
    EXPECT_EQ(runtime_.stats().barriers, 0u);

    alaska::access<int64_t> after(box);
    EXPECT_EQ(after[0], 1234);
    EXPECT_EQ(after[63], 5678);
}

TEST_F(ApiCampaignTest, PinnedGuardMakesCampaignSkipTheObject)
{
    hbox<int> box = movableBox<int>(4);
    Runtime::declareConcurrentDefrag();
    {
        pinned<int> pin(box);
        *pin = 7;
        const anchorage::DefragStats held =
            service_.relocateCampaign(SIZE_MAX);
        EXPECT_EQ(held.committed, 0u);
        EXPECT_GT(held.pinnedSkips, 0u);
        EXPECT_EQ(*pin, 7);
    }
    const anchorage::DefragStats released =
        service_.relocateCampaign(SIZE_MAX);
    EXPECT_GT(released.committed, 0u);
    Runtime::retireConcurrentDefrag();
    EXPECT_EQ(*alaska::access<int>(box), 7);
}

// ===== checked access (handle faults) ======================================

TEST(ApiSwapTest, CheckedAccessFaultsSwappedObjectBackIn)
{
    SwapService service;
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 12});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);
    {
        hbox<unsigned char> box(runtime, 512);
        {
            alaska::access<unsigned char> mem(box);
            std::memset(mem.get(), 0xab, 512);
        }
        EXPECT_EQ(service.swapOutAllUnpinned(), 1u);
        EXPECT_EQ(service.hotBytes(), 0u);

        alaska::access<unsigned char> mem(box, checked);
        EXPECT_EQ(mem[300], 0xab);
        EXPECT_EQ(service.swapIns(), 1u);
    }
}

// ===== allocator<T>: STL containers behind handles =========================

TEST_F(ApiTest, VectorLivesBehindOneMovableHandle)
{
    std::vector<int, allocator<int>> v{allocator<int>(runtime_)};
    for (int i = 0; i < 1000; i++)
        v.push_back(i);

    // The backing array is a tagged handle, not a raw address.
    int *backing = v.begin().base().get();
    EXPECT_TRUE(isHandle(reinterpret_cast<uint64_t>(backing)));
    EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0L), 499500L);
    EXPECT_EQ(v[123], 123);

    // Move the backing array the way a defrag pass would: one handle
    // table store. Every iterator and index keeps working because each
    // access translates.
    auto &entry = runtime_.table().entry(
        handleId(reinterpret_cast<uint64_t>(backing)));
    void *old_spot = entry.ptr.load();
    void *new_spot = std::malloc(entry.size);
    std::memcpy(new_spot, old_spot, entry.size);
    entry.ptr.store(new_spot);
    std::free(old_spot);

    EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0L), 499500L);
    EXPECT_EQ(v[999], 999);

    // NOTE: the entry now holds malloc memory the MallocService will
    // free on deallocate — fine for MallocService, whose alloc/free
    // are malloc/free at object granularity.
}

TEST_F(ApiTest, AllocatorEqualityFollowsRuntime)
{
    allocator<int> a(runtime_);
    allocator<long> b(runtime_);
    EXPECT_TRUE(a == allocator<int>(b));
    EXPECT_EQ(a.max_size(), maxObjectSize / sizeof(int));
}

// ===== fatal-diagnostic paths ==============================================

TEST(PinFrameDeathTest, NoLiveRuntimeFailsLoudly)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // No Runtime exists in the child process re-running this test.
    ASSERT_EQ(Runtime::gRuntime, nullptr);
    EXPECT_EXIT(
        {
            uint64_t slots[1];
            PinFrame frame(slots, 1);
        },
        ::testing::ExitedWithCode(1), "no live Runtime");
}

TEST(PinFrameDeathTest, UnregisteredThreadFailsLoudly)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            MallocService service;
            Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 12});
            runtime.attachService(&service);
            // No ThreadRegistration on this thread.
            uint64_t slots[1];
            PinFrame frame(slots, 1);
        },
        ::testing::ExitedWithCode(1), "not registered");
}

TEST(HboxDeathTest, OversizeSpanFailsLoudly)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            MallocService service;
            Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 12});
            runtime.attachService(&service);
            ThreadRegistration reg(runtime);
            hbox<int64_t> box(runtime, (maxObjectSize / 8) + 1);
        },
        ::testing::ExitedWithCode(1), "exceed the 4 GiB");
}

} // namespace
