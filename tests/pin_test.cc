/**
 * @file
 * Tests for pin frames and the pinned-set unification performed at
 * barriers (§3.4, §4.1.3).
 */

#include <gtest/gtest.h>

#include "api/access.h"
#include "core/malloc_service.h"
#include "core/pin.h"
#include "core/runtime.h"
#include "core/translate.h"

namespace
{

using namespace alaska;

class PinTest : public ::testing::Test
{
  protected:
    PinTest()
        : runtime_(RuntimeConfig{.tableCapacity = 1u << 12}),
          registration_(runtime_)
    {
        runtime_.attachService(&service_);
    }

    // Declaration order matters: the service must outlive the runtime.
    MallocService service_;
    Runtime runtime_;
    ThreadRegistration registration_;
};

TEST_F(PinTest, PinnedHandleAppearsInBarrierSet)
{
    void *h = runtime_.halloc(64);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    {
        ALASKA_PIN_FRAME(frame, 2);
        frame.pin(0, h);
        runtime_.barrier([&](const PinnedSet &pinned) {
            EXPECT_TRUE(pinned.contains(id));
            EXPECT_EQ(pinned.count(), 1u);
        });
    }
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_FALSE(pinned.contains(id));
        EXPECT_EQ(pinned.count(), 0u);
    });
    runtime_.hfree(h);
}

TEST_F(PinTest, ReleasedSlotIsNotPinned)
{
    void *h = runtime_.halloc(64);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    ALASKA_PIN_FRAME(frame, 1);
    frame.pin(0, h);
    frame.release(0);
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_FALSE(pinned.contains(id));
    });
    runtime_.hfree(h);
}

TEST_F(PinTest, RawPointersInSlotsAreIgnored)
{
    int local = 0;
    ALASKA_PIN_FRAME(frame, 1);
    EXPECT_EQ(frame.pin(0, &local), &local);
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_EQ(pinned.count(), 0u);
    });
}

TEST_F(PinTest, NestedFramesUnionTheirPins)
{
    void *a = runtime_.halloc(8);
    void *b = runtime_.halloc(8);
    const uint32_t ida = handleId(reinterpret_cast<uint64_t>(a));
    const uint32_t idb = handleId(reinterpret_cast<uint64_t>(b));
    ALASKA_PIN_FRAME(outer, 1);
    outer.pin(0, a);
    {
        ALASKA_PIN_FRAME(inner, 1);
        inner.pin(0, b);
        runtime_.barrier([&](const PinnedSet &pinned) {
            EXPECT_TRUE(pinned.contains(ida));
            EXPECT_TRUE(pinned.contains(idb));
        });
    }
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_TRUE(pinned.contains(ida));
        EXPECT_FALSE(pinned.contains(idb));
    });
    runtime_.hfree(a);
    runtime_.hfree(b);
}

TEST_F(PinTest, SlotReuseTracksTheLatestHandle)
{
    // The interference-graph allocator gives non-overlapping translations
    // the same slot; the slot must always reflect the live one.
    void *a = runtime_.halloc(8);
    void *b = runtime_.halloc(8);
    const uint32_t ida = handleId(reinterpret_cast<uint64_t>(a));
    const uint32_t idb = handleId(reinterpret_cast<uint64_t>(b));
    ALASKA_PIN_FRAME(frame, 1);
    frame.pin(0, a);
    frame.pin(0, b); // overwrites: a's live range ended
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_FALSE(pinned.contains(ida));
        EXPECT_TRUE(pinned.contains(idb));
    });
    runtime_.hfree(a);
    runtime_.hfree(b);
}

TEST_F(PinTest, PinnedInteriorHandlePinsTheObject)
{
    void *h = runtime_.halloc(128);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    void *interior =
        reinterpret_cast<void *>(reinterpret_cast<uint64_t>(h) + 64);
    ALASKA_PIN_FRAME(frame, 1);
    frame.pin(0, interior);
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_TRUE(pinned.contains(id));
    });
    runtime_.hfree(h);
}

TEST_F(PinTest, PinnedHelperReleasesOnScopeExit)
{
    void *h = runtime_.halloc(sizeof(int));
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    {
        pinned<int> p(static_cast<int *>(h));
        *p = 9;
        runtime_.barrier([&](const PinnedSet &pinned) {
            EXPECT_TRUE(pinned.contains(id));
            EXPECT_EQ(pinned.count(), 1u);
        });
    }
    runtime_.barrier([&](const PinnedSet &pinned) {
        EXPECT_FALSE(pinned.contains(id));
        EXPECT_EQ(pinned.count(), 0u);
    });
    runtime_.hfree(h);
}

TEST(PinAtomicTest, AtomicModeCountsPins)
{
    // An atomic pin (ConcurrentPin, what pinned<T> takes under Scoped)
    // is honored by barriers under the default configuration.
    MallocService service;
    Runtime runtime(RuntimeConfig{.tableCapacity = 256});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);

    void *h = runtime.halloc(16);
    const uint32_t id = handleId(reinterpret_cast<uint64_t>(h));
    {
        ConcurrentPin pin(h);
        EXPECT_EQ(pin.get(), translate(h));
        runtime.barrier([&](const PinnedSet &pinned) {
            EXPECT_TRUE(pinned.contains(id));
        });
    }
    runtime.barrier([&](const PinnedSet &pinned) {
        EXPECT_FALSE(pinned.contains(id));
    });
    runtime.hfree(h);
}

} // namespace
