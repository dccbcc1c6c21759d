/**
 * @file
 * Edge-case tests for the translation fast path (§3.3, Figure 5): the
 * raw-pointer/handle boundary, offset truncation at the 32-bit field
 * boundary, and the very last representable handle ID.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/malloc_service.h"
#include "core/runtime.h"
#include "core/translate.h"

namespace
{

using namespace alaska;

class TranslateEdgeTest : public ::testing::Test
{
  protected:
    TranslateEdgeTest() : runtime_(RuntimeConfig{.tableCapacity = 1u << 16})
    {
        runtime_.attachService(&service_);
    }

    // Declaration order matters: the service must outlive the runtime.
    MallocService service_;
    Runtime runtime_;
};

TEST_F(TranslateEdgeTest, HighestNonHandleAddressPassesThrough)
{
    // 0x7fff'ffff'ffff'ffff is the largest value whose sign bit is
    // clear: one below the handle space. It must pass through
    // untouched, without ever consulting the handle table.
    const uint64_t v = UINT64_C(0x7fffffffffffffff);
    void *p = reinterpret_cast<void *>(v);
    EXPECT_FALSE(isHandle(v));
    EXPECT_EQ(translate(p), p);
}

TEST_F(TranslateEdgeTest, LowestHandleValueIsAHandle)
{
    // Flipping one more bit lands in handle space: ID 0, offset 0.
    const uint64_t v = UINT64_C(0x8000000000000000);
    EXPECT_TRUE(isHandle(v));
    EXPECT_EQ(handleId(v), 0u);
    EXPECT_EQ(handleOffset(v), 0u);
}

TEST_F(TranslateEdgeTest, OffsetTruncatesAtThe32BitBoundary)
{
    void *h = runtime_.halloc(64);
    const uint64_t base = reinterpret_cast<uint64_t>(h);
    char *backing = static_cast<char *>(translate(h));

    // The maximum representable offset translates to base + 2^32 - 1.
    // (Out of bounds for this object — we only compare addresses.)
    const uint64_t interior = base | 0xffffffffu;
    EXPECT_EQ(translate(reinterpret_cast<void *>(interior)),
              backing + 0xffffffffu);

    // One past it carries into the ID field: the offset must wrap to 0
    // rather than contaminate the extracted ID with a 33rd bit.
    const uint64_t wrapped = interior + 1;
    EXPECT_EQ(handleOffset(wrapped), 0u);
    EXPECT_EQ(handleId(wrapped),
              handleId(base) + 1); // arithmetic spilled into the ID
    runtime_.hfree(h);
}

TEST(TranslateMaxIdTest, LastRepresentableIdTranslates)
{
    // A table spanning the full 31-bit ID space (32 GiB of virtual
    // address space, MAP_NORESERVE) must serve its very last entry
    // through the one-load fast path. No service needed: the entry is
    // poked directly.
    Runtime runtime(RuntimeConfig{.tableCapacity = maxHandleId});

    const uint32_t id = maxHandleId - 1;
    // Backing memory is 16-byte aligned, as every service hands out:
    // the entry's low bits are the mark and Invalid, not address.
    alignas(16) char backing[8];
    auto &e = runtime.table().entry(id);
    e.ptr.store(backing, std::memory_order_release);

    const uint64_t v = makeHandle(id, 5);
    EXPECT_EQ(handleId(v), id);
    EXPECT_EQ(translate(reinterpret_cast<void *>(v)), backing + 5);

    e.ptr.store(nullptr, std::memory_order_release);
}

} // namespace
