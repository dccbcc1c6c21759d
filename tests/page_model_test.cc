/**
 * @file
 * Tests for the page-residency model underlying all RSS measurements.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "base/rng.h"
#include "sim/page_model.h"

namespace
{

using namespace alaska;

TEST(PageModel, TouchMakesPagesResident)
{
    PageModel pm(4096);
    EXPECT_EQ(pm.rss(), 0u);
    pm.touch(0, 1);
    EXPECT_EQ(pm.rss(), 4096u);
    pm.touch(4096, 4096);
    EXPECT_EQ(pm.rss(), 8192u);
}

TEST(PageModel, TouchSpanningPagesCountsAll)
{
    PageModel pm(4096);
    pm.touch(4000, 200); // straddles a page boundary
    EXPECT_EQ(pm.rss(), 8192u);
}

TEST(PageModel, RepeatTouchIsIdempotent)
{
    PageModel pm(4096);
    pm.touch(0, 4096);
    pm.touch(0, 4096);
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, DiscardReleasesOnlyFullPages)
{
    PageModel pm(4096);
    pm.touch(0, 3 * 4096);
    // Range covers page 1 fully, pages 0 and 2 partially.
    pm.discard(100, 2 * 4096);
    EXPECT_EQ(pm.rss(), 2 * 4096u);
    EXPECT_TRUE(pm.isResident(0));
    EXPECT_FALSE(pm.isResident(4096));
    EXPECT_TRUE(pm.isResident(2 * 4096));
}

TEST(PageModel, DiscardSmallerThanAPageIsANoop)
{
    PageModel pm(4096);
    pm.touch(0, 4096);
    pm.discard(0, 100);
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, RetouchAfterDiscardCostsAgain)
{
    PageModel pm(4096);
    pm.touch(0, 4096);
    pm.discard(0, 4096);
    EXPECT_EQ(pm.rss(), 0u);
    pm.touch(0, 1);
    EXPECT_EQ(pm.rss(), 4096u);
}

TEST(PageModel, CustomPageSize)
{
    PageModel pm(1 << 16); // 64 KiB "pages"
    pm.touch(1, 2);
    EXPECT_EQ(pm.rss(), static_cast<size_t>(1 << 16));
}

TEST(PageModel, ResidencyIsExactAcrossTheAddressRange)
{
    // The bottom of the address space, the phantom space's base and
    // the last page below the canonical user-space limit.
    const uint64_t addrs[] = {0, UINT64_C(0x100000000000),
                              UINT64_C(0x7ffffffff000)};
    PageModel pm(4096);
    for (uint64_t addr : addrs)
        pm.touch(addr, 4096);
    EXPECT_EQ(pm.rss(), 3 * 4096u);
    for (uint64_t addr : addrs) {
        EXPECT_TRUE(pm.isResident(addr));
        EXPECT_FALSE(pm.isResident(addr + 4096));
    }
    pm.discard(addrs[1], 4096);
    EXPECT_EQ(pm.rss(), 2 * 4096u);
    EXPECT_FALSE(pm.isResident(addrs[1]));
    pm.discard(addrs[0], 4096);
    pm.discard(addrs[2], 4096);
    EXPECT_EQ(pm.rss(), 0u);
    for (uint64_t addr : addrs)
        EXPECT_FALSE(pm.isResident(addr));
}

/** One touch or discard of whole pages [page, page + pages). */
struct PageOp
{
    bool touch;
    uint64_t page;
    uint64_t pages;
};

void
applyOp(PageModel &pm, const PageOp &op)
{
    if (op.touch)
        pm.touch(op.page * 4096, op.pages * 4096);
    else
        pm.discard(op.page * 4096, op.pages * 4096);
}

TEST(PageModel, ConcurrentTouchAndDiscardMatchASerialReplay)
{
    // Touchers hit overlapping pages; each discarder owns private
    // pages, which it touches and discards in its own order. Touches
    // commute and no page has two owners that disagree on order, so
    // any interleaving must end where a serial replay ends. The
    // private pages interleave with the shared ones inside bitmap
    // words (page % 4), and the two private ranges share the word
    // where they meet, so sets and clears race on the same words.
    constexpr uint64_t interleavedPages = 2048;
    constexpr uint64_t sharedBase = interleavedPages;
    constexpr uint64_t sharedPages = 4096;
    constexpr uint64_t privBase = sharedBase + sharedPages;
    constexpr uint64_t privPages = 1000;
    constexpr int touchers = 4, discarders = 2, opsPerThread = 4000;

    std::vector<std::vector<PageOp>> plans(touchers + discarders);
    for (int t = 0; t < touchers + discarders; t++) {
        Rng rng(100 + t);
        for (int i = 0; i < opsPerThread; i++) {
            PageOp op{};
            if (t < touchers) {
                op.touch = true;
                if (rng.chance(0.5)) {
                    // A shared page of the interleaved region.
                    op.page = rng.below(interleavedPages / 4) * 4 +
                              rng.below(2);
                    op.pages = 1;
                } else {
                    op.pages = 1 + rng.below(200);
                    op.page =
                        sharedBase + rng.below(sharedPages - op.pages);
                }
            } else {
                const int d = t - touchers;
                op.touch = rng.chance(0.5);
                if (rng.chance(0.5)) {
                    op.page = rng.below(interleavedPages / 4) * 4 + 2 + d;
                    op.pages = 1;
                } else {
                    op.pages = 1 + rng.below(100);
                    op.page = privBase + d * privPages +
                              rng.below(privPages - op.pages);
                }
            }
            plans[t].push_back(op);
        }
    }

    PageModel pm(4096);
    std::vector<std::thread> threads;
    for (const auto &plan : plans) {
        threads.emplace_back([&pm, &plan] {
            for (const PageOp &op : plan)
                applyOp(pm, op);
        });
    }
    for (auto &thread : threads)
        thread.join();

    PageModel replay(4096);
    for (const auto &plan : plans) {
        for (const PageOp &op : plan)
            applyOp(replay, op);
    }
    EXPECT_EQ(pm.rss(), replay.rss());
    EXPECT_GT(replay.rss(), 0u);
    for (uint64_t page = 0; page < privBase + discarders * privPages;
         page++)
        ASSERT_EQ(pm.isResident(page * 4096),
                  replay.isResident(page * 4096))
            << "page " << page;
}

} // namespace
