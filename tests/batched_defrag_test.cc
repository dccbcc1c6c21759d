/**
 * @file
 * Tests for batched, resumable defragmentation (paper §6's pause-time
 * story): a pass split into byte-bounded barriers reaches the same end
 * state as one monolithic barrier, every barrier respects the batch
 * budget, the resumable cursor survives mutator interleavings between
 * barriers, and the per-barrier stats fields report honest pause
 * accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "base/rng.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

/** Largest object the fixtures allocate; per-barrier overshoot slack. */
constexpr size_t kMaxObject = 1 << 10;

/**
 * One self-contained heap stack (space, service, runtime) that can be
 * fragmented deterministically — built twice by the equality test so a
 * monolithic and a batched pass can run on identical heaps. shards=1
 * keeps placement independent of the process-global thread ordinal.
 */
struct HeapStack
{
    PhantomAddressSpace space;
    AnchorageService service;
    Runtime runtime;

    explicit HeapStack(size_t shards = 1)
        : service(space, AnchorageConfig{.subHeapBytes = 1 << 20,
                                         .shards = shards}),
          runtime(RuntimeConfig{.tableCapacity = 1u << 18})
    {
        runtime.attachService(&service);
    }

    /** Allocate then free a deterministic subset: fragmentation ~2x. */
    void
    fragment(int objects = 6000)
    {
        Rng rng(42);
        std::vector<void *> handles;
        for (int i = 0; i < objects; i++)
            handles.push_back(runtime.halloc(16 + rng.below(240)));
        for (size_t i = 0; i < handles.size(); i += 2)
            runtime.hfree(handles[i]);
    }
};

/** End-state fingerprint of one defrag run, for cross-run equality
 *  (only one Runtime may be live at a time, so the monolithic and
 *  batched stacks run sequentially and compare fingerprints). */
struct RunResult
{
    size_t extent;
    size_t active;
    DefragStats stats;
};

TEST(BatchedDefragTest, BatchedPassMatchesMonolithicEndState)
{
    // Same heap, same budget: a monolithic barrier and a batched pass
    // must land on identical extent/live accounting — batching changes
    // when work happens, never what work happens.
    RunResult mono;
    {
        HeapStack stack;
        stack.fragment();
        ASSERT_GT(stack.service.fragmentation(), 1.5);
        mono.stats = stack.service.defrag(SIZE_MAX);
        mono.extent = stack.service.heapExtent();
        mono.active = stack.service.activeBytes();
        EXPECT_GT(mono.stats.movedObjects, 0u);
    }

    HeapStack stack;
    stack.fragment();
    auto pass = stack.service.beginBatchedDefrag(SIZE_MAX);
    const size_t batch = 48 << 10;
    size_t steps = 0;
    while (!pass.done()) {
        const DefragStats s = pass.step(batch);
        // Every barrier is bounded by the batch budget plus at most
        // one object's overshoot.
        EXPECT_LE(s.maxBarrierBytes, batch + kMaxObject);
        steps++;
        ASSERT_LT(steps, 10000u) << "batched pass failed to terminate";
    }
    // The pass really was split into many short barriers...
    EXPECT_GT(steps, 1u);
    EXPECT_EQ(pass.totals().barriers, steps);
    // ...and reached the monolithic end state exactly.
    EXPECT_EQ(stack.service.heapExtent(), mono.extent);
    EXPECT_EQ(stack.service.activeBytes(), mono.active);
    EXPECT_EQ(pass.totals().movedObjects, mono.stats.movedObjects);
    EXPECT_EQ(pass.totals().movedBytes, mono.stats.movedBytes);
    EXPECT_EQ(pass.totals().reclaimedBytes,
              mono.stats.reclaimedBytes);
}

TEST(BatchedDefragTest, BudgetLimitedBatchedPassMatchesMonolithic)
{
    const size_t budget = 200 << 10;
    RunResult mono;
    {
        HeapStack stack;
        stack.fragment();
        mono.stats = stack.service.defrag(budget);
        mono.extent = stack.service.heapExtent();
        mono.active = stack.service.activeBytes();
    }

    HeapStack stack;
    stack.fragment();
    auto pass = stack.service.beginBatchedDefrag(budget);
    while (!pass.done())
        pass.step(32 << 10);
    EXPECT_EQ(pass.totals().movedBytes, mono.stats.movedBytes);
    EXPECT_EQ(stack.service.heapExtent(), mono.extent);
    // The pass budget bounds the whole sequence, batch by batch.
    EXPECT_LE(pass.totals().movedBytes, budget + kMaxObject);
}

TEST(BatchedDefragTest, CursorSurvivesInterleavedMutators)
{
    RealAddressSpace space;
    AnchorageService service(space,
                             AnchorageConfig{.subHeapBytes = 1 << 20});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);
    Rng rng(7);

    struct Obj
    {
        void *h;
        std::vector<unsigned char> shadow;
    };
    std::vector<Obj> live;
    auto make = [&] {
        Obj obj;
        const size_t size = 16 + rng.below(480);
        obj.h = runtime.halloc(size);
        obj.shadow.resize(size);
        for (auto &byte : obj.shadow)
            byte = static_cast<unsigned char>(rng.below(256));
        std::memcpy(translate(obj.h), obj.shadow.data(), size);
        live.push_back(std::move(obj));
    };
    for (int i = 0; i < 4000; i++)
        make();
    for (size_t i = live.size(); i-- > 0;) {
        if (rng.chance(0.5)) {
            runtime.hfree(live[i].h);
            live[i] = std::move(live.back());
            live.pop_back();
        }
    }
    const double frag_before = service.fragmentation();
    ASSERT_GT(frag_before, 1.4);

    // Step a batched pass and mutate between every two barriers: the
    // carried cursor/index state must revalidate against trims, hole
    // reuse, and fresh bumps the mutator causes mid-pass.
    auto pass = service.beginBatchedDefrag(SIZE_MAX);
    size_t steps = 0;
    while (!pass.done()) {
        const DefragStats s = pass.step(24 << 10);
        EXPECT_LE(s.maxBarrierBytes, (24u << 10) + kMaxObject);
        steps++;
        ASSERT_LT(steps, 10000u);
        for (int i = 0; i < 20 && !live.empty(); i++) {
            if (rng.chance(0.5)) {
                make();
            } else {
                const size_t idx = rng.below(live.size());
                runtime.hfree(live[idx].h);
                live[idx] = std::move(live.back());
                live.pop_back();
            }
        }
    }
    EXPECT_GT(steps, 1u);
    EXPECT_LT(service.fragmentation(), frag_before);

    // Every survivor is intact, bit for bit, wherever it landed.
    for (auto &obj : live) {
        ASSERT_EQ(std::memcmp(translate(obj.h), obj.shadow.data(),
                              obj.shadow.size()),
                  0);
        runtime.hfree(obj.h);
    }
}

TEST(BatchedDefragTest, StatsReportPerBarrierAccounting)
{
    HeapStack stack;
    stack.fragment();

    // A monolithic pass is one barrier, and its max fields equal the
    // whole pass — honest numbers for the degenerate case.
    const DefragStats one = stack.service.defrag(64 << 10);
    EXPECT_EQ(one.barriers, 1u);
    EXPECT_EQ(one.maxBarrierBytes, one.movedBytes);
    EXPECT_DOUBLE_EQ(one.maxBarrierSec, one.measuredSec);
    EXPECT_DOUBLE_EQ(one.maxBarrierModeledSec, one.modeledSec);

    // A stepped pass accumulates: barriers counts steps, the max
    // fields track the worst step, and the folded sums keep growing.
    auto pass = stack.service.beginBatchedDefrag(SIZE_MAX);
    size_t steps = 0;
    uint64_t worst_bytes = 0;
    while (!pass.done()) {
        const DefragStats s = pass.step(16 << 10);
        worst_bytes = std::max(worst_bytes, s.maxBarrierBytes);
        steps++;
        ASSERT_LT(steps, 10000u);
    }
    EXPECT_EQ(pass.totals().barriers, steps);
    EXPECT_EQ(pass.totals().maxBarrierBytes, worst_bytes);
    EXPECT_LE(pass.totals().maxBarrierSec, pass.totals().measuredSec);
    EXPECT_GT(pass.totals().maxBarrierModeledSec, 0.0);
}

} // namespace
