/**
 * @file
 * Tests for the per-mode decisions inside DefragController::runPass,
 * driven on a real (phantom-space) heap under a virtual clock:
 * mid-pass abandonment once churn met the goal (and resumption while
 * fragmentation stays above the abandon threshold), Hybrid's
 * abort-rate fallback spending only the campaign's remainder, no
 * fallback once the campaign spent the whole budget or saw too few
 * attempts, and the per-shard cap on a stop-the-world pass. Also the
 * BarrierBudgetAdapter's convergence/floor/cap dynamics. The
 * tick-for-tick reference for all three modes is
 * controller_reference_test.cc.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "anchorage/control.h"
#include "core/handle.h"
#include "core/runtime.h"
#include "sim/address_space.h"
#include "sim/clock.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

constexpr size_t kObjectBytes = 256;

/**
 * ControlTest's shape: a phantom-space heap with 1 MiB sub-heaps and
 * a virtual clock, fragmented to ~2x by allocating `objects` blocks
 * and freeing every other one. Frees what it still holds on
 * destruction; only one Runtime may exist at a time.
 */
struct FragmentedHeap
{
    explicit FragmentedHeap(int objects = 4000)
    {
        runtime.attachService(&service);
        std::vector<void *> handles;
        for (int i = 0; i < objects; i++)
            handles.push_back(runtime.halloc(kObjectBytes));
        for (size_t i = 0; i < handles.size(); i++) {
            if (i % 2 != 0)
                runtime.hfree(handles[i]);
            else
                live.push_back(handles[i]);
        }
    }

    ~FragmentedHeap()
    {
        for (void *h : live)
            runtime.hfree(h);
    }

    /** Allocate `objects` more blocks: churn that fills the holes. */
    void
    refill(int objects)
    {
        for (int i = 0; i < objects; i++)
            live.push_back(runtime.halloc(kObjectBytes));
    }

    // Declaration order matters: the service must outlive the runtime.
    PhantomAddressSpace space;
    AnchorageService service{space,
                             AnchorageConfig{.subHeapBytes = 1 << 20}};
    Runtime runtime{RuntimeConfig{.tableCapacity = 1u << 18}};
    VirtualClock clock;
    std::vector<void *> live;
};

/** The alpha budget the controller derives from an extent. */
size_t
budgetOf(const ControlParams &params, size_t extent)
{
    return static_cast<size_t>(params.alpha *
                               static_cast<double>(extent));
}

/** Hybrid with its abort-rate gate forced open: a single-threaded
 *  campaign aborts nothing, so no non-negative threshold trips it. */
ControlParams
forcedHybrid()
{
    ControlParams params{.useModeledTime = true,
                         .mode = DefragMode::Hybrid};
    params.abortFallbackRate = -1.0;
    params.abortFallbackMinAttempts = 0;
    return params;
}

// --- mid-pass abandonment ---------------------------------------------------

/**
 * Open a 4 KiB-batched StopTheWorld pass with one barrier, refill the
 * holes so fragmentation drops below F_lb, and wake the controller for
 * its next tick.
 */
void
openPassThenRefill(FragmentedHeap &heap, DefragController &controller)
{
    const ControlAction first = controller.tick();
    EXPECT_TRUE(first.defragged);
    EXPECT_EQ(controller.state(), DefragController::State::Defragmenting);

    heap.refill(2000);
    EXPECT_LT(heap.service.fragmentation(), controller.params().fLb);
    heap.clock.set(controller.nextWake());
}

ControlParams
batchedStw(double abandonFraction)
{
    ControlParams params{.useModeledTime = true};
    params.batchBytes = 4 << 10;
    params.midPassAbandonFraction = abandonFraction;
    return params;
}

/** The tick after the refill resumes the open pass with one barrier,
 *  because fragmentation stays at or above fLb × abandonFraction. */
void
expectResumedPass(double abandonFraction)
{
    FragmentedHeap heap;
    DefragController controller(heap.service, heap.clock,
                                batchedStw(abandonFraction));
    openPassThenRefill(heap, controller);
    ASSERT_GE(heap.service.fragmentation(),
              controller.params().fLb * abandonFraction);

    const ControlAction action = controller.tick();
    EXPECT_FALSE(action.abandoned);
    EXPECT_TRUE(action.defragged);
    ASSERT_EQ(action.byMechanism.size(), 1u);
    EXPECT_EQ(action.byMechanism[0].kind, MechanismKind::Stw);
    EXPECT_EQ(action.stats.barriers, 1u);
    EXPECT_EQ(controller.abandonments(), 0u);
    EXPECT_EQ(controller.barriers(), 2u);
}

TEST(MidPassAbandon, DropsTheRemainderOnceChurnMetTheGoal)
{
    FragmentedHeap heap;
    DefragController controller(heap.service, heap.clock,
                                batchedStw(1.0));
    ASSERT_GT(heap.service.fragmentation(), controller.params().fUb);

    openPassThenRefill(heap, controller);
    const ControlAction action = controller.tick();
    EXPECT_TRUE(action.abandoned);
    EXPECT_FALSE(action.defragged);
    EXPECT_TRUE(action.byMechanism.empty());
    EXPECT_EQ(action.stats.barriers, 0u);
    EXPECT_EQ(controller.abandonments(), 1u);
    EXPECT_EQ(controller.barriers(), 1u);
    EXPECT_EQ(controller.state(), DefragController::State::Waiting);
}

TEST(MidPassAbandon, FractionZeroRunsTheBarrierInstead)
{
    expectResumedPass(0);
}

TEST(MidPassAbandon, ResumesAboveTheAbandonThreshold)
{
    // Armed, but the threshold fLb × 0.5 (about 0.58) lies below any
    // fragmentation the heap can reach, so churn under F_lb alone
    // does not abandon the pass.
    expectResumedPass(0.5);
}

// --- Hybrid's abort-rate fallback -------------------------------------------

TEST(HybridFallback, SpendsOnlyTheCampaignsRemainder)
{
    // Five sub-heaps and half the extent as budget: the campaign runs
    // out of strictly better destinations before the budget, and the
    // barrier pass has more to move than the remainder allows.
    FragmentedHeap heap(20000);
    ControlParams params = forcedHybrid();
    params.alpha = 0.5;
    DefragController controller(heap.service, heap.clock, params);
    ASSERT_GT(heap.service.fragmentation(), params.fUb);

    const size_t budget =
        budgetOf(params, heap.service.heapExtent());
    const ControlAction action = controller.tick();
    ASSERT_TRUE(action.fellBack);
    EXPECT_EQ(controller.fallbacks(), 1u);
    ASSERT_EQ(action.byMechanism.size(), 2u);
    const MechanismReport &campaign = action.byMechanism[0];
    const MechanismReport &stw = action.byMechanism[1];
    EXPECT_EQ(campaign.kind, MechanismKind::Campaign);
    EXPECT_EQ(stw.kind, MechanismKind::Stw);
    ASSERT_LT(campaign.stats.movedBytes, budget);

    // One alpha budget per tick: the barrier pass moves at most what
    // the campaign left, plus one object's overshoot.
    EXPECT_GT(stw.stats.movedBytes, 0u);
    EXPECT_LE(stw.stats.movedBytes,
              budget - campaign.stats.movedBytes + kObjectBytes);
    EXPECT_EQ(campaign.pauseSec, 0.0);
    EXPECT_GT(stw.pauseSec, 0.0);
    EXPECT_EQ(action.stats.barriers, stw.stats.barriers);
}

TEST(HybridFallback, ExhaustedBudgetRunsNoFallback)
{
    // At the default alpha the campaign has more to move than the
    // budget allows, so it spends the budget in full.
    FragmentedHeap heap;
    const ControlParams params = forcedHybrid();
    DefragController controller(heap.service, heap.clock, params);
    ASSERT_GT(heap.service.fragmentation(), params.fUb);

    const size_t budget =
        budgetOf(params, heap.service.heapExtent());
    const uint64_t barriers_before = heap.runtime.stats().barriers;
    const ControlAction action = controller.tick();
    ASSERT_TRUE(action.defragged);
    ASSERT_EQ(action.byMechanism.size(), 1u);
    EXPECT_EQ(action.byMechanism[0].kind, MechanismKind::Campaign);
    EXPECT_GE(action.stats.movedBytes, budget);
    EXPECT_FALSE(action.fellBack);
    EXPECT_EQ(controller.fallbacks(), 0u);
    EXPECT_EQ(action.stats.barriers, 0u);
    EXPECT_EQ(heap.runtime.stats().barriers, barriers_before);
}

TEST(HybridFallback, TooFewAttemptsNeverFallBack)
{
    // Every survivor pinned: each concurrent attempt aborts, a rate
    // well over the 0.25 threshold. But a small heap gives the tick
    // fewer attempts than the default floor, too few to tell
    // contention from noise, so Hybrid stays concurrent.
    FragmentedHeap heap(40);
    for (void *h : heap.live)
        heap.runtime.table()
            .entry(handleId(reinterpret_cast<uint64_t>(h)))
            .state.fetch_add(HandleTableEntry::pinCountOne);

    ControlParams params{.useModeledTime = true,
                         .mode = DefragMode::Hybrid};
    params.abortFallbackRate = 0.25;
    DefragController controller(heap.service, heap.clock, params);
    ASSERT_GT(heap.service.fragmentation(), params.fUb);

    const uint64_t barriers_before = heap.runtime.stats().barriers;
    const ControlAction action = controller.tick();
    ASSERT_TRUE(action.defragged);
    ASSERT_EQ(action.byMechanism.size(), 1u);
    const DefragStats &campaign = action.byMechanism[0].stats;
    ASSERT_GT(campaign.attempts, 0u);
    ASSERT_LT(campaign.attempts, params.abortFallbackMinAttempts);
    ASSERT_GT(campaign.abortRate(), params.abortFallbackRate);
    EXPECT_EQ(campaign.movedBytes, 0u);
    EXPECT_FALSE(action.fellBack);
    EXPECT_EQ(controller.fallbacks(), 0u);
    EXPECT_EQ(action.stats.barriers, 0u);
    EXPECT_EQ(heap.runtime.stats().barriers, barriers_before);

    for (void *h : heap.live)
        heap.runtime.table()
            .entry(handleId(reinterpret_cast<uint64_t>(h)))
            .state.fetch_sub(HandleTableEntry::pinCountOne);
}

// --- per-shard cap ----------------------------------------------------------

/** Bytes the first StopTheWorld tick moves on a fresh fragmented heap,
 *  and that tick's alpha budget. */
std::pair<size_t, size_t>
firstStwTick(double shardBudgetFraction)
{
    FragmentedHeap heap;
    ControlParams params{.useModeledTime = true};
    params.shardBudgetFraction = shardBudgetFraction;
    DefragController controller(heap.service, heap.clock, params);
    const size_t budget =
        budgetOf(params, heap.service.heapExtent());
    const ControlAction action = controller.tick();
    EXPECT_TRUE(action.defragged);
    return {action.stats.movedBytes, budget};
}

TEST(ShardCap, BoundsOneTicksMovesPerShard)
{
    // Every block comes from one thread, so one shard: the cap bounds
    // the whole tick.
    const auto [uncapped, budget] = firstStwTick(1.0);
    const auto [capped, capped_budget] = firstStwTick(0.25);
    ASSERT_EQ(budget, capped_budget);
    EXPECT_GT(capped, 0u);
    EXPECT_LE(capped, budget / 4 + kObjectBytes);
    EXPECT_LT(capped, uncapped);
}

// --- batchBytes adaptation --------------------------------------------------

TEST(BarrierBudgetAdapter, ShrinksOnOvershootAndRecoversUnderTarget)
{
    // Target 1 ms, floor 4 KiB, cap 1 MiB: starts at the floor.
    BarrierBudgetAdapter adapter(1e-3, 4 << 10, 1 << 20);
    ASSERT_TRUE(adapter.enabled());
    EXPECT_EQ(adapter.current(), size_t{4} << 10);

    // Barriers running well under target/2 recover additively toward
    // the cap — slowly (cap/32-ish steps), and never past it.
    for (int i = 0; i < 200; i++)
        adapter.observe(1e-4);
    EXPECT_EQ(adapter.current(), size_t{1} << 20);

    // A 4x overshoot shrinks multiplicatively: one observation lands
    // the next barrier near a quarter of the size (with margin).
    adapter.observe(4e-3);
    const size_t after_overshoot = adapter.current();
    EXPECT_LT(after_overshoot, (size_t{1} << 20) / 3);
    EXPECT_GT(after_overshoot, (size_t{1} << 20) / 8);

    // Synthetic sustained overshoot converges to the floor, never
    // below it.
    for (int i = 0; i < 100; i++)
        adapter.observe(50e-3);
    EXPECT_EQ(adapter.current(), size_t{4} << 10);

    // And it recovers after the overshoot clears.
    for (int i = 0; i < 200; i++)
        adapter.observe(1e-4);
    EXPECT_EQ(adapter.current(), size_t{1} << 20);
}

TEST(BarrierBudgetAdapter, DisabledKeepsTheStaticLegacyBound)
{
    BarrierBudgetAdapter fixed(0, 4 << 10, 1 << 20);
    EXPECT_FALSE(fixed.enabled());
    EXPECT_EQ(fixed.current(), size_t{1} << 20);
    fixed.observe(10.0); // no-op when disabled
    EXPECT_EQ(fixed.current(), size_t{1} << 20);

    // batchBytes == 0 means unbatched, exactly as before the split.
    BarrierBudgetAdapter unbatched(0, 4 << 10, 0);
    EXPECT_EQ(unbatched.current(), SIZE_MAX);
}

TEST(BarrierBudgetAdapter, TinyOvershootStillShrinks)
{
    // A pause barely over target: the 0.9 margin (and the >= guard)
    // must still shrink the bound, or the adapter could plateau while
    // overshooting forever.
    BarrierBudgetAdapter adapter(1e-3, 1 << 10, 1 << 20);
    for (int i = 0; i < 60; i++)
        adapter.observe(1e-4);
    const size_t before = adapter.current();
    adapter.observe(1.0001e-3);
    EXPECT_LT(adapter.current(), before);
}

} // namespace
