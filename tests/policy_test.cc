/**
 * @file
 * Tests for the decisions inside DefragController::runPass, driven on
 * a real (phantom-space) heap under a virtual clock: an open batched
 * StopTheWorld pass resumes with one barrier even after churn pushed
 * fragmentation below F_lb. Also the BarrierBudgetAdapter's
 * convergence/floor/cap dynamics, alone and wired into the
 * controller's barriers. The tick-for-tick reference for both modes is
 * controller_reference_test.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "anchorage/control.h"
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
 * a virtual clock, fragmented to ~2x by allocating `objects` blocks of
 * `bytes` each and freeing every other one. Frees what it still holds
 * on destruction; only one Runtime may exist at a time.
 */
struct FragmentedHeap
{
    explicit FragmentedHeap(int objects = 4000, size_t bytes = kObjectBytes)
    {
        runtime.attachService(&service);
        std::vector<void *> handles;
        for (int i = 0; i < objects; i++)
            handles.push_back(runtime.halloc(bytes));
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

// --- a batched pass resumes after churn met the goal -----------------------

TEST(ResumedPass, RunsOneBarrierAfterChurnMetTheGoal)
{
    // Open a 4 KiB-batched StopTheWorld pass with one barrier, then
    // refill the holes so fragmentation drops below F_lb: the open
    // pass still resumes with one barrier on the next tick.
    FragmentedHeap heap;
    ControlParams params{.useModeledTime = true};
    params.batchBytes = 4 << 10;
    DefragController controller(heap.service, heap.clock, params);
    ASSERT_GT(heap.service.fragmentation(), params.fUb);

    const ControlAction first = controller.tick();
    EXPECT_TRUE(first.defragged);
    EXPECT_EQ(controller.state(), DefragController::State::Defragmenting);

    heap.refill(2000);
    ASSERT_LT(heap.service.fragmentation(), params.fLb);
    heap.clock.set(controller.nextWake());

    const ControlAction action = controller.tick();
    EXPECT_TRUE(action.defragged);
    EXPECT_EQ(action.stats.barriers, 1u);
    EXPECT_GT(action.pauseSec, 0.0);
    EXPECT_EQ(controller.barriers(), 2u);
}

// --- batchBytes adaptation --------------------------------------------------

TEST(BarrierBudgetAdapter, ShrinksOnOvershootAndRecoversUnderTarget)
{
    // Target 1 ms, cap 1 MiB: starts at the 4 KiB floor.
    BarrierBudgetAdapter adapter(1e-3, 1 << 20);
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
    BarrierBudgetAdapter fixed(0, 1 << 20);
    EXPECT_FALSE(fixed.enabled());
    EXPECT_EQ(fixed.current(), size_t{1} << 20);
    fixed.observe(10.0); // no-op when disabled
    EXPECT_EQ(fixed.current(), size_t{1} << 20);

    // batchBytes == 0 means unbatched, exactly as before the split.
    BarrierBudgetAdapter unbatched(0, 0);
    EXPECT_EQ(unbatched.current(), SIZE_MAX);
}

/**
 * Run a StopTheWorld controller with an oversized 8 MiB per-barrier
 * cap over 40 000 objects of 1 KiB, every other one freed, until it is
 * back in Waiting. @return each barrier's modeled pause, seconds.
 */
std::vector<double>
barrierPausesUntilWaiting(double targetBarrierPauseSec)
{
    FragmentedHeap heap(40000, 1 << 10);
    const ControlParams params{.alpha = 1.0,
                               .useModeledTime = true,
                               .batchBytes = 8 << 20,
                               .targetBarrierPauseSec =
                                   targetBarrierPauseSec};
    DefragController controller(heap.service, heap.clock, params);
    EXPECT_GT(heap.service.fragmentation(), params.fUb);
    std::vector<double> pauses;
    for (int tick = 0; tick < 100000; tick++) {
        const ControlAction action = controller.tick();
        if (action.stats.barriers > 0)
            pauses.push_back(action.stats.maxBarrierModeledSec);
        if (controller.state() == DefragController::State::Waiting)
            break;
        heap.clock.set(controller.nextWake());
    }
    EXPECT_EQ(controller.state(), DefragController::State::Waiting);
    return pauses;
}

TEST(BarrierBudgetAdapter, SteersControllerBarriersToThePauseTarget)
{
    // The adapter wired into runPass: the batch handed to each barrier
    // is the adapter's, and each barrier's pause feeds it back. With a
    // 1 ms target every barrier stays under it, and the batch grows
    // until some barrier comes within 2x of it; the same heap under the
    // static 8 MiB bound overshoots, so the target is what held.
    constexpr double kTarget = 1e-3;
    const std::vector<double> adaptive = barrierPausesUntilWaiting(kTarget);
    const std::vector<double> fixed = barrierPausesUntilWaiting(0);
    ASSERT_FALSE(adaptive.empty());
    ASSERT_FALSE(fixed.empty());
    const double adaptiveMax =
        *std::max_element(adaptive.begin(), adaptive.end());
    EXPECT_LE(adaptiveMax, kTarget)
        << "a barrier overshot the pause target";
    EXPECT_GE(adaptiveMax, kTarget / 2)
        << "the batch never grew toward the target (" << adaptive.size()
        << " barriers)";
    EXPECT_GT(*std::max_element(fixed.begin(), fixed.end()), kTarget)
        << "the static bound never overshot: this heap tests nothing";
}

TEST(BarrierBudgetAdapter, TinyOvershootStillShrinks)
{
    // A pause barely over target: the 0.9 margin (and the >= guard)
    // must still shrink the bound, or the adapter could plateau while
    // overshooting forever.
    BarrierBudgetAdapter adapter(1e-3, 1 << 20);
    for (int i = 0; i < 60; i++)
        adapter.observe(1e-4);
    const size_t before = adapter.current();
    adapter.observe(1.0001e-3);
    EXPECT_LT(adapter.current(), before);
}

} // namespace
