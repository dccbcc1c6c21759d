/**
 * @file
 * Tests for the defragmentation control state machine (§4.3): hysteresis
 * bounds, overhead duty-cycling, and the 500 ms observation cadence.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "anchorage/control.h"
#include "core/runtime.h"
#include "sim/address_space.h"
#include "sim/clock.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

class ControlTest : public ::testing::Test
{
  protected:
    ControlTest()
        : service_(space_, AnchorageConfig{.subHeapBytes = 1 << 20}),
          runtime_(RuntimeConfig{.tableCapacity = 1u << 18})
    {
        runtime_.attachService(&service_);
    }

    /** Allocate then free every other object: fragmentation ~2x. */
    std::vector<void *>
    fragmentHeap(int objects = 4000, size_t size = 256)
    {
        std::vector<void *> handles;
        for (int i = 0; i < objects; i++)
            handles.push_back(runtime_.halloc(size));
        std::vector<void *> survivors;
        for (size_t i = 0; i < handles.size(); i++) {
            if (i % 2 != 0) {
                runtime_.hfree(handles[i]);
            } else {
                survivors.push_back(handles[i]);
            }
        }
        return survivors;
    }

    // Declaration order matters: the service must outlive the runtime.
    PhantomAddressSpace space_;
    AnchorageService service_;
    Runtime runtime_;
    VirtualClock clock_;
};

TEST_F(ControlTest, StartsWaitingAndPollsEveryHalfSecond)
{
    DefragController controller(service_, clock_,
                                ControlParams{.useModeledTime = true});
    EXPECT_EQ(controller.state(), DefragController::State::Waiting);
    controller.tick();
    // Heap is empty, fragmentation is 1.0: keep waiting.
    EXPECT_EQ(controller.state(), DefragController::State::Waiting);
    EXPECT_DOUBLE_EQ(controller.nextWake(), clock_.now() + 0.5);
}

TEST_F(ControlTest, TicksBeforeWakeDoNothing)
{
    DefragController controller(service_, clock_,
                                ControlParams{.useModeledTime = true});
    controller.tick();
    clock_.advance(0.1);
    const ControlAction action = controller.tick();
    EXPECT_FALSE(action.defragged);
}

TEST_F(ControlTest, HighFragmentationTriggersDefragmenting)
{
    auto survivors = fragmentHeap();
    DefragController controller(service_, clock_,
                                ControlParams{.useModeledTime = true});
    ASSERT_GT(service_.fragmentation(), 1.4);
    const ControlAction action = controller.tick();
    EXPECT_TRUE(action.defragged);
    EXPECT_GT(action.stats.movedBytes, 0u);
    for (void *h : survivors)
        runtime_.hfree(h);
}

TEST_F(ControlTest, ReturnsToWaitingBelowLowerBound)
{
    auto survivors = fragmentHeap();
    ControlParams params{.useModeledTime = true};
    params.alpha = 1.0; // allow full defrag in one pass
    DefragController controller(service_, clock_, params);
    // Run the machine until it settles.
    for (int i = 0; i < 100; i++) {
        controller.tick();
        clock_.advance(0.5);
        if (controller.state() == DefragController::State::Waiting &&
            service_.fragmentation() < params.fLb) {
            break;
        }
    }
    EXPECT_EQ(controller.state(), DefragController::State::Waiting);
    EXPECT_LT(service_.fragmentation(), params.fLb);
    for (void *h : survivors)
        runtime_.hfree(h);
}

TEST_F(ControlTest, SleepAfterPassIsTdefragOverOub)
{
    auto survivors = fragmentHeap(20000);
    ControlParams params{.useModeledTime = true};
    params.alpha = 0.05; // force many partial passes
    params.oUb = 0.05;
    DefragController controller(service_, clock_, params);
    const ControlAction action = controller.tick();
    ASSERT_TRUE(action.defragged);
    if (controller.state() == DefragController::State::Defragmenting) {
        // T = T_defrag / O_ub (paper §4.3).
        EXPECT_NEAR(controller.nextWake() - clock_.now(),
                    action.pauseSec / params.oUb, 1e-9);
    }
    for (void *h : survivors)
        runtime_.hfree(h);
}

TEST_F(ControlTest, OverheadStaysWithinOubOverTime)
{
    auto survivors = fragmentHeap(20000);
    ControlParams params{.useModeledTime = true};
    params.alpha = 0.05;
    params.oUb = 0.05;
    DefragController controller(service_, clock_, params);

    double busy = 0;
    const double horizon = 120.0; // simulated seconds
    while (clock_.now() < horizon) {
        const ControlAction action = controller.tick();
        if (action.defragged) {
            busy += action.pauseSec;
            clock_.advance(action.pauseSec);
        } else {
            // Sleep to the next wake-up.
            clock_.set(controller.nextWake());
        }
    }
    // Duty cycle bounded by O_ub (with slack for the poll quantum).
    EXPECT_LE(busy / horizon, params.oUb * 1.1);
    for (void *h : survivors)
        runtime_.hfree(h);
}

TEST_F(ControlTest, AlphaBoundsPerPassWork)
{
    auto survivors = fragmentHeap(20000);
    ControlParams params{.useModeledTime = true};
    params.alpha = 0.10;
    DefragController controller(service_, clock_, params);
    const size_t extent_before = service_.heapExtent();
    const ControlAction action = controller.tick();
    ASSERT_TRUE(action.defragged);
    EXPECT_LE(action.stats.movedBytes,
              static_cast<size_t>(0.10 * extent_before) + 4096);
    for (void *h : survivors)
        runtime_.hfree(h);
}

TEST_F(ControlTest, OverheadSleepClampedToFloor)
{
    // A tiny heap measured under the real stopwatch: the pass costs
    // microseconds, so T_defrag / O_ub would wake the controller again
    // almost immediately — the near-spin the sleep floor prevents.
    std::vector<void *> handles;
    for (int i = 0; i < 64; i++)
        handles.push_back(runtime_.halloc(256));
    for (size_t i = 0; i < handles.size(); i += 2)
        runtime_.hfree(handles[i]);
    ControlParams params; // measured time: useModeledTime = false
    // Below any reachable fragmentation (the pass compacts this heap
    // to 1.0), so the controller stays Defragmenting and schedules its
    // wake from the pass's cost rather than the poll interval.
    params.fLb = 0.5;
    params.oUb = 1.0;
    DefragController controller(service_, clock_, params);
    const ControlAction action = controller.tick();
    ASSERT_TRUE(action.defragged);
    ASSERT_EQ(controller.state(), DefragController::State::Defragmenting);
    // The wake-up must respect the 100 us floor.
    EXPECT_GE(controller.nextWake() - clock_.now(), kMinSleepSec);
    for (size_t i = 1; i < handles.size(); i += 2)
        runtime_.hfree(handles[i]);
}

TEST_F(ControlTest, BatchedPassBoundsEveryBarrier)
{
    auto survivors = fragmentHeap(20000);
    ControlParams params{.useModeledTime = true};
    params.alpha = 1.0;
    params.batchBytes = 64 << 10;
    DefragController controller(service_, clock_, params);

    size_t work_ticks = 0;
    for (int i = 0; i < 2000; i++) {
        const ControlAction action = controller.tick();
        if (action.defragged) {
            work_ticks++;
            // One barrier per tick, each bounded by the batch budget
            // (plus at most one object's overshoot).
            EXPECT_EQ(action.stats.barriers, 1u);
            EXPECT_LE(action.stats.maxBarrierBytes,
                      params.batchBytes + 512);
        }
        clock_.set(controller.nextWake());
        if (controller.state() == DefragController::State::Waiting &&
            service_.fragmentation() < params.fLb) {
            break;
        }
    }
    // The whole-heap pass really was spread over many short barriers
    // and still reached the hysteresis target.
    EXPECT_GT(work_ticks, 1u);
    EXPECT_GT(controller.barriers(), 1u);
    EXPECT_LT(service_.fragmentation(), params.fLb);
    // The modeled per-barrier pause never exceeded the batch-derived
    // bound: floor + batch / bandwidth.
    EXPECT_LE(controller.maxBarrierPauseSec(),
              kModelPauseFloor +
                  static_cast<double>(params.batchBytes + 512) /
                      kModelBandwidth +
                  1e-12);
    for (void *h : survivors)
        runtime_.hfree(h);
}

TEST_F(ControlTest, ZeroBatchBytesRunsTheWholePassInOneBarrier)
{
    // batchBytes = 0 turns batching off: the first Defragmenting tick
    // runs the whole alpha = 1 pass inside one barrier, which compacts
    // the heap below F_lb, so the controller is back in Waiting.
    auto survivors = fragmentHeap();
    ControlParams params{.useModeledTime = true};
    params.alpha = 1.0;
    params.batchBytes = 0;
    DefragController controller(service_, clock_, params);
    ASSERT_GT(service_.fragmentation(), params.fUb);

    const ControlAction action = controller.tick();
    ASSERT_TRUE(action.defragged);
    EXPECT_EQ(action.stats.barriers, 1u);
    EXPECT_GT(action.stats.movedBytes, 0u);
    EXPECT_EQ(action.stats.maxBarrierBytes, action.stats.movedBytes);
    EXPECT_LT(service_.fragmentation(), params.fLb);
    EXPECT_EQ(controller.state(), DefragController::State::Waiting);

    // The pause reads are the folded stats in the modeled time base.
    const DefragStats &totals = controller.totals();
    EXPECT_EQ(controller.barriers(), totals.barriers);
    EXPECT_EQ(controller.totalPauseSec(), totals.modeledSec);
    EXPECT_EQ(controller.maxBarrierPauseSec(),
              totals.maxBarrierModeledSec);
    EXPECT_EQ(controller.passes(), 1u);
    for (void *h : survivors)
        runtime_.hfree(h);
}

TEST(DefragModeName, ParsesEveryModesNameAndNothingElse)
{
    for (const DefragMode mode :
         {DefragMode::StopTheWorld, DefragMode::Concurrent}) {
        SCOPED_TRACE(defragModeName(mode));
        EXPECT_EQ(parseDefragMode(defragModeName(mode)), mode);
    }
    EXPECT_EQ(parseDefragMode("hybrid"), std::nullopt);
    EXPECT_EQ(parseDefragMode(""), std::nullopt);
    EXPECT_EQ(parseDefragMode("STW"), std::nullopt);
}

TEST_F(ControlTest, NoOpportunitiesReturnsToWaiting)
{
    // Dense heap just above F_ub: nothing can move, the controller must
    // not spin (the paper's "runs out of opportunities" case).
    std::vector<void *> handles;
    for (int i = 0; i < 100; i++)
        handles.push_back(runtime_.halloc(256));
    DefragController controller(service_, clock_,
                                ControlParams{.fLb = 0.5,
                                              .fUb = 0.9,
                                              .useModeledTime = true});
    controller.tick(); // frag 1.0 > fUb=0.9 but nothing to move
    EXPECT_EQ(controller.state(), DefragController::State::Waiting);
    for (void *h : handles)
        runtime_.hfree(h);
}

} // namespace
