/**
 * @file
 * Tests for the decisions inside DefragController::runPass, driven on
 * a real (phantom-space) heap under a virtual clock: an open batched
 * StopTheWorld pass resumes with one barrier even after churn pushed
 * fragmentation below F_lb. The tick-for-tick reference for both modes
 * is controller_reference_test.cc.
 */

#include <gtest/gtest.h>

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
 * a virtual clock, fragmented to ~2x by allocating 4000 blocks of
 * kObjectBytes each and freeing every other one. Frees what it still
 * holds on destruction; only one Runtime may exist at a time.
 */
struct FragmentedHeap
{
    FragmentedHeap()
    {
        runtime.attachService(&service);
        std::vector<void *> handles;
        for (int i = 0; i < 4000; i++)
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

} // namespace
