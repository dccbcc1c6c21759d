/**
 * @file
 * The reference DefragController is checked against. An inline oracle
 * controller switches on DefragMode and calls the public
 * AnchorageService API directly: the lazy alpha budget, the resumable
 * batched StopTheWorld pass, the Concurrent campaign, and the paper's
 * overhead-sleep scheduling. Both controllers replay the same seeded
 * alloc/free/mutate trace on identical heaps under a virtual clock
 * with modeled time. At every quiesce tick the deterministic outcome
 * must match exactly: modeled charges, pause split, per-barrier
 * maxima, move/campaign counters, hysteresis state, and the next wake
 * time. (Measured wall seconds are excluded — they are real time and
 * legitimately differ run to run; every scheduling decision under
 * useModeledTime flows from the modeled fields compared here.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "anchorage/control.h"
#include "base/rng.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "sim/address_space.h"
#include "sim/clock.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

constexpr uint64_t kTraceSeed = 0x1e9ac001;
constexpr int kSlots = 800;
constexpr int kOps = 10000;
constexpr int kQuiesceEvery = 400;

/**
 * The oracle: one mode switch with the lazy alpha budget, the
 * resumable batched StopTheWorld pass, the Concurrent campaign, and
 * the paper's overhead-sleep scheduling. DefragController must match
 * it tick for tick.
 */
class ReferenceController
{
  public:
    ReferenceController(AnchorageService &service, const Clock &clock,
                        ControlParams params)
        : service_(service), clock_(clock), params_(params)
    {
        nextWake_ = clock_.now();
    }

    ControlAction
    tick()
    {
        const double now = clock_.now();
        if (now < nextWake_)
            return {};
        if (state_ == DefragController::State::Waiting) {
            if (service_.fragmentation() > params_.fUb) {
                state_ = DefragController::State::Defragmenting;
                return runPass();
            }
            nextWake_ = now + params_.pollInterval;
            return {};
        }
        return runPass();
    }

    double nextWake() const { return nextWake_; }
    DefragController::State state() const { return state_; }
    size_t passes() const { return passes_; }
    size_t barriers() const { return barriers_; }
    double totalPauseSec() const { return totalPauseSec_; }
    double maxBarrierPauseSec() const { return maxBarrierPauseSec_; }
    /** True while a batched StopTheWorld pass is open across ticks. */
    bool midPass() const { return stwPass_.has_value(); }

  private:
    ControlAction
    runPass()
    {
        ControlAction action;
        action.defragged = true;

        auto passBudgetNow = [&] {
            const auto budget = static_cast<size_t>(
                params_.alpha *
                static_cast<double>(service_.heapExtent()));
            return budget > 0 ? budget : size_t{1};
        };
        const size_t batch =
            params_.batchBytes > 0 ? params_.batchBytes : SIZE_MAX;
        auto chargeOf = [&](const DefragStats &s) {
            return params_.useModeledTime ? s.modeledSec
                                          : s.measuredSec;
        };
        auto barrierChargeOf = [&](const DefragStats &s) {
            return params_.useModeledTime ? s.maxBarrierModeledSec
                                          : s.maxBarrierSec;
        };

        bool pass_done = true;
        bool no_progress = false;

        if (params_.mode == DefragMode::StopTheWorld) {
            if (!stwPass_ || stwPass_->done())
                stwPass_.emplace(
                    service_.beginBatchedDefrag(passBudgetNow()));
            action.stats = stwPass_->step(batch);
            action.pauseSec = chargeOf(action.stats);
            action.costSec = action.pauseSec;
            pass_done = stwPass_->done();
            if (pass_done) {
                no_progress = stwPass_->totals().movedBytes == 0 &&
                              stwPass_->totals().reclaimedBytes == 0;
                stwPass_.reset();
            }
        } else {
            action.stats = service_.relocateCampaign(passBudgetNow());
            action.costSec = chargeOf(action.stats);
            no_progress = action.stats.movedBytes == 0 &&
                          action.stats.reclaimedBytes == 0;
        }

        totalPauseSec_ += action.pauseSec;
        passes_++;
        barriers_ += action.stats.barriers;
        if (action.stats.barriers > 0)
            maxBarrierPauseSec_ = std::max(
                maxBarrierPauseSec_, barrierChargeOf(action.stats));

        const double now = clock_.now();
        if (!pass_done) {
            nextWake_ = now + std::max(action.costSec / params_.oUb,
                                       kMinSleepSec);
        } else if (service_.fragmentation() < params_.fLb ||
                   no_progress) {
            state_ = DefragController::State::Waiting;
            nextWake_ = now + params_.pollInterval;
        } else if (action.costSec > 0) {
            nextWake_ = now + std::max(action.costSec / params_.oUb,
                                       kMinSleepSec);
        } else {
            nextWake_ = now + params_.pollInterval;
        }
        return action;
    }

    AnchorageService &service_;
    const Clock &clock_;
    ControlParams params_;
    DefragController::State state_ =
        DefragController::State::Waiting;
    double nextWake_ = 0;
    size_t passes_ = 0;
    size_t barriers_ = 0;
    double totalPauseSec_ = 0;
    double maxBarrierPauseSec_ = 0;
    std::optional<AnchorageService::BatchedPass> stwPass_;
};

/** The deterministic outcome of one quiesce tick. */
struct TickRecord
{
    bool defragged = false;
    size_t movedObjects = 0;
    size_t movedBytes = 0;
    size_t reclaimedBytes = 0;
    uint64_t attempts = 0;
    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t barriers = 0;
    uint64_t maxBarrierBytes = 0;
    double modeledSec = 0;
    double maxBarrierModeledSec = 0;
    double pauseSec = 0;
    double costSec = 0;
    double nextWake = 0;
    int state = 0;
};

struct RunResult
{
    std::vector<TickRecord> ticks;
    size_t passes = 0;
    size_t barriers = 0;
    double totalPauseSec = 0;
    double maxBarrierPauseSec = 0;
    /** Defrag ticks that resumed an open batched pass (counted only
     *  for the oracle, which exposes midPass()). */
    size_t resumedTicks = 0;
};

ControlParams
paramsFor(DefragMode mode)
{
    ControlParams params;
    params.mode = mode;
    params.useModeledTime = true;
    // 4 KiB batches keep StopTheWorld passes mid-flight across ticks
    // (the resumable-pass path). The test asserts that path ran.
    params.batchBytes = 4 << 10;
    params.pollInterval = 0.05;
    return params;
}

template <class Controller>
RunResult
runTrace(DefragMode mode)
{
    RealAddressSpace space;
    AnchorageService service(
        space, AnchorageConfig{.subHeapBytes = 1 << 20});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);
    VirtualClock clock;
    Controller controller(service, clock, paramsFor(mode));

    struct Slot
    {
        void *h = nullptr;
        size_t size = 0;
    };
    std::vector<Slot> slots(kSlots);
    Rng rng(kTraceSeed);
    RunResult result;

    for (int op = 1; op <= kOps; op++) {
        const int idx = static_cast<int>(rng.below(kSlots));
        Slot &slot = slots[idx];
        const uint64_t action = rng.below(10);
        if (slot.h == nullptr) {
            slot.size = 16 + rng.below(497);
            slot.h = runtime.halloc(slot.size);
            auto *p = static_cast<unsigned char *>(translate(slot.h));
            for (size_t j = 0; j < slot.size; j++)
                p[j] = static_cast<unsigned char>(idx + j);
        } else if (action < 4) {
            runtime.hfree(slot.h);
            slot.h = nullptr;
        }

        if (op % kQuiesceEvery != 0)
            continue;

        // Jump the virtual clock to the controller's own schedule so
        // every quiesce point runs a real tick — including the
        // mid-pass resume ticks whose wake time the controller chose.
        clock.set(controller.nextWake());
        bool mid_pass = false;
        if constexpr (requires { controller.midPass(); })
            mid_pass = controller.midPass();
        const ControlAction act = controller.tick();
        if (mid_pass && act.defragged)
            result.resumedTicks++;

        TickRecord record;
        record.defragged = act.defragged;
        record.movedObjects = act.stats.movedObjects;
        record.movedBytes = act.stats.movedBytes;
        record.reclaimedBytes = act.stats.reclaimedBytes;
        record.attempts = act.stats.attempts;
        record.committed = act.stats.committed;
        record.aborted = act.stats.aborted;
        record.barriers = act.stats.barriers;
        record.maxBarrierBytes = act.stats.maxBarrierBytes;
        record.modeledSec = act.stats.modeledSec;
        record.maxBarrierModeledSec = act.stats.maxBarrierModeledSec;
        record.pauseSec = act.pauseSec;
        record.costSec = act.costSec;
        record.nextWake = controller.nextWake();
        record.state = static_cast<int>(controller.state());
        result.ticks.push_back(record);
    }

    for (auto &slot : slots) {
        if (slot.h != nullptr)
            runtime.hfree(slot.h);
    }
    result.passes = controller.passes();
    result.barriers = controller.barriers();
    result.totalPauseSec = controller.totalPauseSec();
    result.maxBarrierPauseSec = controller.maxBarrierPauseSec();
    return result;
}

void
expectSameRun(const RunResult &reference, const RunResult &controller,
              const char *mode)
{
    ASSERT_EQ(reference.ticks.size(), controller.ticks.size()) << mode;
    for (size_t i = 0; i < reference.ticks.size(); i++) {
        const TickRecord &a = reference.ticks[i];
        const TickRecord &b = controller.ticks[i];
        SCOPED_TRACE(std::string(mode) + " tick " +
                     std::to_string(i));
        EXPECT_EQ(a.defragged, b.defragged);
        EXPECT_EQ(a.movedObjects, b.movedObjects);
        EXPECT_EQ(a.movedBytes, b.movedBytes);
        EXPECT_EQ(a.reclaimedBytes, b.reclaimedBytes);
        EXPECT_EQ(a.attempts, b.attempts);
        EXPECT_EQ(a.committed, b.committed);
        EXPECT_EQ(a.aborted, b.aborted);
        EXPECT_EQ(a.barriers, b.barriers);
        EXPECT_EQ(a.maxBarrierBytes, b.maxBarrierBytes);
        EXPECT_DOUBLE_EQ(a.modeledSec, b.modeledSec);
        EXPECT_DOUBLE_EQ(a.maxBarrierModeledSec,
                         b.maxBarrierModeledSec);
        EXPECT_DOUBLE_EQ(a.pauseSec, b.pauseSec);
        EXPECT_DOUBLE_EQ(a.costSec, b.costSec);
        EXPECT_DOUBLE_EQ(a.nextWake, b.nextWake);
        EXPECT_EQ(a.state, b.state);
    }
    EXPECT_EQ(reference.passes, controller.passes) << mode;
    EXPECT_EQ(reference.barriers, controller.barriers) << mode;
    EXPECT_DOUBLE_EQ(reference.totalPauseSec, controller.totalPauseSec)
        << mode;
    EXPECT_DOUBLE_EQ(reference.maxBarrierPauseSec,
                     controller.maxBarrierPauseSec)
        << mode;
}

class ControllerReference
    : public ::testing::TestWithParam<DefragMode>
{
};

TEST_P(ControllerReference, ControllerMatchesTheReferenceTickForTick)
{
    const DefragMode mode = GetParam();
    const RunResult reference = runTrace<ReferenceController>(mode);
    const RunResult controller = runTrace<DefragController>(mode);
    const char *name = defragModeName(mode);
    expectSameRun(reference, controller, name);

    // The trace is not vacuous: at least one tick defragged, and each
    // mode's distinctive path ran.
    size_t defrag_ticks = 0;
    for (const TickRecord &t : controller.ticks)
        defrag_ticks += t.defragged ? 1 : 0;
    EXPECT_GT(defrag_ticks, 0u) << name;
    if (mode == DefragMode::StopTheWorld) {
        EXPECT_GT(reference.resumedTicks, 0u) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ControllerReference,
    ::testing::Values(DefragMode::StopTheWorld,
                      DefragMode::Concurrent));

} // namespace
