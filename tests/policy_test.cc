/**
 * @file
 * Unit tests for the defrag policy layer (src/anchorage/policy.h)
 * against stub mechanisms — no heap, no service: the policies see the
 * world only through PolicyView callbacks and their injected
 * DefragMechanisms, so every decision-table row is testable in
 * isolation. Covered: the abort-rate fallback gate, single
 * alpha-budget deduction across a composed tick, BarrierBudgetAdapter
 * convergence/floor/cap, and mid-pass abandonment below F_lb. The
 * end-to-end equivalence of the legacy DefragMode values is
 * legacy_mode_equivalence_test.cc.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "anchorage/control.h"
#include "anchorage/mechanism.h"
#include "anchorage/policy.h"

namespace
{

using namespace alaska::anchorage;

/**
 * A scriptable mechanism: records every request it receives and
 * returns whatever the script says. State shared through a handle the
 * test keeps after the policy takes ownership of the mechanism.
 */
struct StubState
{
    std::vector<MechanismRequest> requests;
    std::function<MechanismReport(const MechanismRequest &)> onRun;
    bool midPass = false;
    int abandons = 0;
};

class StubMechanism final : public DefragMechanism
{
  public:
    StubMechanism(MechanismKind kind, bool scoped,
                  std::shared_ptr<StubState> state)
        : kind_(kind), scoped_(scoped), state_(std::move(state))
    {
    }

    MechanismKind kind() const override { return kind_; }

    MechanismReport
    run(const MechanismRequest &request) override
    {
        state_->requests.push_back(request);
        if (state_->onRun)
            return state_->onRun(request);
        MechanismReport report;
        report.kind = kind_;
        return report;
    }

    bool midPass() const override { return state_->midPass; }
    void abandon() override { state_->abandons++; }
    bool requiresScopedDiscipline() const override { return scoped_; }

  private:
    MechanismKind kind_;
    bool scoped_;
    std::shared_ptr<StubState> state_;
};

/** A view over scripted metrics. */
PolicyView
viewOf(double frag, size_t extent)
{
    PolicyView view;
    view.fragmentation = [frag] { return frag; };
    view.heapExtent = [extent] { return extent; };
    return view;
}

/** A campaign report moving `moved` bytes with a scripted abort rate. */
MechanismReport
campaignReport(size_t moved, uint64_t attempts, uint64_t aborted)
{
    MechanismReport report;
    report.kind = MechanismKind::Campaign;
    report.stats.movedBytes = moved;
    report.stats.movedObjects = moved > 0 ? 1 : 0;
    report.stats.attempts = attempts;
    report.stats.aborted = aborted;
    report.noProgress = moved == 0;
    return report;
}

/** Hybrid-shaped composition over stubs; returns the two states. */
std::unique_ptr<ComposedPolicy>
hybridOf(std::shared_ptr<StubState> campaign,
         std::shared_ptr<StubState> stw)
{
    std::vector<ComposedPolicy::Stage> stages(2);
    stages[0].mechanism = std::make_unique<StubMechanism>(
        MechanismKind::Campaign, true, std::move(campaign));
    stages[1].mechanism = std::make_unique<StubMechanism>(
        MechanismKind::Stw, false, std::move(stw));
    stages[1].gate = ComposedPolicy::Gate::AbortFallback;
    stages[1].isFallback = true;
    return std::make_unique<ComposedPolicy>("hybrid", std::move(stages));
}

// --- abort-rate fallback ----------------------------------------------------

TEST(AbortFallback, TripsOnHighAbortRateWithRemainderBudget)
{
    auto campaign = std::make_shared<StubState>();
    auto stw = std::make_shared<StubState>();
    campaign->onRun = [](const MechanismRequest &) {
        return campaignReport(/*moved=*/1000, /*attempts=*/100,
                              /*aborted=*/80);
    };
    auto policy = hybridOf(campaign, stw);

    ControlParams params; // abortFallbackRate 0.5, min 32 attempts
    params.alpha = 0.25;
    const PolicyView view = viewOf(1.5, /*extent=*/40000);
    const TickResult result = policy->runTick(view, params, SIZE_MAX);

    // Budget = alpha * extent = 10000; the fallback spends only what
    // the campaign left, so one composed tick can never move more
    // than the alpha fraction in total.
    ASSERT_EQ(stw->requests.size(), 1u);
    EXPECT_EQ(stw->requests[0].budgetBytes, 10000u - 1000u);
    EXPECT_TRUE(stw->requests[0].runToCompletion);
    EXPECT_TRUE(result.fellBack);
    ASSERT_EQ(result.reports.size(), 2u);
    EXPECT_EQ(result.reports[0].kind, MechanismKind::Campaign);
    EXPECT_EQ(result.reports[1].kind, MechanismKind::Stw);
}

TEST(AbortFallback, QuietCampaignNeverFallsBack)
{
    auto campaign = std::make_shared<StubState>();
    auto stw = std::make_shared<StubState>();
    campaign->onRun = [](const MechanismRequest &) {
        // High abort count but below the min-attempts floor, then a
        // separate tick above the floor with a low rate: neither trips.
        return campaignReport(1000, /*attempts=*/10, /*aborted=*/9);
    };
    auto policy = hybridOf(campaign, stw);
    ControlParams params;
    const PolicyView view = viewOf(1.5, 40000);

    TickResult result = policy->runTick(view, params, SIZE_MAX);
    EXPECT_TRUE(stw->requests.empty());
    EXPECT_FALSE(result.fellBack);

    campaign->onRun = [](const MechanismRequest &) {
        return campaignReport(1000, /*attempts=*/100, /*aborted=*/10);
    };
    result = policy->runTick(view, params, SIZE_MAX);
    EXPECT_TRUE(stw->requests.empty());
    EXPECT_FALSE(result.fellBack);
}

// --- single budget across a composed tick -----------------------------------

TEST(ComposedBudget, ExhaustedBudgetSkipsTheFallbackStage)
{
    auto campaign = std::make_shared<StubState>();
    auto stw = std::make_shared<StubState>();
    campaign->onRun = [](const MechanismRequest &request) {
        // The campaign spends the whole alpha budget; even a tripped
        // abort gate then has nothing left to spend.
        return campaignReport(request.budgetBytes, 100, 90);
    };
    auto policy = hybridOf(campaign, stw);
    ControlParams params;
    const PolicyView view = viewOf(1.5, 40000);

    const TickResult result = policy->runTick(view, params, SIZE_MAX);
    ASSERT_EQ(campaign->requests.size(), 1u);
    EXPECT_EQ(campaign->requests[0].budgetBytes, 10000u);
    EXPECT_TRUE(stw->requests.empty());
    EXPECT_FALSE(result.fellBack); // a skipped fallback is no fallback
    EXPECT_EQ(result.reports.size(), 1u);
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

// --- mid-pass abandonment ---------------------------------------------------

TEST(MidPassAbandon, DropsTheRemainderOnceChurnMetTheGoal)
{
    auto stw = std::make_shared<StubState>();
    stw->midPass = true;
    StwPolicy policy(std::make_unique<StubMechanism>(
        MechanismKind::Stw, false, stw));
    ControlParams params; // fLb = 1.15
    params.midPassAbandonFraction = 1.0;

    // Churn already pushed the metric below fLb: abandon, run nothing.
    const TickResult result =
        policy.runTick(viewOf(1.05, 40000), params, SIZE_MAX);
    EXPECT_TRUE(result.abandoned);
    EXPECT_TRUE(result.passDone);
    EXPECT_TRUE(result.reports.empty());
    EXPECT_EQ(stw->abandons, 1);
    EXPECT_TRUE(stw->requests.empty());

    // Metric still above the threshold: the pass resumes (mid-pass,
    // so no fresh alpha budget is computed).
    const TickResult resumed =
        policy.runTick(viewOf(1.3, 40000), params, SIZE_MAX);
    EXPECT_FALSE(resumed.abandoned);
    ASSERT_EQ(stw->requests.size(), 1u);
    EXPECT_EQ(stw->requests[0].budgetBytes, 0u);

    // Fraction 0 (the legacy default) never abandons.
    params.midPassAbandonFraction = 0;
    policy.runTick(viewOf(1.0, 40000), params, SIZE_MAX);
    EXPECT_EQ(stw->abandons, 1);
    EXPECT_EQ(stw->requests.size(), 2u);
}

TEST(StwPolicy, FreshPassGetsTheAlphaBudgetAndShardCap)
{
    auto stw = std::make_shared<StubState>();
    StwPolicy policy(std::make_unique<StubMechanism>(
        MechanismKind::Stw, false, stw));
    ControlParams params;
    params.alpha = 0.5;
    params.shardBudgetFraction = 0.25;

    policy.runTick(viewOf(1.5, 40000), params, /*batch=*/123);
    ASSERT_EQ(stw->requests.size(), 1u);
    EXPECT_EQ(stw->requests[0].budgetBytes, 20000u);
    EXPECT_EQ(stw->requests[0].shardCapBytes, 5000u);
    EXPECT_EQ(stw->requests[0].batchBytes, 123u);
    EXPECT_FALSE(stw->requests[0].runToCompletion);
}

// --- discipline / legacy mapping --------------------------------------------

TEST(Policies, ScopedDisciplineFollowsTheMechanisms)
{
    auto stw = std::make_shared<StubState>();
    StwPolicy stw_policy(std::make_unique<StubMechanism>(
        MechanismKind::Stw, false, stw));
    EXPECT_FALSE(stw_policy.requiresScopedDiscipline());

    auto campaign = std::make_shared<StubState>();
    auto fallback = std::make_shared<StubState>();
    auto hybrid = hybridOf(campaign, fallback);
    EXPECT_TRUE(hybrid->requiresScopedDiscipline());
}

} // namespace
