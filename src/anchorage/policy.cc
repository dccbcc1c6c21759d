#include "anchorage/policy.h"

#include <algorithm>

#include "anchorage/control.h"
#include "telemetry/trace.h"

namespace alaska::anchorage
{

namespace
{

/** The tick's alpha budget: alpha × whole-heap extent, min 1 byte.
 *  Computed lazily by callers — heapExtent sweeps every shard lock. */
size_t
passBudget(const PolicyView &view, const ControlParams &params)
{
    const auto budget = static_cast<size_t>(
        params.alpha * static_cast<double>(view.heapExtent()));
    return budget > 0 ? budget : size_t{1};
}

/** Per-shard fairness cap for a stop-the-world budget (SIZE_MAX =
 *  uncapped, the default when shardBudgetFraction >= 1). */
size_t
shardCapFor(size_t total, const ControlParams &params)
{
    if (params.shardBudgetFraction >= 1.0)
        return SIZE_MAX;
    const auto cap = static_cast<size_t>(
        params.shardBudgetFraction * static_cast<double>(total));
    return cap > 0 ? cap : size_t{1};
}

} // anonymous namespace

// --- BarrierBudgetAdapter ---------------------------------------------------

BarrierBudgetAdapter::BarrierBudgetAdapter(double targetPauseSec,
                                           size_t floorBytes,
                                           size_t capBytes)
    : enabled_(targetPauseSec > 0), target_(targetPauseSec),
      floor_(floorBytes > 0 ? floorBytes : 1),
      cap_(capBytes > 0 ? capBytes : SIZE_MAX)
{
    if (floor_ > cap_)
        floor_ = cap_;
    // Enabled: start at the floor and earn headroom (a conservative
    // first barrier can only undershoot the target). Disabled: the
    // static legacy bound (0 = unbatched).
    current_ = enabled_ ? floor_ : cap_;
}

void
BarrierBudgetAdapter::observe(double barrierPauseSec)
{
    if (!enabled_ || barrierPauseSec <= 0)
        return;
    if (barrierPauseSec > target_) {
        // Multiplicative decrease, proportional to the overshoot and
        // with a margin, so one observation lands the next barrier
        // near (under) the target instead of creeping toward it.
        auto next = static_cast<size_t>(
            static_cast<double>(current_) *
            (target_ / barrierPauseSec) * 0.9);
        if (next >= current_ && current_ > floor_)
            next = current_ - 1;
        current_ = std::max(next, floor_);
    } else if (barrierPauseSec < target_ * 0.5 && current_ < cap_) {
        // Slow additive recovery while barriers run well under the
        // target, so a transient bandwidth dip does not pin the batch
        // at the floor forever.
        const size_t step = cap_ == SIZE_MAX ? current_ / 8 + 1
                                             : cap_ / 32 + 1;
        current_ = cap_ - current_ < step ? cap_ : current_ + step;
    }
}

// --- StwPolicy --------------------------------------------------------------

StwPolicy::StwPolicy(std::unique_ptr<DefragMechanism> stw)
    : stw_(std::move(stw))
{
}

bool
StwPolicy::requiresScopedDiscipline() const
{
    return stw_->requiresScopedDiscipline();
}

TickResult
StwPolicy::runTick(const PolicyView &view, const ControlParams &params,
                   size_t batchBytesNow)
{
    telemetry::TraceSpan span("policy_decision");
    TickResult result;

    // Mid-pass abandonment (ROADMAP follow-up): churn between
    // barriers may already have pushed the metric below F_lb — the
    // remainder would pause mutators to chase a goal already met.
    const bool mid = stw_->midPass();
    if (mid && params.midPassAbandonFraction > 0 &&
        view.fragmentation() <
            params.fLb * params.midPassAbandonFraction) {
        stw_->abandon();
        result.abandoned = true;
        return result;
    }

    MechanismRequest request;
    request.batchBytes = batchBytesNow;
    request.useModeledTime = params.useModeledTime;
    if (!mid) {
        // A fresh pass: compute the alpha budget now (a mid-pass tick
        // resumes the in-progress pass's own budget and must not pay
        // the all-shard extent sweep).
        request.budgetBytes = passBudget(view, params);
        request.shardCapBytes =
            shardCapFor(request.budgetBytes, params);
    }
    MechanismReport report = stw_->run(request);
    result.passDone = report.ranToCompletion;
    result.noProgress = report.noProgress;
    result.reports.push_back(std::move(report));
    return result;
}

// --- ComposedPolicy ---------------------------------------------------------

ComposedPolicy::ComposedPolicy(const char *name, std::vector<Stage> stages)
    : name_(name), stages_(std::move(stages))
{
}

bool
ComposedPolicy::requiresScopedDiscipline() const
{
    for (const Stage &stage : stages_)
        if (stage.mechanism->requiresScopedDiscipline())
            return true;
    return false;
}

TickResult
ComposedPolicy::runTick(const PolicyView &view,
                        const ControlParams &params,
                        size_t batchBytesNow)
{
    telemetry::TraceSpan span("policy_decision");
    TickResult result;

    // One alpha budget per composed tick: every stage gets what the
    // earlier stages left (Hybrid's fallback moves only the remainder
    // — the double-spend bug class the old enum branches had). Folded
    // stats exist only to evaluate gates.
    DefragStats so_far;
    const size_t budget = passBudget(view, params);

    for (Stage &stage : stages_) {
        bool runs = false;
        switch (stage.gate) {
        case Gate::Always:
            runs = true;
            break;
        case Gate::AbortFallback:
            runs = so_far.attempts >= params.abortFallbackMinAttempts &&
                   so_far.abortRate() > params.abortFallbackRate;
            break;
        }
        if (!runs)
            continue;

        const size_t moved = so_far.movedBytes;
        const size_t remainder = budget > moved ? budget - moved : 0;
        if (remainder == 0)
            continue; // budget exhausted by earlier stages

        MechanismRequest request;
        request.useModeledTime = params.useModeledTime;
        request.batchBytes = batchBytesNow;
        request.budgetBytes = remainder;
        request.shardCapBytes = shardCapFor(remainder, params);
        request.runToCompletion =
            stage.mechanism->kind() == MechanismKind::Stw;

        MechanismReport report = stage.mechanism->run(request);
        so_far.accumulate(report.stats);
        if (stage.isFallback)
            result.fellBack = true;
        result.reports.push_back(std::move(report));
    }

    result.noProgress =
        so_far.movedBytes == 0 && so_far.reclaimedBytes == 0;
    return result;
}

// --- legacy DefragMode constructors -----------------------------------------

std::unique_ptr<DefragPolicy>
makePolicy(const ControlParams &params, AnchorageService &service)
{
    using Gate = ComposedPolicy::Gate;
    auto stage = [](std::unique_ptr<DefragMechanism> mech, Gate gate,
                    bool fallback = false) {
        ComposedPolicy::Stage s;
        s.mechanism = std::move(mech);
        s.gate = gate;
        s.isFallback = fallback;
        return s;
    };

    switch (params.mode) {
    case DefragMode::StopTheWorld:
        return std::make_unique<StwPolicy>(makeStwMechanism(service));
    case DefragMode::Concurrent: {
        std::vector<ComposedPolicy::Stage> stages;
        stages.push_back(
            stage(makeCampaignMechanism(service), Gate::Always));
        return std::make_unique<ComposedPolicy>("concurrent",
                                                std::move(stages));
    }
    case DefragMode::Hybrid: {
        std::vector<ComposedPolicy::Stage> stages;
        stages.push_back(
            stage(makeCampaignMechanism(service), Gate::Always));
        stages.push_back(stage(makeStwMechanism(service),
                               Gate::AbortFallback,
                               /*fallback=*/true));
        return std::make_unique<ComposedPolicy>("hybrid",
                                                std::move(stages));
    }
    }
    return std::make_unique<StwPolicy>(makeStwMechanism(service));
}

} // namespace alaska::anchorage
