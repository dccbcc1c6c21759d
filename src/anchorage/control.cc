#include "anchorage/control.h"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace alaska::anchorage
{

namespace
{

/** The one mode-name table every CLI and report reads. */
constexpr std::pair<DefragMode, const char *> kModeNames[] = {
    {DefragMode::StopTheWorld, "stw"},
    {DefragMode::Concurrent, "concurrent"},
};

/** alpha × whole-heap extent, at least one byte. heapExtent() sweeps
 *  every shard lock, so a tick computes it only when a pass or
 *  campaign begins. */
size_t
passBudget(const AnchorageService &service, const ControlParams &params)
{
    const auto budget = static_cast<size_t>(
        params.alpha * static_cast<double>(service.heapExtent()));
    return budget > 0 ? budget : size_t{1};
}

/** Record the tick's one mechanism invocation, charged in the
 *  configured time base. */
void
record(ControlAction &action, const ControlParams &params,
       const DefragStats &stats)
{
    action.defragged = true;
    action.stats = stats;
    action.costSec =
        params.useModeledTime ? stats.modeledSec : stats.measuredSec;
    // Only barriers stop the world; a campaign's cost is all
    // concurrent work.
    const bool stw = params.mode == DefragMode::StopTheWorld;
    if (stw)
        action.pauseSec = action.costSec;
    if (stats.reclaimedBytes > 0)
        telemetry::count(stw ? telemetry::Counter::StwRecoveredBytes
                             : telemetry::Counter::CampaignRecoveredBytes,
                         stats.reclaimedBytes);
}

} // anonymous namespace

const char *
defragModeName(DefragMode mode)
{
    for (const auto &[value, name] : kModeNames)
        if (value == mode)
            return name;
    return "unknown";
}

std::optional<DefragMode>
parseDefragMode(std::string_view name)
{
    for (const auto &[value, spelling] : kModeNames)
        if (name == spelling)
            return value;
    return std::nullopt;
}

// --- BarrierBudgetAdapter ---------------------------------------------------

BarrierBudgetAdapter::BarrierBudgetAdapter(double targetPauseSec,
                                           size_t capBytes)
    : enabled_(targetPauseSec > 0), target_(targetPauseSec),
      cap_(capBytes > 0 ? capBytes : SIZE_MAX),
      floor_(std::min(kBatchBytesFloor, cap_))
{
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

// --- DefragController -------------------------------------------------------

DefragController::DefragController(AnchorageService &service,
                                   const Clock &clock,
                                   ControlParams params)
    : service_(service), clock_(clock), params_(params),
      adapter_(params_.targetBarrierPauseSec, params_.batchBytes)
{
    nextWake_ = clock_.now();
}

ControlAction
DefragController::tick()
{
    const double now = clock_.now();
    if (now < nextWake_)
        return {};

    if (state_ == State::Waiting) {
        if (service_.fragmentation() > params_.fUb) {
            state_ = State::Defragmenting;
            return runPass();
        }
        nextWake_ = now + params_.pollInterval;
        return {};
    }

    // Defragmenting state.
    return runPass();
}

ControlAction
DefragController::runPass()
{
    telemetry::TraceSpan tick_span("controller_tick");

    ControlAction action;
    const size_t batch = adapter_.current();
    // False while a StopTheWorld pass stays open for the next tick.
    bool pass_done = true;
    // The finished pass (or the tick) moved and reclaimed nothing.
    bool no_progress = false;
    {
        telemetry::TraceSpan span("policy_decision");
        switch (params_.mode) {
        case DefragMode::StopTheWorld:
            if (!pass_) {
                // A fresh pass pays the all-shard extent sweep; a
                // mid-pass tick resumes the open pass's own budget.
                pass_.emplace(service_.beginBatchedDefrag(
                    passBudget(service_, params_)));
            }
            // One barrier per tick: the overhead sleep between ticks
            // is what turns one long pause into many short ones.
            record(action, params_, pass_->step(batch));
            pass_done = pass_->done();
            if (pass_done) {
                no_progress = pass_->totals().movedBytes == 0 &&
                              pass_->totals().reclaimedBytes == 0;
                pass_.reset();
            }
            break;
        case DefragMode::Concurrent:
            record(action, params_,
                   service_.relocateCampaign(
                       passBudget(service_, params_)));
            no_progress = action.stats.movedBytes == 0 &&
                          action.stats.reclaimedBytes == 0;
            break;
        }
    }

    totalDefragSec_ += action.costSec;
    totalPauseSec_ += action.pauseSec;
    passes_++;
    barriers_ += action.stats.barriers;
    if (action.stats.barriers > 0) {
        const double worst = params_.useModeledTime
                                 ? action.stats.maxBarrierModeledSec
                                 : action.stats.maxBarrierSec;
        maxBarrierPauseSec_ = std::max(maxBarrierPauseSec_, worst);
        // Pause-SLO feedback: the adapter steers the next barrier's
        // byte bound from this tick's worst barrier in the charged
        // time base (no-op unless targetBarrierPauseSec is set).
        adapter_.observe(worst);
    }
    telemetry::setGauge(telemetry::Gauge::BatchBytesCurrent,
                        adapter_.current());

    const double now = clock_.now();
    if (!pass_done) {
        // Mid-pass: the next tick runs the next barrier.
        nextWake_ = now + std::max(action.costSec / params_.oUb,
                                   kMinSleepSec);
    } else if (service_.fragmentation() < params_.fLb || no_progress) {
        // Goal reached or out of opportunities: observe efficiently.
        state_ = State::Waiting;
        nextWake_ = now + params_.pollInterval;
    } else if (action.costSec > 0) {
        // Overhead control: sleeping T_defrag / O_ub bounds the duty
        // cycle at O_ub (paper: "going to sleep for T = Tdefrag/Oub"),
        // floored so a sub-microsecond measured pass cannot near-spin
        // the controller (sleeping longer only lowers the duty cycle).
        nextWake_ = now + std::max(action.costSec / params_.oUb,
                                   kMinSleepSec);
    } else {
        // A modeled campaign that moved nothing has zero charge; poll
        // rather than spinning on a zero-length sleep.
        nextWake_ = now + params_.pollInterval;
    }
    return action;
}

} // namespace alaska::anchorage
