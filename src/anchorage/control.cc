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

// --- DefragController -------------------------------------------------------

DefragController::DefragController(AnchorageService &service,
                                   const Clock &clock,
                                   ControlParams params)
    : service_(service), clock_(clock), params_(params)
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
            record(action, params_, pass_->step(params_.batchBytes));
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

    ledger_.totals.accumulate(action.stats);
    ledger_.passes++;

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
