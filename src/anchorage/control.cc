#include "anchorage/control.h"

#include <algorithm>

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace alaska::anchorage
{

DefragController::DefragController(AnchorageService &service,
                                   const Clock &clock,
                                   ControlParams params)
    : service_(service), clock_(clock), params_(params),
      view_{[this] { return service_.fragmentation(); },
            [this] { return service_.heapExtent(); }},
      policy_(makePolicy(params_, service_)),
      adapter_(params_.targetBarrierPauseSec, params_.batchBytesFloor,
               params_.batchBytes)
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

    TickResult result =
        policy_->runTick(view_, params_, adapter_.current());

    ControlAction action;
    action.fellBack = result.fellBack;
    action.abandoned = result.abandoned;
    action.defragged = !result.reports.empty();
    for (const MechanismReport &report : result.reports) {
        action.stats.accumulate(report.stats);
        action.costSec += report.costSec;
        action.pauseSec += report.pauseSec;
    }
    action.byMechanism = std::move(result.reports);

    totalDefragSec_ += action.costSec;
    totalPauseSec_ += action.pauseSec;
    if (action.defragged)
        passes_++;
    if (action.fellBack)
        fallbacks_++;
    if (action.abandoned)
        abandonments_++;
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
    if (!result.passDone) {
        // Mid-pass: the next tick runs the next barrier; the overhead
        // sleep between barriers is what turns one long pause into
        // many short ones.
        nextWake_ = now + std::max(action.costSec / params_.oUb,
                                   params_.minSleepSec);
    } else if (service_.fragmentation() < params_.fLb ||
               result.noProgress) {
        // Goal reached or out of opportunities (an abandoned
        // remainder lands here by construction — abandonment requires
        // the metric below fLb): observe efficiently.
        state_ = State::Waiting;
        nextWake_ = now + params_.pollInterval;
    } else if (action.costSec > 0) {
        // Overhead control: sleeping T_defrag / O_ub bounds the duty
        // cycle at O_ub (paper: "going to sleep for T = Tdefrag/Oub"),
        // floored so a sub-microsecond measured pass cannot near-spin
        // the controller (sleeping longer only lowers the duty cycle).
        nextWake_ = now + std::max(action.costSec / params_.oUb,
                                   params_.minSleepSec);
    } else {
        // A modeled campaign that moved nothing has zero charge; poll
        // rather than spinning on a zero-length sleep.
        nextWake_ = now + params_.pollInterval;
    }
    return action;
}

} // namespace alaska::anchorage
