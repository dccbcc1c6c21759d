#include "serve/slo.h"

namespace alaska::serve
{

void
SloTracker::record(const Response &response)
{
    perOpNs_[static_cast<size_t>(response.op)].record(
        response.latencyNs);
    windowNs_.record(response.latencyNs);
}

void
SloTracker::closeWindow(bool defragWorked)
{
    const telemetry::Histogram window = windowNs_;
    windowNs_.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    totals_.windows++;
    if (window.count() == 0)
        return; // an empty window cannot violate anything
    const double p999Us = window.percentile(99.9) / 1000.0;
    if (p999Us > totals_.worstWindowP999Us)
        totals_.worstWindowP999Us = p999Us;
    if (p999Us <= config_.sloUs)
        return;
    totals_.violated++;
    if (!defragWorked)
        totals_.violatedIdle++;
}

SloTracker::Totals
SloTracker::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totals_;
}

const telemetry::Histogram &
SloTracker::opHistogram(OpKind op) const
{
    return perOpNs_[static_cast<size_t>(op)];
}

double
SloTracker::opPercentileUs(OpKind op, double p) const
{
    return opHistogram(op).percentile(p) / 1000.0;
}

} // namespace alaska::serve
