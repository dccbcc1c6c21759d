/**
 * @file
 * Windowed percentile helper over telemetry::Histogram: record samples
 * continuously, rotate() at window boundaries to get that window's
 * count/percentile summary while the next window keeps recording.
 * Built for tail-latency SLO tracking (src/serve/slo.h): a cumulative
 * histogram answers "what was p999 over the whole run", a windowed one
 * answers "in which 100 ms windows did p999 blow the SLO" — the
 * question that attributes violations to defrag activity.
 */

#ifndef ALASKA_TELEMETRY_WINDOWED_H
#define ALASKA_TELEMETRY_WINDOWED_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/histogram.h"

namespace alaska::telemetry
{

/** One closed window's summary (values in the samples' own unit). */
struct WindowSummary
{
    uint64_t count = 0;
    uint64_t max = 0;
    double mean = 0;
    double p50 = 0;
    double p99 = 0;
    double p999 = 0;
};

/**
 * A histogram that is periodically rotated into per-window summaries.
 *
 * record() is thread-safe and wait-free (it is Histogram::record on
 * the current window). rotate() must be called by a single rotator
 * thread (typically a sampler on the window cadence); it snapshots
 * and clears the current window and appends the summary to a bounded
 * ring of recent windows. record() may race rotate(): a sample landing
 * exactly on the boundary is counted in whichever window the race
 * resolves to — or, rarely, split across the summary fields (the
 * clear() is not atomic with the snapshot). Percentile windows
 * tolerate that by design; never use rotate() output for exact
 * conservation accounting (use a cumulative Histogram for totals).
 */
class WindowedHistogram
{
  public:
    /** @param keep how many recent window summaries recent() retains */
    explicit WindowedHistogram(size_t keep = 256) : keep_(keep) {}

    /** Add one sample to the current window. Any thread. */
    void record(uint64_t v) { current_.record(v); }

    /**
     * Close the current window: snapshot its summary, clear it, and
     * append the summary to the recent ring. Single rotator thread.
     */
    WindowSummary
    rotate()
    {
        const Histogram snap = current_; // relaxed-copy snapshot
        current_.clear();
        WindowSummary s;
        s.count = snap.count();
        s.max = snap.max();
        s.mean = snap.mean();
        s.p50 = snap.percentile(50);
        s.p99 = snap.percentile(99);
        s.p999 = snap.percentile(99.9);
        if (recent_.size() == keep_ && keep_ > 0)
            recent_.erase(recent_.begin());
        if (keep_ > 0)
            recent_.push_back(s);
        windows_++;
        return s;
    }

    /** Windows rotated so far. Rotator thread (or after it quiesces). */
    uint64_t windows() const { return windows_; }

    /** Copy of the retained recent summaries, oldest first. Rotator
     *  thread (or after it quiesces). */
    const std::vector<WindowSummary> &recent() const { return recent_; }

  private:
    Histogram current_;
    size_t keep_;
    uint64_t windows_ = 0;
    std::vector<WindowSummary> recent_;
};

} // namespace alaska::telemetry

#endif // ALASKA_TELEMETRY_WINDOWED_H
