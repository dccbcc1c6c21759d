/**
 * @file
 * Tail-latency SLO tracking for the serving front end.
 *
 * Two views of the same completion stream: cumulative per-op-type
 * histograms (whole-run p50/p99/p999 per get/set/rmw) and a windowed
 * combined histogram whose per-window p999 is compared against the SLO
 * each time the sampler closes a window. A violated window is
 * attributed to whichever defrag mechanisms did work during it — the
 * sampler passes per-mechanism work deltas (from
 * ConcurrentRelocDaemon::totalsFor) into closeWindow() — so a run's
 * report can say "7 of 9 violated windows coincided with
 * stop-the-world work" instead of just "p999 was bad". Windows
 * violated with no defrag work at all are counted separately
 * (violatedIdle): those are the server's own fault (overload,
 * scheduling), not the defrag pipeline's.
 */

#ifndef ALASKA_SERVE_SLO_H
#define ALASKA_SERVE_SLO_H

#include <cstdint>
#include <mutex>

#include "anchorage/mechanism.h"
#include "serve/server.h"
#include "telemetry/histogram.h"
#include "telemetry/windowed.h"

namespace alaska::serve
{

/** SLO-tracker tuning. */
struct SloConfig
{
    /** The p999 latency objective, microseconds. */
    double sloUs = 1000;
};

/**
 * Aggregates Response latencies and judges SLO windows.
 *
 * record() is called from the server's completion handler (worker
 * threads, concurrently). closeWindow() must be called by a single
 * sampler thread on its window cadence; it rotates the windowed
 * histogram and updates the violation totals under a mutex, so the
 * totals are consistent whenever the sampler is quiesced.
 */
class SloTracker
{
  public:
    /** Violation totals (read after the sampler quiesces). */
    struct Totals
    {
        /** Windows closed. */
        uint64_t windows = 0;
        /** Windows with traffic whose p999 exceeded the SLO. */
        uint64_t violated = 0;
        /** Violated windows during which no mechanism did work. */
        uint64_t violatedIdle = 0;
        /** Violated windows during which mechanism k did work (a
         *  window with two active mechanisms counts toward both). */
        uint64_t violatedBy[anchorage::kNumMechanisms] = {};
        /** Worst per-window p999 seen, microseconds. */
        double worstWindowP999Us = 0;
    };

    explicit SloTracker(SloConfig config = {}) : config_(config) {}

    /** Record one completion. Any thread (wait-free histogram adds). */
    void record(const Response &response);

    /**
     * Close the current window: judge its p999 against the SLO and
     * attribute a violation to every mechanism with nonzero work this
     * window. @param mechWork per-mechanism work delta (any monotone
     * progress measure — moved objects + barriers)
     * indexed by anchorage::MechanismKind. Single sampler thread.
     * @return the closed window's summary.
     */
    telemetry::WindowSummary
    closeWindow(const uint64_t (&mechWork)[anchorage::kNumMechanisms]);

    /** Violation totals so far. Call with the sampler quiesced. */
    Totals totals() const;

    /** Whole-run latency histogram for one op kind (ns samples). */
    const telemetry::Histogram &opHistogram(OpKind op) const;

    /** Whole-run percentile for one op kind, microseconds. */
    double opPercentileUs(OpKind op, double p) const;

    /** The configured objective, microseconds. */
    double sloUs() const { return config_.sloUs; }

  private:
    static constexpr size_t kNumOps = 3;

    SloConfig config_;
    telemetry::Histogram perOpNs_[kNumOps];
    telemetry::WindowedHistogram windowedNs_;
    mutable std::mutex mutex_; ///< guards totals_ (sampler vs readers)
    Totals totals_;
};

} // namespace alaska::serve

#endif // ALASKA_SERVE_SLO_H
