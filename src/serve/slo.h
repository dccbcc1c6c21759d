/**
 * @file
 * Tail-latency SLO tracking for the serving front end.
 *
 * Two views of the same completion stream: cumulative per-op-type
 * histograms (whole-run p50/p99/p999 per get/set/rmw) and the current
 * window's combined histogram, whose p999 is compared against the SLO
 * each time the sampler closes a window. The sampler also says whether
 * the defrag daemon did any work during the window (a delta of
 * ConcurrentRelocDaemon::totals()), so a run's report can say "7 of 9
 * violated windows coincided with defrag work" instead of just "p999
 * was bad". Windows violated with no defrag work at all are counted
 * separately (violatedIdle): those are the server's own fault
 * (overload, scheduling), not the defrag pipeline's. The daemon runs
 * exactly one mechanism per mode, so the busy windows are the mode's.
 */

#ifndef ALASKA_SERVE_SLO_H
#define ALASKA_SERVE_SLO_H

#include <cstdint>
#include <mutex>

#include "serve/server.h"
#include "telemetry/histogram.h"

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
 * sampler thread on its window cadence; it copies and clears the
 * current window and updates the violation totals under a mutex, so
 * the totals are consistent whenever the sampler is quiesced. A sample
 * racing the copy lands in whichever window the race resolves to (or,
 * rarely, in neither: the clear is not atomic with the copy), which a
 * percentile window tolerates; the cumulative per-op histograms count
 * every sample exactly.
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
        /** Violated windows during which the defrag daemon did no
         *  work; the other violated - violatedIdle coincided with it. */
        uint64_t violatedIdle = 0;
        /** Worst per-window p999 seen, microseconds. */
        double worstWindowP999Us = 0;
    };

    explicit SloTracker(SloConfig config = {}) : config_(config) {}

    /** Record one completion. Any thread (wait-free histogram adds). */
    void record(const Response &response);

    /**
     * Close the current window: judge its p999 against the SLO and, if
     * violated, count it as idle unless defrag worked. @param
     * defragWorked whether the defrag daemon made any progress this
     * window (any monotone measure: moved objects + barriers +
     * commits). Single sampler thread.
     */
    void closeWindow(bool defragWorked);

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
    telemetry::Histogram windowNs_; ///< the current window, all ops
    mutable std::mutex mutex_; ///< guards totals_ (sampler vs readers)
    Totals totals_;
};

} // namespace alaska::serve

#endif // ALASKA_SERVE_SLO_H
