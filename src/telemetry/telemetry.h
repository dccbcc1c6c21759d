/**
 * @file
 * Runtime telemetry: named per-thread relaxed-atomic counters and a
 * small set of well-known histograms, aggregated lazily at snapshot
 * time. A hot path pays one relaxed fetch_add on a thread-local cell
 * — or nothing at all when the counter's level is compiled out via
 * ALASKA_TELEMETRY_LEVEL. No core/ dependencies; core depends on this
 * layer, never the reverse. See docs/OBSERVABILITY.md for the metric
 * catalog and overhead levels.
 */

#ifndef ALASKA_TELEMETRY_TELEMETRY_H
#define ALASKA_TELEMETRY_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <cstdio>

#include "telemetry/histogram.h"

/**
 * Compile-time telemetry level:
 *   0 — everything compiles to nothing (count()/countHot() are empty
 *       inline functions; histograms and tracing still link but no
 *       runtime path records into them).
 *   1 — default: cold/medium-path counters and histograms (faults,
 *       magazine traffic, defrag pipeline, grace/limbo). Nothing on
 *       the per-deref fast path, so translate keeps its two-
 *       instruction body.
 *   2 — additionally count every translate/deref/scope-open
 *       (countHot). Costs one thread-local relaxed add per deref;
 *       measurably slows the fast path. For debugging, not benching.
 */
#ifndef ALASKA_TELEMETRY_LEVEL
#define ALASKA_TELEMETRY_LEVEL 1
#endif

namespace alaska::telemetry
{

/**
 * Every counter the runtime exposes. Keep in sync with counterName()
 * in telemetry.cc and the catalog in docs/OBSERVABILITY.md. Counters
 * are process-global and cumulative; snapshot() sums all per-thread
 * cells.
 */
enum class Counter : uint32_t {
    /* hot (level >= 2) */
    TranslateFast,    ///< translate() fast-path hits (STW discipline)
    DerefScoped,      ///< translateScoped() calls (epoch-scope path)
    ScopeOpen,        ///< outermost access_scope/ConcurrentAccessScope opens
    /* default (level >= 1) */
    DerefPinned,      ///< ConcurrentPin pin+translate derefs
    HandleFault,      ///< translateChecked faults on invalid handles
    MagazineRefill,   ///< handle-id magazine refills (reserveBatch)
    MagazineSpill,    ///< handle-id magazine spills (unreserveBatch)
    CrossShardFree,   ///< frees landing on a non-home shard
    ShardHoleSteal,   ///< alloc miss path stole a heap hole cross-shard
    ShardLockWait,    ///< Anchorage shard-lock acquisitions that blocked
    IdShardSteal,     ///< handle-id reserve stole from a foreign shard
    CampaignCommit,   ///< concurrent relocations committed
    CampaignAbort,    ///< concurrent relocations aborted (pin/mark lost)
    CampaignNoSpace,  ///< concurrent relocations skipped for want of space
    GraceWait,        ///< blocking waits for an epoch grace period
    LimboSeal,        ///< limbo batches sealed behind a grace ticket
    LimboRetire,      ///< limbo batches whose grace elapsed and freed
    LimboStall,       ///< allocations stalled on the limbo byte cap
    Barrier,          ///< stop-the-world barriers executed
    StwRecoveredBytes,      ///< bytes recovered by stop-the-world passes
    CampaignRecoveredBytes, ///< bytes recovered by concurrent campaigns
    ServeSteal,       ///< serve worker stole a request from another queue
    ServeBackpressure, ///< serve submits that waited on a full queue
    kCount
};

constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);

/** Stable snake_case name for a counter (never nullptr). */
const char *counterName(Counter c);

/**
 * Well-known histograms. All nanosecond-valued except AllocMissDepth
 * (sub-heaps probed beyond the cursor on an alloc miss). Keep in sync
 * with histName() in telemetry.cc and docs/OBSERVABILITY.md.
 */
enum class Hist : uint32_t {
    BarrierPauseNs,   ///< stop-the-world barrier duration
    CampaignCopyNs,   ///< per-object speculative copy latency
    GraceAgeNs,       ///< limbo-batch age from seal to retire
    AllocMissDepth,   ///< sub-heaps probed on the alloc miss path
    ShardLockWaitNs,  ///< time blocked acquiring an Anchorage shard lock
    kCount
};

constexpr size_t kNumHists = static_cast<size_t>(Hist::kCount);

/** Stable snake_case name for a histogram (never nullptr). */
const char *histName(Hist h);

namespace detail
{

/**
 * One thread's counter cells. Writers are the owning thread via
 * relaxed fetch_add; snapshot() reads concurrently with relaxed
 * loads, so totals are monotonic but may miss in-flight increments
 * (exact once the writers quiesce). Blocks are pooled: a thread exit
 * returns its block to a free list with counts intact (snapshot sums
 * every block ever handed out, so totals never go backwards), and the
 * next thread to start reuses it.
 */
struct CounterBlock {
    std::atomic<uint64_t> cells[kNumCounters] = {};
    CounterBlock *next = nullptr; ///< registry's all-blocks list
    CounterBlock *nextFree = nullptr;
};

/**
 * This thread's cell block, nullptr before first use. After thread
 * teardown it points at a shared fallback block so late increments
 * (from other TLS destructors) stay counted. constinit + local-exec:
 * the level-2 hot-path increment must not call the TLS init wrapper
 * (which cost ~20% on the translation fast path) or go through the GOT
 * — this library only ever links statically into the executable.
 */
extern thread_local constinit CounterBlock *tlsCounters
    __attribute__((tls_model("local-exec")));

/** Acquire (or pool-reuse) this thread's block; sets tlsCounters. */
CounterBlock &countersSlow();

inline CounterBlock &
counters()
{
    CounterBlock *b = tlsCounters;
    if (__builtin_expect(b == nullptr, 0))
        return countersSlow();
    return *b;
}

} // namespace detail

/**
 * Bump a default-level counter. One relaxed fetch_add on a
 * thread-local cell; compiled out below level 1.
 */
inline void
count(Counter c, uint64_t n = 1)
{
#if ALASKA_TELEMETRY_LEVEL >= 1
    detail::counters().cells[static_cast<size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
#else
    (void)c;
    (void)n;
#endif
}

/**
 * Bump a hot-path counter (per-deref granularity). Compiled out below
 * level 2 so the default build's translate fast path is untouched.
 */
inline void
countHot(Counter c, uint64_t n = 1)
{
#if ALASKA_TELEMETRY_LEVEL >= 2
    count(c, n);
#else
    (void)c;
    (void)n;
#endif
}

/** The process-global histogram for h. Record with hist(h).record(v). */
Histogram &hist(Hist h);

/**
 * Record v into histogram h. Compiled out below level 1; three
 * relaxed RMWs on shared (not per-thread) cache lines otherwise, so
 * keep call sites off the per-deref fast path.
 */
inline void
record(Hist h, uint64_t v)
{
#if ALASKA_TELEMETRY_LEVEL >= 1
    hist(h).record(v);
#else
    (void)h;
    (void)v;
#endif
}

/**
 * A point-in-time aggregate of every counter (summed over all thread
 * cells, live and exited) and a copy of every histogram. Plain data;
 * copyable; safe to take while mutators, campaigns and barriers run
 * (values lag in-flight increments by at most one relaxed add).
 */
struct Snapshot {
    uint64_t counters[kNumCounters] = {};
    Histogram hists[kNumHists];

    uint64_t
    counter(Counter c) const
    {
        return counters[static_cast<size_t>(c)];
    }

    const Histogram &
    histogram(Hist h) const
    {
        return hists[static_cast<size_t>(h)];
    }
};

/** Aggregate all per-thread cells and histograms. Any thread. */
Snapshot snapshot();

/**
 * Zero every counter cell and histogram. Test/bench convenience: racy
 * against concurrent increments (a straggler add can survive the
 * sweep), so quiesce writers first for exact deltas.
 */
void reset();

/** Human-readable dump: one `name value` line per nonzero counter,
 *  then count/mean/p50/p99/max per nonzero histogram. */
void writeText(const Snapshot &snap, FILE *out);

} // namespace alaska::telemetry

#endif // ALASKA_TELEMETRY_TELEMETRY_H
