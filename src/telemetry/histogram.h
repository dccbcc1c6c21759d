/**
 * @file
 * Fixed-size log2-bucketed histogram: constant memory regardless of
 * sample count, mergeable across threads, safe to record into
 * concurrently. It is the library's one percentile structure: the
 * daemon, the SLO windows, telemetry and the latency harnesses under
 * bench/ record into it (a daemon that records one barrier pause per
 * tick for a week must not grow a vector forever). Percentiles never
 * exceed max().
 */

#ifndef ALASKA_TELEMETRY_HISTOGRAM_H
#define ALASKA_TELEMETRY_HISTOGRAM_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace alaska::telemetry
{

/**
 * A 64-bucket power-of-two histogram over uint64_t samples.
 *
 * Bucket 0 holds only the value 0; bucket b (b >= 1) holds values in
 * [2^(b-1), 2^b). With 64 buckets every uint64_t value has a bucket,
 * so record() never saturates or clamps. Alongside the buckets the
 * histogram tracks exact count, sum and max, so mean() and max() are
 * exact; percentile() is bucket-resolution (within 2x, linearly
 * interpolated inside the winning bucket) and never exceeds max().
 *
 * Concurrency: record() and merge() use relaxed atomics and may race
 * freely with readers; readers see a possibly-torn but
 * monotonically-growing view (each bucket individually exact). For an
 * exact cross-thread total, have each thread record into its own
 * Histogram and merge() them after the threads quiesce — merge of
 * quiescent histograms is exact (tested in tests/telemetry_test.cc).
 * Copy construction/assignment snapshot with relaxed loads.
 */
class Histogram
{
  public:
    static constexpr size_t kBuckets = 64;

    Histogram() = default;

    Histogram(const Histogram &other) { copyFrom(other); }

    Histogram &
    operator=(const Histogram &other)
    {
        if (this != &other)
            copyFrom(other);
        return *this;
    }

    /** Bucket index for a value: 0 -> 0, else floor(log2(v)) + 1,
     *  clamped so the top bucket absorbs [2^62, 2^64). */
    static constexpr size_t
    bucketOf(uint64_t v)
    {
        if (v == 0)
            return 0;
        const size_t b = static_cast<size_t>(64 - __builtin_clzll(v));
        return b < kBuckets ? b : kBuckets - 1;
    }

    /** Smallest value that lands in bucket b. */
    static constexpr uint64_t
    bucketLow(size_t b)
    {
        return b == 0 ? 0 : uint64_t(1) << (b - 1);
    }

    /** Largest value that lands in bucket b. */
    static constexpr uint64_t
    bucketHigh(size_t b)
    {
        return b == 0 ? 0
               : b == kBuckets - 1 ? ~uint64_t(0)
                                   : (uint64_t(1) << b) - 1;
    }

    /** Add one sample. Thread-safe, wait-free (3 relaxed RMWs). */
    void
    record(uint64_t v)
    {
        buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        uint64_t prev = max_.load(std::memory_order_relaxed);
        while (v > prev &&
               !max_.compare_exchange_weak(prev, v,
                                           std::memory_order_relaxed))
            ;
    }

    /** Fold another histogram's samples into this one. */
    void
    merge(const Histogram &other)
    {
        for (size_t b = 0; b < kBuckets; b++)
            buckets_[b].fetch_add(
                other.buckets_[b].load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
        sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
        uint64_t omax = other.max_.load(std::memory_order_relaxed);
        uint64_t prev = max_.load(std::memory_order_relaxed);
        while (omax > prev &&
               !max_.compare_exchange_weak(prev, omax,
                                           std::memory_order_relaxed))
            ;
    }

    /** Drop all samples. Not safe against concurrent record(). */
    void
    clear()
    {
        for (size_t b = 0; b < kBuckets; b++)
            buckets_[b].store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

    uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    uint64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Exact largest recorded sample (0 when empty). */
    uint64_t
    max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    /** Exact arithmetic mean (0 when empty). */
    double
    mean() const
    {
        uint64_t n = count();
        return n == 0 ? 0.0 : static_cast<double>(sum()) / n;
    }

    /** Samples in bucket b. */
    uint64_t
    bucketCount(size_t b) const
    {
        return buckets_[b].load(std::memory_order_relaxed);
    }

    /**
     * Approximate percentile p in [0, 100]: finds the bucket holding
     * the rank-ceil(p/100 * count) sample and linearly interpolates
     * inside it. Exact for single-valued buckets (e.g. bucket 0);
     * within the bucket's 2x span otherwise, and clamped to max() so a
     * tail never reads above the largest sample. Returns 0 when empty.
     */
    double
    percentile(double p) const
    {
        uint64_t n = count();
        if (n == 0)
            return 0.0;
        if (p < 0)
            p = 0;
        if (p > 100)
            p = 100;
        uint64_t rank = static_cast<uint64_t>(p / 100.0 * n + 0.5);
        if (rank == 0)
            rank = 1;
        if (rank > n)
            rank = n;
        uint64_t cum = 0;
        for (size_t b = 0; b < kBuckets; b++) {
            uint64_t c = bucketCount(b);
            if (c == 0)
                continue;
            if (cum + c >= rank) {
                double lo = static_cast<double>(bucketLow(b));
                double hi = static_cast<double>(bucketHigh(b));
                double frac =
                    static_cast<double>(rank - cum) / static_cast<double>(c);
                // The bucket's top can sit up to 2x above the largest
                // sample it holds.
                return std::min(lo + (hi - lo) * frac,
                                static_cast<double>(max()));
            }
            cum += c;
        }
        return static_cast<double>(max());
    }

  private:
    void
    copyFrom(const Histogram &other)
    {
        for (size_t b = 0; b < kBuckets; b++)
            buckets_[b].store(
                other.buckets_[b].load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        count_.store(other.count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
        sum_.store(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
        max_.store(other.max_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }

    std::atomic<uint64_t> buckets_[kBuckets] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> max_{0};
};

} // namespace alaska::telemetry

#endif // ALASKA_TELEMETRY_HISTOGRAM_H
