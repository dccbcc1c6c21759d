/**
 * @file
 * Shared helpers for the figure-reproduction harnesses, including the
 * machine-readable `--out <file>` JSON mode: harnesses funnel every
 * reported number through a JsonReport, which reduces each metric to
 * median/p95/p999/CV over its samples and stamps the file with a
 * structural checksum so a baseline diff (scripts/diff_bench.py) can
 * tell "the harness changed shape" from "the numbers drifted".
 */

#ifndef ALASKA_BENCH_BENCH_UTIL_H
#define ALASKA_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "base/timer.h"

namespace alaska::bench
{

/**
 * Linear-interpolated percentile p (0..100) of ascending samples; 0
 * for an empty set.
 */
inline double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/** A sample set's median and interquartile range. */
struct Spread
{
    double median = 0.0;
    double iqr = 0.0;
};

inline Spread
spreadOf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return {percentile(samples, 50.0),
            percentile(samples, 75.0) - percentile(samples, 25.0)};
}

/** A kernel configuration: runs the kernel at a scale. */
using KernelFn = int64_t (*)(size_t);

/**
 * Time variants of one kernel in interleaved rounds: one warmup run of
 * each, then every round runs each variant once, starting one variant
 * later each round. A host phase (a frequency step, a noisy neighbour)
 * thus lands on every variant of a round alike and cancels in that
 * round's ratios, where timing all reps of one variant before the next
 * would land it on one side only.
 * @return secs[v][r]: variant v's wall time in round r.
 */
inline std::vector<std::vector<double>>
timeInterleaved(const std::vector<KernelFn> &variants, size_t scale,
                int rounds)
{
    volatile int64_t sink = 0;
    for (KernelFn fn : variants)
        sink = fn(scale); // warmup
    const size_t n = variants.size();
    std::vector<std::vector<double>> secs(n);
    for (int r = 0; r < rounds; r++) {
        for (size_t i = 0; i < n; i++) {
            const size_t v = (static_cast<size_t>(r) + i) % n;
            Stopwatch watch;
            sink = variants[v](scale);
            secs[v].push_back(watch.elapsedSec());
        }
    }
    (void)sink;
    return secs;
}

/** Per-round ratios t[r] / base[r] of two timeInterleaved() rows. */
inline std::vector<double>
roundRatios(const std::vector<double> &base, const std::vector<double> &t)
{
    std::vector<double> ratios(base.size());
    for (size_t r = 0; r < base.size(); r++)
        ratios[r] = t[r] / base[r];
    return ratios;
}

/**
 * Machine-readable benchmark output (the `--out <file>` mode).
 *
 * Usage: call add() once per observation — repeated adds under the
 * same metric name become that metric's sample set — then writeTo()
 * at exit. Each metric is reported as median/p95/p999 plus the
 * coefficient of variation (stddev/mean; 0 for single samples), so a
 * baseline diff can scale its noise band to how jittery the metric
 * actually is. The file-level checksum is FNV-1a over the sorted
 * metric names only: it identifies the *shape* of the report, letting
 * the diff distinguish a harness change from numeric drift.
 */
class JsonReport
{
  public:
    void
    add(const std::string &metric, double value, const char *unit = "")
    {
        Metric &m = metrics_[metric];
        m.unit = unit;
        m.samples.push_back(value);
    }

    /** The median the report will write for a metric (0 if absent). */
    double
    median(const std::string &metric) const
    {
        const auto it = metrics_.find(metric);
        if (it == metrics_.end())
            return 0.0;
        std::vector<double> sorted = it->second.samples;
        std::sort(sorted.begin(), sorted.end());
        return percentile(sorted, 50.0);
    }

    /** @return false (with a perror-style message) on I/O failure. */
    bool
    writeTo(const char *path, const char *bench_name) const
    {
        std::FILE *f = std::fopen(path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", path);
            return false;
        }
        std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_name);
        std::fprintf(f, "  \"checksum\": \"%016llx\",\n",
                     static_cast<unsigned long long>(checksum()));
        std::fprintf(f, "  \"metrics\": {\n");
        size_t i = 0;
        for (const auto &[name, m] : metrics_) {
            std::vector<double> sorted = m.samples;
            std::sort(sorted.begin(), sorted.end());
            std::fprintf(
                f,
                "    \"%s\": {\"unit\": \"%s\", \"count\": %zu, "
                "\"median\": %.6g, \"p95\": %.6g, \"p999\": %.6g, "
                "\"cv\": %.4g}%s\n",
                name.c_str(), m.unit.c_str(), sorted.size(),
                percentile(sorted, 50.0), percentile(sorted, 95.0),
                percentile(sorted, 99.9), cvOf(m.samples),
                ++i < metrics_.size() ? "," : "");
        }
        std::fprintf(f, "  }\n}\n");
        const bool ok = std::fclose(f) == 0;
        if (ok)
            std::printf("wrote %s (%zu metrics)\n", path,
                        metrics_.size());
        return ok;
    }

  private:
    struct Metric
    {
        std::string unit;
        std::vector<double> samples;
    };

    static double
    cvOf(const std::vector<double> &samples)
    {
        if (samples.size() < 2)
            return 0.0;
        double mean = 0.0;
        for (double s : samples)
            mean += s;
        mean /= static_cast<double>(samples.size());
        if (mean == 0.0)
            return 0.0;
        double var = 0.0;
        for (double s : samples)
            var += (s - mean) * (s - mean);
        var /= static_cast<double>(samples.size() - 1);
        return std::sqrt(var) / std::fabs(mean);
    }

    uint64_t
    checksum() const
    {
        // FNV-1a over the sorted metric names (std::map iterates
        // sorted), so the value pins the report's structure only.
        uint64_t h = 0xcbf29ce484222325ull;
        for (const auto &[name, m] : metrics_) {
            for (char c : name) {
                h ^= static_cast<unsigned char>(c);
                h *= 0x100000001b3ull;
            }
            h ^= '\n';
            h *= 0x100000001b3ull;
        }
        return h;
    }

    std::map<std::string, Metric> metrics_;
};

/** Parse a `--out=FILE` argument; @return the file or nullptr. */
inline const char *
outFileArg(const char *arg)
{
    constexpr const char prefix[] = "--out=";
    return std::strncmp(arg, prefix, sizeof prefix - 1) == 0
               ? arg + sizeof prefix - 1
               : nullptr;
}

/**
 * Parse a count flag's value into out. The parse is signed, so "-1"
 * fails the minimum instead of wrapping to 2^64 - 1 as strtoull would;
 * a non-number parses as 0. @return false (out untouched) when the
 * value lies outside [min, max].
 */
template <typename T>
inline bool
countArg(const char *value, long long min, T &out,
         unsigned long long max = std::numeric_limits<T>::max())
{
    const long long n = std::strtoll(value, nullptr, 10);
    if (n < min || static_cast<unsigned long long>(n) > max)
        return false;
    out = static_cast<T>(n);
    return true;
}

} // namespace alaska::bench

#endif // ALASKA_BENCH_BENCH_UTIL_H
