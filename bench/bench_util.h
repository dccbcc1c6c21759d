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
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "base/timer.h"

namespace alaska::bench
{

/** Median-of-reps wall time of fn(scale), with one warmup run. */
inline double
timeKernel(int64_t (*fn)(size_t), size_t scale, int reps = 5)
{
    volatile int64_t sink = fn(scale); // warmup
    (void)sink;
    std::vector<double> times;
    times.reserve(static_cast<size_t>(reps));
    for (int r = 0; r < reps; r++) {
        Stopwatch watch;
        sink = fn(scale);
        times.push_back(watch.elapsedSec());
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

/** Percent overhead of t over baseline. */
inline double
overheadPct(double baseline, double t)
{
    return (t / baseline - 1.0) * 100.0;
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
    percentile(const std::vector<double> &sorted, double p)
    {
        if (sorted.empty())
            return 0.0;
        const double rank =
            p / 100.0 * static_cast<double>(sorted.size() - 1);
        const size_t lo = static_cast<size_t>(rank);
        const size_t hi = std::min(lo + 1, sorted.size() - 1);
        const double frac = rank - static_cast<double>(lo);
        return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
    }

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

} // namespace alaska::bench

#endif // ALASKA_BENCH_BENCH_UTIL_H
