/**
 * @file
 * Shared pieces of the repository benchmark binary: options, the
 * metric record every workload fills, host probes (process and thread
 * CPU, kernel RSS, host steal), exact percentiles over stored samples,
 * the benchmark's own seeded generators, and the memcpy roofline.
 *
 * The generators live here rather than in src/ on purpose: the offered
 * load must not change when code under src/serve or src/ycsb changes.
 */

#ifndef REPOBENCH_COMMON_H
#define REPOBENCH_COMMON_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace repobench
{

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    /** Chrome-trace output path; empty runs untraced. */
    std::string traceFile;
};

/** One named measurement and its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a workload run reports back to main(). */
struct Result
{
    /** Operations the run attempted, verification reads included. */
    uint64_t attempted = 0;
    /** Failed, lost, refused or wrong operations among them. */
    uint64_t failed = 0;
    /** The first few failure descriptions, for the log. */
    std::vector<std::string> failures;
    /** Gated end-to-end metrics, in output order. */
    std::vector<Metric> e2e;
    /** Per-layer counters and timings, in output order. */
    std::vector<Metric> layers;

    void
    fail(uint64_t count, const std::string &what)
    {
        if (count == 0)
            return;
        failed += count;
        if (failures.size() < 16)
            failures.push_back(what + " x" + std::to_string(count));
    }
};

/** Steady-clock nanoseconds: the timebase of serve::nowNs() and of
 *  every trace event, so the three can be mixed freely. */
uint64_t nowNs();

/** Process user+sys CPU seconds, all threads. */
double processCpuSec();

/** The calling thread's user+sys CPU seconds. */
double threadCpuSec();

/** Kernel resident set size of this process, MB (/proc/self/statm). */
double kernelRssMb();

/** Host-wide CPU steal, seconds summed over CPUs (/proc/stat). */
double hostStealSec();

/**
 * Exact percentile p in [0, 100] of samples (nearest rank). Reorders
 * the vector. 0 when empty.
 */
double percentile(std::vector<uint64_t> &samples, double p);

/** Median of a small vector of doubles. 0 when empty. */
double median(std::vector<double> values);

/** Arithmetic mean. 0 when empty. */
double mean(const std::vector<double> &values);

/** splitmix64: the benchmark's own seeded generator. */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    uint64_t state_;
};

/** Stateless 64-bit mix of one value (splitmix64's finalizer). */
uint64_t mix64(uint64_t x);

/**
 * YCSB's zipfian rank generator (Gray et al., theta 0.99) over
 * [0, n), scrambled so popular ranks scatter over the keyspace.
 */
class Zipfian
{
  public:
    Zipfian(uint64_t n, uint64_t seed);
    uint64_t next();

  private:
    static constexpr double kTheta = 0.99;
    uint64_t n_;
    double zetan_;
    double eta_;
    double alpha_;
    SplitMix rng_;
};

/**
 * Host memcpy bandwidth over `bytes` (copied through a pre-faulted
 * buffer pair of at most 64 MiB), GB/s: the roofline the defrag copy
 * rates are reported against. Median of three passes.
 */
double memcpyGbps(size_t bytes);

/**
 * One spinning thread per CPU at SCHED_IDLE, pinned, for the measured
 * phase. They run only when a CPU would otherwise idle, so no vCPU
 * halts: a wake-up of a worker, an inserter or the daemon then costs a
 * guest context switch instead of a hypervisor vCPU wake-up, whose
 * latency follows the host's load (guest halt-polling does the same).
 * Without them, request p50 and cache-churn throughput tracked host
 * steal from run to run. Their CPU time is excluded from cpu_us_per_op.
 */
class IdleSpinners
{
  public:
    IdleSpinners();
    ~IdleSpinners();

    IdleSpinners(const IdleSpinners &) = delete;
    IdleSpinners &operator=(const IdleSpinners &) = delete;

    /** Stop and join the spinners (idempotent). @return their total
     *  CPU seconds. */
    double stop();

  private:
    std::atomic<bool> stop_{false};
    std::vector<double> cpuSec_;
    std::vector<std::thread> threads_;
};

/** Workload entry points (kv_workloads.cc, cache_churn.cc). */
Result runKvServe(const Options &opt);
Result runKvDefrag(const Options &opt);
Result runCacheChurn(const Options &opt);

} // namespace repobench

#endif // REPOBENCH_COMMON_H
