#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>

namespace repobench
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
processCpuSec()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
threadCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
kernelRssMb()
{
    FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long long size = 0, resident = 0;
    const int n = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (n != 2)
        return 0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double
hostStealSec()
{
    FILE *f = std::fopen("/proc/stat", "r");
    if (f == nullptr)
        return 0;
    // cpu user nice system idle iowait irq softirq steal ...
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                              &v[6], &v[7]);
    std::fclose(f);
    if (n != 8)
        return 0;
    return static_cast<double>(v[7]) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
percentile(std::vector<uint64_t> &samples, double p)
{
    if (samples.empty())
        return 0;
    const size_t n = samples.size();
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<size_t>(rank, 1, n);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return static_cast<double>(samples[rank - 1]);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double sum = 0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

Zipfian::Zipfian(uint64_t n, uint64_t seed)
    : n_(n), zetan_(0), rng_(seed)
{
    for (uint64_t i = 1; i <= n; i++)
        zetan_ += 1.0 / std::pow(static_cast<double>(i), kTheta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, kTheta);
    alpha_ = 1.0 / (1.0 - kTheta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - kTheta)) /
           (1.0 - zeta2 / zetan_);
}

uint64_t
Zipfian::next()
{
    const double u = rng_.real();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
        rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, kTheta)) {
        rank = 1;
    } else {
        rank = static_cast<uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        rank = std::min(rank, n_ - 1);
    }
    return mix64(rank) % n_;
}

double
memcpyGbps(size_t bytes)
{
    const size_t chunk = std::min<size_t>(std::max<size_t>(bytes, 1 << 20),
                                          64u << 20);
    std::unique_ptr<char[]> src(new char[chunk]);
    std::unique_ptr<char[]> dst(new char[chunk]);
    std::memset(src.get(), 0x5a, chunk);
    std::memset(dst.get(), 0xa5, chunk);
    std::vector<double> rates;
    for (int pass = 0; pass < 3; pass++) {
        size_t left = std::max(bytes, chunk);
        const size_t total = left;
        const uint64_t t0 = nowNs();
        while (left > 0) {
            const size_t n = std::min(left, chunk);
            std::memcpy(dst.get(), src.get(), n);
            // Keep the copy observable so it is not elided.
            asm volatile("" : : "r"(dst.get()) : "memory");
            left -= n;
        }
        const uint64_t dt = nowNs() - t0;
        rates.push_back(static_cast<double>(total) /
                        static_cast<double>(std::max<uint64_t>(dt, 1)));
    }
    return median(rates);
}

IdleSpinners::IdleSpinners()
{
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    cpuSec_.assign(static_cast<size_t>(std::max(cpus, 1L)), 0.0);
    for (size_t c = 0; c < cpuSec_.size(); c++) {
        threads_.emplace_back([this, c] {
            sched_param param{};
            if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) !=
                0) {
                std::fprintf(stderr, "repobench: SCHED_IDLE refused; "
                                     "idle spinner %zu not started\n",
                             c);
                return;
            }
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(c, &set);
            pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
            const double cpu0 = threadCpuSec();
            // SCHED_IDLE is a tiny weight, not strict priority: a busy
            // loop would still take whole slices from a co-located
            // always-runnable thread (the generator, an inserter).
            // Yielding hands the CPU back at once.
            while (!stop_.load(std::memory_order_relaxed))
                sched_yield();
            cpuSec_[c] = threadCpuSec() - cpu0;
        });
    }
}

IdleSpinners::~IdleSpinners()
{
    stop();
}

double
IdleSpinners::stop()
{
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread &t : threads_)
        t.join();
    threads_.clear();
    return std::accumulate(cpuSec_.begin(), cpuSec_.end(), 0.0);
}

} // namespace repobench
