/**
 * @file
 * Tests for the telemetry subsystem (src/telemetry/): histogram
 * bucket boundaries and cross-thread merge exactness, counter
 * aggregation against concurrent increments, tracer ring-buffer
 * wraparound, and snapshot/trace-dump safety while a relocation
 * campaign and mutators run (the concurrency cases are part of the
 * TSAN lane — scripts/check.sh --tsan).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "api/access.h"
#include "core/runtime.h"
#include "services/concurrent_reloc.h"
#include "sim/address_space.h"
#include "telemetry/histogram.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace
{

using namespace alaska;
namespace tel = alaska::telemetry;

// --- histogram -------------------------------------------------------------

TEST(Histogram, BucketBoundaries)
{
    // Bucket 0 holds exactly {0}; bucket b holds [2^(b-1), 2^b).
    EXPECT_EQ(tel::Histogram::bucketOf(0), 0u);
    EXPECT_EQ(tel::Histogram::bucketOf(1), 1u);
    EXPECT_EQ(tel::Histogram::bucketOf(2), 2u);
    EXPECT_EQ(tel::Histogram::bucketOf(3), 2u);
    EXPECT_EQ(tel::Histogram::bucketOf(4), 3u);
    EXPECT_EQ(tel::Histogram::bucketOf(7), 3u);
    EXPECT_EQ(tel::Histogram::bucketOf(8), 4u);
    EXPECT_EQ(tel::Histogram::bucketOf(~uint64_t(0)), 63u);
    for (size_t b = 1; b < tel::Histogram::kBuckets; b++) {
        // Every bucket's own bounds map back to that bucket.
        EXPECT_EQ(tel::Histogram::bucketOf(tel::Histogram::bucketLow(b)),
                  b);
        EXPECT_EQ(tel::Histogram::bucketOf(tel::Histogram::bucketHigh(b)),
                  b);
    }

    tel::Histogram h;
    for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull})
        h.record(v);
    EXPECT_EQ(h.bucketCount(0), 1u); // {0}
    EXPECT_EQ(h.bucketCount(1), 1u); // {1}
    EXPECT_EQ(h.bucketCount(2), 2u); // {2, 3}
    EXPECT_EQ(h.bucketCount(3), 2u); // {4, 7}
    EXPECT_EQ(h.bucketCount(4), 1u); // {8}
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 7 + 8);
    EXPECT_EQ(h.max(), 8u);
    EXPECT_DOUBLE_EQ(h.mean(), 25.0 / 7.0);
    // Percentiles stay inside their bucket's bounds.
    const double p99 = h.percentile(99);
    EXPECT_GE(p99, 8.0);
    EXPECT_LE(p99, 15.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
}

TEST(Histogram, PercentilesNeverExceedMax)
{
    // One sample: interpolation alone would report the top of its
    // bucket [64, 127].
    tel::Histogram one;
    one.record(100);
    EXPECT_DOUBLE_EQ(one.percentile(50), 100.0);
    EXPECT_DOUBLE_EQ(one.percentile(99), 100.0);

    // A tight cluster low in a wide bucket: 1.500-1.501 ms sits in
    // [2^20, 2^21) ns, whose top is ~40% above the largest sample.
    tel::Histogram tight;
    for (uint64_t i = 0; i < 1000; i++)
        tight.record(1500000 + i);
    for (double p : {50.0, 99.0, 99.9, 100.0})
        EXPECT_LE(tight.percentile(p), static_cast<double>(tight.max()))
            << "p" << p;
    EXPECT_DOUBLE_EQ(tight.percentile(100), 1500999.0);
}

TEST(Histogram, CrossThreadMergeExactness)
{
    // N threads each record into a private histogram; the merge must
    // equal a serial histogram of the concatenated samples, field by
    // field — merge of quiescent histograms is exact.
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<tel::Histogram> parts(kThreads);
    tel::Histogram serial;
    for (int t = 0; t < kThreads; t++)
        for (int i = 0; i < kPerThread; i++)
            serial.record(static_cast<uint64_t>(t) * 131071u + i);

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; t++) {
        workers.emplace_back([&parts, t] {
            for (int i = 0; i < kPerThread; i++)
                parts[t].record(static_cast<uint64_t>(t) * 131071u + i);
        });
    }
    for (auto &w : workers)
        w.join();

    tel::Histogram merged;
    for (const auto &p : parts)
        merged.merge(p);
    EXPECT_EQ(merged.count(), serial.count());
    EXPECT_EQ(merged.sum(), serial.sum());
    EXPECT_EQ(merged.max(), serial.max());
    for (size_t b = 0; b < tel::Histogram::kBuckets; b++)
        EXPECT_EQ(merged.bucketCount(b), serial.bucketCount(b)) << b;
}

TEST(Histogram, ConcurrentRecordTotals)
{
    // Concurrent record() into ONE histogram: per-field totals are
    // still exact once the writers join (every field is a relaxed
    // atomic RMW, nothing is lost).
    tel::Histogram h;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 25000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; t++)
        workers.emplace_back([&h] {
            for (int i = 0; i < kPerThread; i++)
                h.record(static_cast<uint64_t>(i) % 1024);
        });
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(h.count(), uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(h.max(), 1023u);
}

// --- counters --------------------------------------------------------------

TEST(Counters, AggregationVsConcurrentIncrements)
{
#if ALASKA_TELEMETRY_LEVEL < 1
    GTEST_SKIP() << "counters compiled out at this telemetry level";
#endif
    // Each thread bumps its own thread-local cell; the snapshot after
    // the join must see every increment exactly once (counters are
    // process-global and cumulative, so compare deltas).
    const uint64_t before =
        tel::snapshot().counter(tel::Counter::HandleFault);
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 50000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; t++)
        workers.emplace_back([] {
            for (uint64_t i = 0; i < kPerThread; i++)
                tel::count(tel::Counter::HandleFault);
        });
    for (auto &w : workers)
        w.join();
    const uint64_t after =
        tel::snapshot().counter(tel::Counter::HandleFault);
    EXPECT_EQ(after - before, kThreads * kPerThread);
}

TEST(Counters, SnapshotWhileIncrementing)
{
#if ALASKA_TELEMETRY_LEVEL < 1
    GTEST_SKIP() << "counters compiled out at this telemetry level";
#endif
    // Snapshots taken mid-increment must be monotonic and never
    // overshoot the true total.
    const uint64_t before =
        tel::snapshot().counter(tel::Counter::GraceWait);
    constexpr uint64_t kTotal = 200000;
    std::thread writer([] {
        for (uint64_t i = 0; i < kTotal; i++)
            tel::count(tel::Counter::GraceWait);
    });
    uint64_t last = before;
    for (int i = 0; i < 50; i++) {
        const uint64_t now =
            tel::snapshot().counter(tel::Counter::GraceWait);
        EXPECT_GE(now, last);
        EXPECT_LE(now - before, kTotal);
        last = now;
    }
    writer.join();
    EXPECT_EQ(tel::snapshot().counter(tel::Counter::GraceWait) - before,
              kTotal);
}

TEST(Counters, NamesAreStableAndUnique)
{
    std::vector<std::string> names;
    for (size_t i = 0; i < tel::kNumCounters; i++) {
        std::string name = tel::counterName(static_cast<tel::Counter>(i));
        EXPECT_NE(name, "unknown");
        for (const auto &prev : names)
            EXPECT_NE(name, prev);
        names.push_back(std::move(name));
    }
    for (size_t i = 0; i < tel::kNumHists; i++)
        EXPECT_STRNE(tel::histName(static_cast<tel::Hist>(i)), "unknown");
    for (size_t i = 0; i < tel::kNumGauges; i++)
        EXPECT_STRNE(tel::gaugeName(static_cast<tel::Gauge>(i)),
                     "unknown");
}

// --- gauges ----------------------------------------------------------------

TEST(Gauges, LastWriteWinsThroughSnapshot)
{
#if ALASKA_TELEMETRY_LEVEL < 1
    GTEST_SKIP() << "gauges compiled out at this telemetry level";
#endif
    // Gauges are instantaneous, not cumulative: a second set replaces
    // the first, and the snapshot carries the last written value.
    tel::setGauge(tel::Gauge::BatchBytesCurrent, 123456);
    EXPECT_EQ(tel::snapshot().gauge(tel::Gauge::BatchBytesCurrent),
              123456u);
    tel::setGauge(tel::Gauge::BatchBytesCurrent, 42);
    EXPECT_EQ(tel::snapshot().gauge(tel::Gauge::BatchBytesCurrent),
              42u);
    tel::reset();
    EXPECT_EQ(tel::snapshot().gauge(tel::Gauge::BatchBytesCurrent), 0u);
}

// --- tracer ----------------------------------------------------------------

/** Read a whole file into a string (empty on failure). */
std::string
slurp(const char *path)
{
    FILE *f = fopen(path, "r");
    if (f == nullptr)
        return "";
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    fclose(f);
    return out;
}

size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        n++;
    return n;
}

TEST(Tracer, RingBufferWraparound)
{
    // A dedicated thread gets a fresh ring with a tiny capacity; more
    // events than capacity must wrap (keeping the newest) and report
    // the overflow as dropped, not grow memory.
    tel::clearTrace();
    tel::enableTracing(/*ringCapacity=*/8);
    std::thread writer([] {
        for (int i = 0; i < 20; i++)
            tel::traceInstant(i + 1 < 20 ? "wrap_old" : "wrap_last");
    });
    writer.join();
    tel::disableTracing();

    const char *path = "telemetry_test_wrap.json";
    ASSERT_TRUE(tel::dumpTrace(path));
    const std::string json = slurp(path);
    std::remove(path);
    // The newest event survived the wrap; at most 8 of the writer's 20
    // events did; the dump flags the dropped count.
    EXPECT_EQ(countOccurrences(json, "wrap_last"), 1u);
    EXPECT_LE(countOccurrences(json, "wrap_old"), 7u);
    EXPECT_NE(json.find("dropped_events"), std::string::npos);
}

TEST(Tracer, SpanAndInstantRoundTrip)
{
    tel::clearTrace();
    tel::enableTracing(64);
    {
        tel::TraceSpan span("roundtrip_span");
        tel::traceInstant("roundtrip_instant");
    }
    tel::disableTracing();
    const char *path = "telemetry_test_roundtrip.json";
    ASSERT_TRUE(tel::dumpTrace(path));
    const std::string json = slurp(path);
    std::remove(path);
    EXPECT_NE(json.find("\"name\": \"roundtrip_span\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"roundtrip_instant\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

// --- snapshot during a live campaign ---------------------------------------

TEST(SnapshotDuringCampaign, CountersTraceAndDumpAreSafe)
{
    // Mutators churn the heap under epoch scopes while campaigns
    // relocate concurrently; a third role keeps taking snapshots and
    // dumping traces throughout. Nothing to assert beyond liveness and
    // monotonicity — the TSAN lane is what proves the absence of
    // races.
    RealAddressSpace space;
    anchorage::AnchorageService service(
        space, anchorage::AnchorageConfig{.subHeapBytes = 1 << 18});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 14});
    runtime.attachService(&service);
    Runtime::declareConcurrentDefrag();

    tel::clearTrace();
    tel::enableTracing(4096);
    std::atomic<bool> stop{false};

    std::thread mutator([&] {
        ThreadRegistration reg(runtime);
        std::vector<void *> handles;
        uint64_t x = 1;
        while (!stop.load(std::memory_order_relaxed)) {
            {
                access_scope scope;
                if (handles.size() < 512) {
                    void *h = runtime.halloc(64 + (x % 128));
                    std::memset(api::deref(static_cast<char *>(h)), 0x5a,
                                8);
                    handles.push_back(h);
                } else {
                    runtime.hfree(handles[x % handles.size()]);
                    handles[x % handles.size()] = runtime.halloc(64);
                }
            }
            x = x * 2862933555777941757ull + 3037000493ull;
        }
        for (void *h : handles)
            runtime.hfree(h);
    });

    std::thread mover([&] {
        ThreadRegistration reg(runtime);
        while (!stop.load(std::memory_order_relaxed))
            service.relocateCampaign(1 << 20);
    });

    uint64_t last_commits = 0;
    for (int i = 0; i < 40; i++) {
        tel::Snapshot snap = runtime.telemetrySnapshot();
        const uint64_t commits =
            snap.counter(tel::Counter::CampaignCommit);
        EXPECT_GE(commits, last_commits);
        last_commits = commits;
        (void)snap.histogram(tel::Hist::CampaignCopyNs).percentile(99);
        const char *path = "telemetry_test_campaign.json";
        EXPECT_TRUE(runtime.dumpTrace(path));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true, std::memory_order_relaxed);
    mutator.join();
    mover.join();
    tel::disableTracing();
    std::remove("telemetry_test_campaign.json");

    Runtime::retireConcurrentDefrag();
}

} // namespace
