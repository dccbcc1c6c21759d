/**
 * @file
 * cache-churn: a closed loop. Three threads each insert fresh keys into
 * their own LRU-bounded MiniKv<AlaskaAlloc>, so every insert past the
 * fill also evicts. Value sizes drift across phases as in the Figure 9
 * cache workload, which is what fragments the heap; every fourth
 * insert reads back a key inserted kReadBack inserts earlier and checks
 * its contents. Each thread polls a safepoint per insert, and a
 * StopTheWorld daemon runs batched barriers, polled every 5 ms and
 * allowed half the time (oUb 0.5) so that hundreds of barriers land per
 * run: with the paper's 0.5 s poll and 5% budget only a few dozen do,
 * the heap never reaches a steady state, and throughput and RSS swing
 * with where the barriers fall.
 *
 * No serving layer is involved: this stresses the allocator miss path
 * and the barrier mechanism, which the kv workloads never run.
 *
 * Threads: three inserters and the daemon; the calling thread only
 * samples RSS every 10 ms, and the idle spinners (common.h) fill idle
 * CPU time.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "anchorage/control.h"
#include "common.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "kv/alloc_policy.h"
#include "kv/minikv.h"
#include "layers.h"
#include "services/concurrent_reloc_daemon.h"
#include "sim/address_space.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace repobench
{

namespace
{

using namespace alaska;
using Store = kv::MiniKv<kv::AlaskaAlloc>;

constexpr int kThreads = 3;
constexpr size_t kMaxMemoryPerThread = 32u << 20;
constexpr size_t kBaseValue = 500;
/** Inserts per thread per drift phase. */
constexpr uint64_t kDriftPeriod = 20000;
/** Figure 9's size-mix cycle. */
constexpr double kScales[] = {1.0, 0.6, 1.4, 0.8, 1.8, 1.2, 0.5, 1.6};
constexpr uint64_t kCycle = 8 * kDriftPeriod;
constexpr size_t kMaxValue = static_cast<size_t>(kBaseValue * 1.8 * 1.15) + 1;
constexpr size_t kPoolBytes = 1u << 20;
constexpr int kSetupReps = 5;
/** Every kSampleEvery-th insert (and its read-back) is timed. */
constexpr uint64_t kSampleEvery = 16;
constexpr uint64_t kReadEvery = 4;
constexpr uint64_t kReadBack = 64;
/** Keys each thread reads back after the run. */
constexpr uint64_t kFinalCheck = 1000;
constexpr auto kSamplePeriod = std::chrono::milliseconds(10);

/** Thread phases, advanced by the calling thread. */
enum Phase : int
{
    kIdle,
    kFill,
    kChurn,
    kStop,
    kVerify,
};

/** The benchmark's seeded inputs: per-thread value sizes over one
 *  drift cycle and value offsets into a shared random pool. */
struct Inputs
{
    std::string pool;
    std::vector<uint16_t> size[kThreads];
    std::vector<uint32_t> offset[kThreads];

    explicit Inputs(uint64_t seed)
    {
        SplitMix rng(mix64(seed ^ 0xcace));
        pool.resize(kPoolBytes);
        for (char &c : pool)
            c = static_cast<char>('a' + rng.next() % 26);
        for (int t = 0; t < kThreads; t++) {
            size[t].resize(kCycle);
            offset[t].resize(kCycle);
            for (uint64_t i = 0; i < kCycle; i++) {
                const double scale = kScales[i / kDriftPeriod];
                size[t][i] = static_cast<uint16_t>(
                    kBaseValue * scale * (0.85 + 0.3 * rng.real()));
                offset[t][i] = static_cast<uint32_t>(
                    rng.next() % (kPoolBytes - kMaxValue));
            }
        }
    }

    std::string_view
    value(int t, uint64_t seq) const
    {
        const uint64_t i = seq % kCycle;
        return std::string_view(pool).substr(offset[t][i], size[t][i]);
    }
};

/** Fixed 16-byte key: thread tag plus the insert sequence in hex. */
struct Key
{
    char bytes[16];

    Key(int t, uint64_t seq)
    {
        bytes[0] = 'c';
        bytes[1] = static_cast<char>('0' + t);
        for (int i = 15; i >= 2; i--, seq >>= 4)
            bytes[i] = "0123456789abcdef"[seq & 15];
    }

    std::string_view view() const { return {bytes, sizeof(bytes)}; }
};

/** One inserter's counters; written by its thread, read after join. */
struct ThreadOut
{
    uint64_t fillEndNs = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t reads = 0, readMisses = 0, readWrong = 0;
    uint64_t finalMissing = 0, finalWrong = 0;
    std::vector<uint64_t> setNs, getNs;
};

/** One set-up's heap, destroyed in reverse order. */
struct ChurnHeap
{
    RealAddressSpace space;
    anchorage::AnchorageService service{
        space, anchorage::AnchorageConfig{.subHeapBytes = 1u << 20,
                                          .shards = kThreads}};
    Runtime runtime{RuntimeConfig{.tableCapacity = 1u << 22}};
    kv::AlaskaAlloc alloc{runtime};

    ChurnHeap() { runtime.attachService(&service); }
};

/** Park in external mode until phase reaches target: a parked
 *  inserter must never hold up a barrier. */
void
awaitPhase(Runtime &runtime, const std::atomic<int> &phase, int target)
{
    runtime.enterExternal();
    while (phase.load(std::memory_order_acquire) < target)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    runtime.leaveExternal();
}

void
inserter(ChurnHeap &h, const Inputs &in, int t, std::atomic<int> &phase,
         std::atomic<int> &arrived, ThreadOut &out)
{
    ThreadRegistration reg(h.runtime);
    Store store(h.alloc, kMaxMemoryPerThread);
    uint64_t seq = 0;
    arrived.fetch_add(1, std::memory_order_acq_rel);
    awaitPhase(h.runtime, phase, kFill);

    // Fill: insert until the first eviction, i.e. the cache is full.
    while (store.stats().evictions == 0) {
        store.set(Key(t, seq).view(), in.value(t, seq));
        seq++;
    }
    out.fillEndNs = nowNs();
    arrived.fetch_add(1, std::memory_order_acq_rel);
    awaitPhase(h.runtime, phase, kChurn);

    if (phase.load(std::memory_order_acquire) == kChurn) {
        const uint64_t evictions0 = store.stats().evictions;
        out.setNs.reserve(1u << 20);
        out.getNs.reserve(1u << 18);
        while (phase.load(std::memory_order_relaxed) == kChurn) {
            const bool timed = seq % kSampleEvery == 0;
            const Key key(t, seq);
            if (timed) {
                const uint64_t a = nowNs();
                store.set(key.view(), in.value(t, seq));
                const uint64_t b = nowNs();
                telemetry::traceComplete("kv_set", a, b);
                out.setNs.push_back(b - a);
            } else {
                store.set(key.view(), in.value(t, seq));
            }
            if (seq % kReadEvery == 0) {
                const uint64_t back = seq - kReadBack;
                const uint64_t a = timed ? nowNs() : 0;
                const std::optional<std::string> got =
                    store.get(Key(t, back).view());
                if (timed)
                    out.getNs.push_back(nowNs() - a);
                out.reads++;
                if (!got)
                    out.readMisses++;
                else if (*got != in.value(t, back))
                    out.readWrong++;
            }
            seq++;
            out.inserts++;
            poll();
        }
        out.evictions = store.stats().evictions - evictions0;
        arrived.fetch_add(1, std::memory_order_acq_rel);
        awaitPhase(h.runtime, phase, kVerify);
    }

    // Read back the newest keys: LRU must have kept them, intact.
    for (uint64_t back = seq - kFinalCheck; back < seq; back++) {
        const std::optional<std::string> got = store.get(Key(t, back).view());
        if (!got)
            out.finalMissing++;
        else if (*got != in.value(t, back))
            out.finalWrong++;
    }
    store.clear();
}

void
waitArrived(const std::atomic<int> &arrived, int target)
{
    while (arrived.load(std::memory_order_acquire) < target)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
}

/** Releases and joins the inserters on every exit from a set-up's
 *  scope, so none outlives the heap and counters it uses. */
class InserterJoin
{
  public:
    InserterJoin(std::atomic<int> &phase, std::vector<std::thread> &threads)
        : phase_(phase), threads_(threads)
    {
    }

    ~InserterJoin()
    {
        phase_.store(kVerify, std::memory_order_release);
        for (std::thread &th : threads_)
            if (th.joinable())
                th.join();
    }

    InserterJoin(const InserterJoin &) = delete;
    InserterJoin &operator=(const InserterJoin &) = delete;

  private:
    std::atomic<int> &phase_;
    std::vector<std::thread> &threads_;
};

} // namespace

Result
runCacheChurn(const Options &opt)
{
    Result r;
    Layers layers;
    const Inputs in(opt.seed);
    std::vector<double> setups;

    for (int rep = 0; rep < kSetupReps; rep++) {
        const bool measured = rep + 1 == kSetupReps;
        ChurnHeap h;
        std::atomic<int> phase{kIdle}, arrived{0};
        std::vector<ThreadOut> out(kThreads);
        std::vector<std::thread> threads;
        InserterJoin join{phase, threads};
        for (int t = 0; t < kThreads; t++)
            threads.emplace_back(inserter, std::ref(h), std::cref(in), t,
                                 std::ref(phase), std::ref(arrived),
                                 std::ref(out[t]));
        waitArrived(arrived, kThreads);
        const uint64_t fill0 = nowNs();
        phase.store(kFill, std::memory_order_release);
        waitArrived(arrived, 2 * kThreads);
        uint64_t fillEnd = 0;
        for (const ThreadOut &o : out)
            fillEnd = std::max(fillEnd, o.fillEndNs);
        setups.push_back(static_cast<double>(fillEnd - fill0) / 1e9);

        if (!measured)
            continue;

        anchorage::ControlParams params;
        params.mode = anchorage::DefragMode::StopTheWorld;
        params.pollInterval = 0.005;
        params.oUb = 0.5;
        params.batchBytes = 256 << 10;
        ConcurrentRelocDaemon daemon(h.runtime, h.service, params);

        IdleSpinners spinners;
        telemetry::reset();
        const RuntimeStats stats0 = h.runtime.stats();
        const bool traced = !opt.traceFile.empty();
        if (traced)
            telemetry::enableTracing(1u << 20);
        const double cpu0 = processCpuSec();
        const double main0 = threadCpuSec();
        const double steal0 = hostStealSec();
        {
            const uint64_t b = nowNs();
            daemon.start();
            telemetry::traceComplete("daemon_start", b, nowNs());
        }
        const uint64_t go = nowNs();
        phase.store(kChurn, std::memory_order_release);

        std::vector<double> rss, frag, modelRss;
        const uint64_t endNs = go + static_cast<uint64_t>(opt.seconds * 1e9);
        while (nowNs() < endNs) {
            std::this_thread::sleep_for(kSamplePeriod);
            rss.push_back(kernelRssMb());
            modelRss.push_back(static_cast<double>(h.service.rss()) / 1e6);
            frag.push_back(h.service.fragmentation());
        }
        phase.store(kStop, std::memory_order_release);
        waitArrived(arrived, 3 * kThreads);
        const uint64_t stop = nowNs();
        {
            const uint64_t b = nowNs();
            daemon.stop();
            telemetry::traceComplete("daemon_stop", b, nowNs());
        }
        const double spinSec = spinners.stop();
        const double cpu1 = processCpuSec() - spinSec;
        const double main1 = threadCpuSec();
        const double steal1 = hostStealSec();
        if (traced)
            telemetry::disableTracing();

        uint64_t inserts = 0, evictions = 0;
        std::vector<uint64_t> sets, gets;
        for (const ThreadOut &o : out) {
            inserts += o.inserts;
            evictions += o.evictions;
            sets.insert(sets.end(), o.setNs.begin(), o.setNs.end());
            gets.insert(gets.end(), o.getNs.begin(), o.getNs.end());
        }
        const double phaseSec = static_cast<double>(stop - go) / 1e9;
        const double ops = static_cast<double>(std::max<uint64_t>(inserts, 1));
        const double cpuSec = (cpu1 - cpu0) - (main1 - main0);
        r.e2e = {
            {"setup_s", median(setups), "s"},
            {"get_p50_us", percentile(gets, 50) / 1e3, "us"},
            {"set_p50_us", percentile(sets, 50) / 1e3, "us"},
            {"ops_mops", static_cast<double>(inserts) / phaseSec / 1e6,
             "M/s"},
            {"cpu_us_per_op", cpuSec / ops * 1e6, "us"},
            {"rss_mb", mean(rss), "MB"},
            {"frag_mean", mean(frag), "ratio"},
        };

        layers.insertP99 = percentile(sets, 99) / 1e3;
        layers.insertP999 = percentile(sets, 99.9) / 1e3;
        layers.insertsSampled = static_cast<double>(sets.size());
        layers.evictions = static_cast<double>(evictions);
        layers.stealS = steal1 - steal0;
        layers.cpuS = cpu1 - cpu0;
        layers.collect(h.runtime, h.service, daemon, stats0, ops, modelRss);
        layers.emit(r);

        phase.store(kVerify, std::memory_order_release);
        for (std::thread &th : threads)
            th.join();
        uint64_t reads = 0;
        for (const ThreadOut &o : out) {
            reads += o.reads;
            r.fail(o.readMisses, "read-back missed a live key");
            r.fail(o.readWrong, "read-back value does not match its key");
            r.fail(o.finalMissing, "newest key missing after the run");
            r.fail(o.finalWrong, "newest key holds the wrong value");
        }
        r.attempted += inserts + reads + kThreads * kFinalCheck;
    }
    return r;
}

} // namespace repobench
