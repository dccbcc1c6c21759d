/**
 * @file
 * kv-serve and kv-defrag: open-loop Poisson YCSB-A traffic (50% get,
 * 50% set, zipfian keys) into a 2-worker serve::Server at a fixed rate
 * well below saturation, with a Concurrent-mode daemon running.
 *
 * Both serve the same live records (the odd record ids below
 * 2 * kLiveRecords) and the same request stream. kv-serve loads only
 * the live records, so the heap is unfragmented and the daemon has
 * nothing to move: it isolates the request path. kv-defrag loads
 * twice the records and deletes every other one before traffic
 * (fragmentation about 2.0), so the daemon's campaigns compact while
 * requests are served.
 *
 * Threads: the calling thread is the generator (and samples RSS and
 * fragmentation in the gaps of the schedule), plus two workers and the
 * daemon: four, the host's nproc. The generator spins between sends
 * rather than sleeping: a timer wake-up would make sends late, and the
 * idle spinners (common.h) keep every CPU busy anyway.
 */

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "anchorage/control.h"
#include "api/access.h"
#include "common.h"
#include "core/runtime.h"
#include "layers.h"
#include "serve/server.h"
#include "services/concurrent_reloc_daemon.h"
#include "sim/address_space.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "ycsb/ycsb.h"

namespace repobench
{

namespace
{

using namespace alaska;

constexpr uint64_t kLiveRecords = 100000;
constexpr size_t kValueSize = 300;
constexpr int kWorkers = 2;
constexpr double kRatePerSec = 20000;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 5;
/** RSS / fragmentation sampling cadence. */
constexpr uint64_t kSampleEveryNs = 10'000'000;
/** The generator samples only when the next send is at least this far
 *  away, so sampling never makes a send late. */
constexpr uint64_t kIdleWindowNs = 150'000;
constexpr uint64_t kUnset = ~uint64_t(0);

/** The precomputed offered load: one entry per request. */
struct Schedule
{
    std::vector<uint64_t> offsetNs;
    std::vector<uint64_t> key;
    std::vector<serve::OpKind> op;
};

Schedule
makeSchedule(uint64_t seed, double seconds)
{
    SplitMix arrivals(mix64(seed ^ 0xa11));
    SplitMix mixer(mix64(seed ^ 0xb22));
    Zipfian zipf(kLiveRecords, mix64(seed ^ 0xc33));
    const double meanGapNs = 1e9 / kRatePerSec;
    const double horizonNs = seconds * 1e9;
    Schedule s;
    double t = 0;
    for (;;) {
        t += -std::log(1.0 - arrivals.real()) * meanGapNs;
        if (t >= horizonNs)
            break;
        s.offsetNs.push_back(static_cast<uint64_t>(t));
        // Traffic stays on the odd record ids: the ones both
        // workloads keep live.
        s.key.push_back(2 * zipf.next() + 1);
        s.op.push_back(mixer.real() < 0.5 ? serve::OpKind::Get
                                          : serve::OpKind::Set);
    }
    return s;
}

/** One set-up's heap and server, destroyed in reverse order. */
struct KvHeap
{
    RealAddressSpace space;
    anchorage::AnchorageService service{
        space, anchorage::AnchorageConfig{.subHeapBytes = 1u << 20,
                                          .shards = kWorkers}};
    Runtime runtime{RuntimeConfig{.tableCapacity = 1u << 22}};
    std::unique_ptr<serve::Server> server;

    KvHeap()
    {
        runtime.attachService(&service);
        serve::ServerConfig cfg;
        cfg.workers = kWorkers;
        cfg.queueCapacity = 4096;
        cfg.valueSize = kValueSize;
        server = std::make_unique<serve::Server>(runtime, cfg);
    }
};

/** Load the records; the timed part of set-up. */
double
load(KvHeap &h, bool fragmented)
{
    ThreadRegistration reg(h.runtime);
    const uint64_t t0 = nowNs();
    if (fragmented) {
        h.server->populate(2 * kLiveRecords);
        h.server->fragmentEvenKeys(2 * kLiveRecords);
    } else {
        for (uint64_t id = 1; id < 2 * kLiveRecords; id += 2)
            h.server->shard(h.server->shardOf(id))
                .set(ycsb::Workload::keyFor(id), h.server->valueFor(id));
    }
    return static_cast<double>(nowNs() - t0) / 1e9;
}

void
clearStores(KvHeap &h)
{
    ThreadRegistration reg(h.runtime);
    h.server->clearStores();
}

/**
 * Check every record after the run: each live id must hold exactly its
 * deterministic value (sets rewrite the same contents), each deleted id
 * must stay absent. The daemon is stopped but still declared, so reads
 * go through access_scope like the workers' do.
 */
void
verifyRecords(KvHeap &h, Result &r)
{
    ThreadRegistration reg(h.runtime);
    uint64_t checked = 0, missing = 0, wrong = 0, resurrected = 0;
    for (uint64_t id = 0; id < 2 * kLiveRecords; id++) {
        const bool live = (id & 1) != 0;
        std::optional<std::string> got;
        {
            access_scope scope;
            got = h.server->shard(h.server->shardOf(id))
                      .get(ycsb::Workload::keyFor(id));
        }
        checked++;
        if (live && !got)
            missing++;
        else if (live && *got != h.server->valueFor(id))
            wrong++;
        else if (!live && got)
            resurrected++;
    }
    r.attempted += checked;
    r.fail(missing, "live record missing after the run");
    r.fail(wrong, "record value does not match its key");
    r.fail(resurrected, "deleted record present after the run");
}

Result
runKv(const Options &opt, bool fragmented)
{
    Result r;
    Layers layers;
    const Schedule sched = makeSchedule(opt.seed, opt.seconds);
    const size_t n = sched.offsetNs.size();

    std::vector<double> setups;
    std::unique_ptr<KvHeap> heap;
    for (int rep = 0; rep < kSetupReps; rep++) {
        if (heap) {
            clearStores(*heap);
            heap.reset(); // one Runtime per process at a time
        }
        heap = std::make_unique<KvHeap>();
        setups.push_back(load(*heap, fragmented));
    }
    KvHeap &h = *heap;
    serve::Server &server = *h.server;

    // Paced as serve_bench paces its daemon.
    anchorage::ControlParams params;
    params.mode = anchorage::DefragMode::Concurrent;
    params.pollInterval = 0.005;
    params.oUb = 1.0;
    params.alpha = 1.0;
    params.batchBytes = 256 << 10;
    ConcurrentRelocDaemon daemon(h.runtime, h.service, params);

    std::unique_ptr<std::atomic<uint64_t>[]> latency(
        new std::atomic<uint64_t>[n]);
    for (size_t i = 0; i < n; i++)
        latency[i].store(kUnset, std::memory_order_relaxed);
    std::atomic<uint64_t> duplicates{0}, wrongOp{0}, misses{0};
    // Written before the first submit; workers read it only for
    // requests they popped, which the queue mutex orders after it.
    uint64_t t0 = 0;
    server.setCompletionHandler([&](const serve::Response &resp) {
        const uint64_t now = nowNs();
        if (resp.id >= n) {
            wrongOp.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        const uint64_t intended = t0 + sched.offsetNs[resp.id];
        const uint64_t lat = now > intended ? now - intended : 0;
        if (latency[resp.id].exchange(lat, std::memory_order_relaxed) !=
            kUnset)
            duplicates.fetch_add(1, std::memory_order_relaxed);
        if (resp.op != sched.op[resp.id])
            wrongOp.fetch_add(1, std::memory_order_relaxed);
        if (resp.op == serve::OpKind::Get && !resp.hit)
            misses.fetch_add(1, std::memory_order_relaxed);
    });

    std::vector<uint64_t> submitNs(n), lateNs(n);
    std::vector<double> rss, frag, modelRss;
    double recoverS = -1;
    uint64_t refused = 0;
    size_t maxDepth = 0;
    auto sample = [&](uint64_t now) {
        rss.push_back(kernelRssMb());
        modelRss.push_back(static_cast<double>(h.service.rss()) / 1e6);
        const double f = h.service.fragmentation();
        frag.push_back(f);
        if (recoverS < 0 && f <= params.fLb)
            recoverS = static_cast<double>(now - t0) / 1e9;
    };

    IdleSpinners spinners;
    telemetry::reset();
    const RuntimeStats stats0 = h.runtime.stats();
    const bool traced = !opt.traceFile.empty();
    if (traced)
        telemetry::enableTracing(n + 65536);
    const double cpu0 = processCpuSec();
    const double gen0 = threadCpuSec();
    const double steal0 = hostStealSec();
    {
        const uint64_t b = nowNs();
        daemon.start();
        telemetry::traceComplete("daemon_start", b, nowNs());
    }
    server.start();

    t0 = nowNs() + 2'000'000;
    uint64_t nextSample = t0;
    for (size_t i = 0; i < n; i++) {
        const uint64_t due = t0 + sched.offsetNs[i];
        for (uint64_t now = nowNs(); now < due; now = nowNs()) {
            if (now >= nextSample && due - now >= kIdleWindowNs) {
                sample(now);
                while (nextSample <= now)
                    nextSample += kSampleEveryNs;
            }
        }
        serve::Request req;
        req.id = i;
        req.op = sched.op[i];
        req.key = sched.key[i];
        req.intendedNs = due;
        const uint64_t s1 = nowNs();
        const bool accepted = server.submit(req);
        const uint64_t s2 = nowNs();
        telemetry::traceComplete("submit", s1, s2);
        submitNs[i] = s2 - s1;
        lateNs[i] = s1 - due;
        if (!accepted)
            refused++;
        maxDepth = std::max(maxDepth, server.queueDepth());
    }
    sample(nowNs());
    server.stop(); // drains every queued request
    const uint64_t drainEnd = nowNs();
    {
        const uint64_t b = nowNs();
        daemon.stop();
        telemetry::traceComplete("daemon_stop", b, nowNs());
    }
    const double spinSec = spinners.stop();
    const double cpu1 = processCpuSec() - spinSec;
    const double gen1 = threadCpuSec();
    const double steal1 = hostStealSec();
    if (traced)
        telemetry::disableTracing();

    std::vector<uint64_t> gets, sets;
    for (size_t i = 0; i < n; i++) {
        const uint64_t lat = latency[i].load(std::memory_order_relaxed);
        if (lat == kUnset)
            continue;
        (sched.op[i] == serve::OpKind::Get ? gets : sets).push_back(lat);
    }
    const uint64_t completed = gets.size() + sets.size();
    r.attempted += n;
    r.fail(refused, "request refused by submit");
    r.fail(n - refused - completed, "request lost");
    r.fail(duplicates.load(), "request completed twice");
    r.fail(wrongOp.load(), "response for the wrong request");
    r.fail(misses.load(), "get missed a live key");

    const double phaseSec = static_cast<double>(drainEnd - t0) / 1e9;
    const double cpuSec = (cpu1 - cpu0) - (gen1 - gen0);
    const double ops = static_cast<double>(std::max<uint64_t>(completed, 1));
    if (recoverS < 0)
        recoverS = phaseSec; // never reached fLb: censored at the run
    r.e2e = {
        {"setup_s", median(setups), "s"},
        {"get_p50_us", percentile(gets, 50) / 1e3, "us"},
        {"set_p50_us", percentile(sets, 50) / 1e3, "us"},
        {"ops_mops", static_cast<double>(completed) / phaseSec / 1e6,
         "M/s"},
        {"cpu_us_per_op", cpuSec / ops * 1e6, "us"},
        {"rss_mb", mean(rss), "MB"},
        {"frag_mean", mean(frag), "ratio"},
    };

    layers.submitUsP50 = percentile(submitNs, 50) / 1e3;
    layers.submitUsP99 = percentile(submitNs, 99) / 1e3;
    layers.queueDepthMax = static_cast<double>(maxDepth);
    layers.steals = static_cast<double>(server.steals());
    layers.backpressure = static_cast<double>(server.backpressureWaits());
    layers.lateUsP99 = percentile(lateNs, 99) / 1e3;
    layers.lateUsMax = percentile(lateNs, 100) / 1e3;
    layers.getP99 = percentile(gets, 99) / 1e3;
    layers.getP999 = percentile(gets, 99.9) / 1e3;
    layers.setP99 = percentile(sets, 99) / 1e3;
    layers.setP999 = percentile(sets, 99.9) / 1e3;
    layers.requests = static_cast<double>(completed);
    layers.recoverS = recoverS;
    layers.stealS = steal1 - steal0;
    layers.cpuS = cpu1 - cpu0;
    layers.collect(h.runtime, h.service, daemon, stats0, ops, modelRss);
    layers.emit(r);

    verifyRecords(h, r);
    clearStores(h);
    return r;
}

} // namespace

Result
runKvServe(const Options &opt)
{
    return runKv(opt, /*fragmented=*/false);
}

Result
runKvDefrag(const Options &opt)
{
    return runKv(opt, /*fragmented=*/true);
}

} // namespace repobench
