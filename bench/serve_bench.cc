/**
 * @file
 * Bench-grade serving front end: open-loop tail latency per defrag
 * mode, with SLO-window attribution.
 *
 * The closed system under test is src/serve: a thread-pool KV server
 * (registered Alaska workers over one fragmented Anchorage heap) driven
 * by an open-loop Poisson load generator whose requests carry their
 * *intended* arrival times — so every defrag pause shows up, amplified
 * by queueing, in the completion latencies (no coordinated omission;
 * see src/serve/load_gen.h). An SloTracker judges fixed windows of the
 * completion stream against --slo-us and marks each violated window
 * busy or idle by whether the defrag daemon did work during it (a
 * delta of the daemon's totals), separating "the mode's defrag did it"
 * from "the server was just overloaded" (violated_idle).
 *
 * Default run: both defrag modes (stw, concurrent) under the same
 * offered load, reporting per-op p50/p99/p999, violated windows (and
 * how many had defrag idle), queue depth, steals, backpressure, and
 * the mode's recovery/pause economics. --mode=NAME runs one mode only.
 *
 * The --target-pause-us section (always part of --smoke) runs the
 * StopTheWorld load twice with an oversized per-barrier byte cap: once
 * with the pause-SLO-adaptive barrier budget targeting that pause,
 * once with the static bound. Open-loop p999 is the money metric: the
 * fixed run's long barriers turn into queueing spikes the adaptive run
 * avoids. One wall-clock run cannot tell those apart on a contended
 * host, so the smoke asserts no latency relation between them (only
 * zero lost responses); the adapter's pause bound is gated
 * deterministically by policy_test on a virtual clock. See
 * BENCH_serve.json and docs/SERVING.md for the comparison.
 *
 * Flags: --smoke (small counts + assertions for CI), --mode=NAME,
 * --rate=N (req/s), --threads=N (workers), --records=N, --ops=N,
 * --slo-us=N, --window-ms=N, --target-pause-us=N,
 * --workload=a|b|c|f, --queue-cap=N, --value-size=N, --fixed-rate
 * (constant inter-arrival instead of Poisson), --trace=FILE,
 * --out=FILE. A rate, window, SLO or pause target that is not a
 * positive number, a zero record, op, queue or value size, or fewer
 * than one worker is a usage error (exit 2): the server, load
 * generator and SLO tracker would otherwise clamp it, hang on it,
 * abort on it, or skip the section it configures.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "anchorage/control.h"
#include "base/timer.h"
#include "bench/bench_util.h"
#include "core/runtime.h"
#include "serve/load_gen.h"
#include "serve/server.h"
#include "serve/slo.h"
#include "services/concurrent_reloc_daemon.h"
#include "sim/address_space.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace
{

using namespace alaska;

struct ServeOptions
{
    int workers = 4;
    double ratePerSec = 20000;
    uint64_t records = 200000;
    uint64_t ops = 120000;
    double sloUs = 2000;
    double windowMs = 100;
    size_t queueCap = 4096;
    size_t valueSize = 300;
    ycsb::WorkloadKind kind = ycsb::WorkloadKind::A;
    bool poisson = true;
};

struct RunResult
{
    uint64_t offered = 0;
    uint64_t completed = 0;
    uint64_t lost = 0;
    double get_p50 = 0, get_p99 = 0, get_p999 = 0;
    double upd_p50 = 0, upd_p99 = 0, upd_p999 = 0;
    /** All ops merged — the number the smoke assertions compare. */
    double all_p999 = 0;
    serve::SloTracker::Totals slo;
    uint64_t maxQueueDepth = 0;
    uint64_t steals = 0;
    uint64_t backpressure = 0;
    uint64_t maxLagUs = 0;
    double wallSec = 0;
    size_t barriers = 0;
    double pauseMs = 0;
    anchorage::DefragStats totals;
    size_t batchBytesFinal = 0;
};

/** Next power of two at or above n. */
uint64_t
pow2AtLeast(uint64_t n)
{
    uint64_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/**
 * One complete serving run: fragmented heap, background daemon in the
 * given mode, open-loop load over the surviving odd keys, graceful
 * drain, SLO accounting. Mirrors tab_ycsb_latency's runMode() knobs
 * (1 MiB sub-heaps, aggressive duty cycle, 256 KiB batched barriers)
 * so the two harnesses measure the same defrag configurations.
 */
RunResult
runServe(anchorage::DefragMode mode, const ServeOptions &opt,
         const std::function<void(anchorage::ControlParams &)> &tweak =
             nullptr)
{
    RunResult result;

    RealAddressSpace space;
    anchorage::AnchorageService service(
        space,
        anchorage::AnchorageConfig{
            .subHeapBytes = 1u << 20,
            .shards = static_cast<size_t>(opt.workers)});
    Runtime runtime(RuntimeConfig{
        .tableCapacity = static_cast<uint32_t>(
            std::max<uint64_t>(1u << 22, pow2AtLeast(opt.records * 4)))});
    runtime.attachService(&service);

    serve::ServerConfig scfg;
    scfg.workers = opt.workers;
    scfg.queueCapacity = opt.queueCap;
    scfg.valueSize = opt.valueSize;
    serve::Server server(runtime, scfg);

    {
        ThreadRegistration reg(runtime);
        server.populate(opt.records);
        server.fragmentEvenKeys(opt.records);
    }

    serve::SloTracker slo(serve::SloConfig{.sloUs = opt.sloUs});
    server.setCompletionHandler(
        [&slo](const serve::Response &r) { slo.record(r); });

    anchorage::ControlParams params;
    params.mode = mode;
    params.pollInterval = 0.005;
    params.oUb = 1.0;
    params.alpha = 1.0;
    params.batchBytes = 256 << 10;
    if (tweak)
        tweak(params);
    ConcurrentRelocDaemon daemon(runtime, service, params);
    daemon.start();
    server.start();

    // Sampler: tracks peak queue depth at fine grain and closes one
    // SLO window per --window-ms, marking it busy when the daemon's
    // totals advanced during the window.
    std::atomic<bool> samplerDone{false};
    std::thread sampler([&] {
        uint64_t lastWork = 0;
        const int64_t windowUs =
            static_cast<int64_t>(opt.windowMs * 1000);
        while (!samplerDone.load(std::memory_order_acquire)) {
            int64_t sleptUs = 0;
            while (sleptUs < windowUs &&
                   !samplerDone.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
                sleptUs += 2000;
                const uint64_t depth = server.queueDepth();
                if (depth > result.maxQueueDepth)
                    result.maxQueueDepth = depth;
            }
            const anchorage::DefragStats s = daemon.totals();
            const uint64_t work = s.movedObjects + s.barriers + s.committed;
            slo.closeWindow(work != lastWork);
            lastWork = work;
        }
    });

    serve::LoadGenConfig lcfg;
    lcfg.ratePerSec = opt.ratePerSec;
    lcfg.poisson = opt.poisson;
    lcfg.totalOps = opt.ops;
    lcfg.kind = opt.kind;
    lcfg.records = opt.records / 2;
    lcfg.seed = 11;
    // Traffic stays on the odd (surviving) record ids, so the even
    // holes are defrag's to reclaim and the live set only churns in
    // place.
    lcfg.keyMap = [](uint64_t id) { return 2 * id + 1; };
    serve::LoadGen gen(server, lcfg);

    Stopwatch wall;
    gen.run();
    server.stop(); // graceful: drains every queued request
    result.wallSec = wall.elapsedSec();
    samplerDone.store(true, std::memory_order_release);
    sampler.join();
    daemon.stop();

    result.offered = gen.offered();
    result.completed = server.completed();
    result.lost =
        result.offered > result.completed
            ? result.offered - result.completed
            : 0;
    result.maxLagUs = gen.maxLagNs() / 1000;
    result.steals = server.steals();
    result.backpressure = server.backpressureWaits();
    result.slo = slo.totals();

    result.get_p50 = slo.opPercentileUs(serve::OpKind::Get, 50);
    result.get_p99 = slo.opPercentileUs(serve::OpKind::Get, 99);
    result.get_p999 = slo.opPercentileUs(serve::OpKind::Get, 99.9);
    telemetry::Histogram upd = slo.opHistogram(serve::OpKind::Set);
    upd.merge(slo.opHistogram(serve::OpKind::Rmw));
    result.upd_p50 = upd.percentile(50) / 1e3;
    result.upd_p99 = upd.percentile(99) / 1e3;
    result.upd_p999 = upd.percentile(99.9) / 1e3;
    telemetry::Histogram all = upd;
    all.merge(slo.opHistogram(serve::OpKind::Get));
    result.all_p999 = all.percentile(99.9) / 1e3;

    result.barriers = daemon.barriers();
    result.pauseMs = daemon.totalPauseSec() * 1e3;
    result.totals = daemon.totals();
    result.batchBytesFinal = daemon.batchBytesCurrent();

    {
        ThreadRegistration reg(runtime);
        server.clearStores();
    }
    return result;
}

void
printRun(const char *name, const RunResult &r, double sloUs)
{
    std::printf("--- mode=%s ---\n", name);
    auto row = [](const char *label, double v, const char *unit) {
        std::printf("%-30s %14.2f %s\n", label, v, unit);
    };
    std::printf("%-30s %14zu / %zu lost\n", "offered / lost",
                static_cast<size_t>(r.offered),
                static_cast<size_t>(r.lost));
    row("throughput",
        r.wallSec > 0
            ? static_cast<double>(r.completed) / r.wallSec / 1e3
            : 0,
        "kreq/s");
    row("get p50", r.get_p50, "us");
    row("get p99", r.get_p99, "us");
    row("get p999", r.get_p999, "us");
    row("update p999", r.upd_p999, "us");
    row("all-op p999", r.all_p999, "us");
    row("generator max lag",
        static_cast<double>(r.maxLagUs), "us");
    std::printf("%-30s %14zu of %zu (SLO %.0fus p999)\n",
                "violated windows",
                static_cast<size_t>(r.slo.violated),
                static_cast<size_t>(r.slo.windows), sloUs);
    const uint64_t busy = r.slo.violated - r.slo.violatedIdle;
    if (busy > 0)
        std::printf("%-30s %14zu windows\n", "  during defrag work",
                    static_cast<size_t>(busy));
    if (r.slo.violatedIdle > 0)
        std::printf("%-30s %14zu windows\n", "  with defrag idle",
                    static_cast<size_t>(r.slo.violatedIdle));
    row("worst window p999", r.slo.worstWindowP999Us, "us");
    std::printf("%-30s %14zu\n", "max queue depth",
                static_cast<size_t>(r.maxQueueDepth));
    std::printf("%-30s %14zu / %zu\n", "steals / backpressure",
                static_cast<size_t>(r.steals),
                static_cast<size_t>(r.backpressure));
    std::printf("%-30s %14zu\n", "stop-the-world barriers",
                r.barriers);
    row("mutator pause time", r.pauseMs, "ms");
    row("resident bytes recovered",
        static_cast<double>(r.totals.reclaimedBytes) / 1e6, "MB");
    std::printf("\n");
}

void
reportRun(bench::JsonReport &report, const std::string &prefix,
          const RunResult &r)
{
    report.add(prefix + ".offered", static_cast<double>(r.offered));
    report.add(prefix + ".completed",
               static_cast<double>(r.completed));
    report.add(prefix + ".lost", static_cast<double>(r.lost));
    report.add(prefix + ".get_p50_us", r.get_p50, "us");
    report.add(prefix + ".get_p99_us", r.get_p99, "us");
    report.add(prefix + ".get_p999_us", r.get_p999, "us");
    report.add(prefix + ".update_p50_us", r.upd_p50, "us");
    report.add(prefix + ".update_p99_us", r.upd_p99, "us");
    report.add(prefix + ".update_p999_us", r.upd_p999, "us");
    report.add(prefix + ".all_p999_us", r.all_p999, "us");
    report.add(prefix + ".windows",
               static_cast<double>(r.slo.windows));
    report.add(prefix + ".violated_windows",
               static_cast<double>(r.slo.violated));
    report.add(prefix + ".violated_idle",
               static_cast<double>(r.slo.violatedIdle));
    report.add(prefix + ".worst_window_p999_us",
               r.slo.worstWindowP999Us, "us");
    report.add(prefix + ".max_queue_depth",
               static_cast<double>(r.maxQueueDepth));
    report.add(prefix + ".steals", static_cast<double>(r.steals));
    report.add(prefix + ".backpressure",
               static_cast<double>(r.backpressure));
    report.add(prefix + ".gen_max_lag_us",
               static_cast<double>(r.maxLagUs), "us");
    report.add(prefix + ".barriers",
               static_cast<double>(r.barriers));
    report.add(prefix + ".pause_ms", r.pauseMs, "ms");
    report.add(prefix + ".moved_objects",
               static_cast<double>(r.totals.movedObjects));
    report.add(prefix + ".recovered_mb",
               static_cast<double>(r.totals.reclaimedBytes) / 1e6, "MB");
}

/** Oversized per-barrier cap for the adaptive-vs-fixed head-to-head:
 *  far above any sub-millisecond pause target, so the static bound's
 *  barriers land wherever the copy rate puts them. */
constexpr size_t kOversizedBatchBytes = 8 << 20;

/** Print the flag summary; returns the usage-error exit status. */
int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--smoke] [--mode=stw|concurrent] "
                 "[--rate=N] [--threads=N] "
                 "[--records=N] [--ops=N] [--slo-us=N] [--window-ms=N] "
                 "[--target-pause-us=N] [--workload=a|b|c|f] "
                 "[--queue-cap=N] [--value-size=N] [--fixed-rate] "
                 "[--trace=FILE] [--out=FILE]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    ServeOptions opt;
    bool smoke = false;
    std::optional<anchorage::DefragMode> only_mode;
    double target_pause_us = 0;
    const char *trace_file = nullptr;
    const char *out_file = nullptr;

    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            return arg.compare(0, std::strlen(prefix), prefix) == 0
                       ? arg.c_str() + std::strlen(prefix)
                       : nullptr;
        };
        if (arg == "--smoke") {
            smoke = true;
            opt.workers = 2;
            opt.ratePerSec = 2500;
            opt.records = 6000;
            opt.ops = 2500;
            opt.windowMs = 50;
            if (target_pause_us == 0)
                target_pause_us = 200;
        } else if (const char *v = value("--mode=")) {
            only_mode = anchorage::parseDefragMode(v);
            if (!only_mode) {
                std::fprintf(stderr,
                             "--mode= must be one of stw, concurrent\n");
                return 2;
            }
        } else if (const char *v = value("--rate=")) {
            opt.ratePerSec = std::atof(v);
            if (!(opt.ratePerSec > 0))
                return usage(argv[0]);
        } else if (const char *v = value("--threads=")) {
            opt.workers = std::atoi(v);
            if (opt.workers < 1)
                return usage(argv[0]);
        } else if (const char *v = value("--records=")) {
            opt.records = std::strtoull(v, nullptr, 10);
            if (opt.records < 1)
                return usage(argv[0]);
        } else if (const char *v = value("--ops=")) {
            opt.ops = std::strtoull(v, nullptr, 10);
            if (opt.ops < 1)
                return usage(argv[0]);
        } else if (const char *v = value("--slo-us=")) {
            opt.sloUs = std::atof(v);
            if (!(opt.sloUs > 0))
                return usage(argv[0]);
        } else if (const char *v = value("--window-ms=")) {
            opt.windowMs = std::atof(v);
            if (!(opt.windowMs > 0))
                return usage(argv[0]);
        } else if (const char *v = value("--target-pause-us=")) {
            target_pause_us = std::atof(v);
            if (!(target_pause_us > 0))
                return usage(argv[0]);
        } else if (const char *v = value("--queue-cap=")) {
            opt.queueCap = std::strtoull(v, nullptr, 10);
            if (opt.queueCap < 1)
                return usage(argv[0]);
        } else if (const char *v = value("--value-size=")) {
            // Signed parse: strtoull would wrap "-5" to a huge size.
            const long long size = std::atoll(v);
            if (size < 1)
                return usage(argv[0]);
            opt.valueSize = static_cast<size_t>(size);
        } else if (arg == "--fixed-rate") {
            opt.poisson = false;
        } else if (const char *v = value("--workload=")) {
            switch (v[0]) {
            case 'a': opt.kind = ycsb::WorkloadKind::A; break;
            case 'b': opt.kind = ycsb::WorkloadKind::B; break;
            case 'c': opt.kind = ycsb::WorkloadKind::C; break;
            case 'f': opt.kind = ycsb::WorkloadKind::F; break;
            default:
                std::fprintf(stderr,
                             "--workload= must be a, b, c or f\n");
                return 2;
            }
        } else if (value("--trace=") != nullptr) {
            trace_file = argv[i] + std::strlen("--trace=");
        } else if (const char *v = bench::outFileArg(argv[i])) {
            out_file = v;
        } else {
            return usage(argv[0]);
        }
    }

    if (trace_file != nullptr)
        telemetry::enableTracing();

    bench::JsonReport report;
    bench::JsonReport *rp = out_file ? &report : nullptr;
    std::vector<std::string> failures;

    std::printf("=== open-loop KV serving: %.0f req/s %s over %d "
                "workers, SLO p999 <= %.0fus per %.0fms window ===\n\n",
                opt.ratePerSec, opt.poisson ? "Poisson" : "fixed-rate",
                opt.workers, opt.sloUs, opt.windowMs);

    for (const anchorage::DefragMode mode :
         {anchorage::DefragMode::StopTheWorld,
          anchorage::DefragMode::Concurrent}) {
        if (only_mode && *only_mode != mode)
            continue;
        const char *name = anchorage::defragModeName(mode);
        const RunResult r = runServe(mode, opt);
        printRun(name, r, opt.sloUs);
        if (rp != nullptr)
            reportRun(*rp, name, r);
        if (smoke && r.lost != 0)
            failures.push_back(std::string("mode ") + name + ": " +
                               std::to_string(r.lost) +
                               " lost responses");
    }

    if (!only_mode && target_pause_us > 0) {
        std::printf(
            "=== adaptive barrier budget vs fixed under open-loop "
            "load: StopTheWorld, cap %zu KiB, target %.0fus ===\n\n",
            kOversizedBatchBytes >> 10, target_pause_us);
        const RunResult adaptive = runServe(
            anchorage::DefragMode::StopTheWorld, opt,
            [target_pause_us](anchorage::ControlParams &p) {
                p.batchBytes = kOversizedBatchBytes;
                p.targetBarrierPauseSec = target_pause_us * 1e-6;
            });
        const RunResult fixed = runServe(
            anchorage::DefragMode::StopTheWorld, opt,
            [](anchorage::ControlParams &p) {
                p.batchBytes = kOversizedBatchBytes;
            });
        printRun("pause.adaptive", adaptive, opt.sloUs);
        printRun("pause.fixed", fixed, opt.sloUs);
        std::printf("adaptive final batch budget %zu KiB (fixed %zu "
                    "KiB); all-op p999 %.0fus adaptive vs %.0fus "
                    "fixed\n\n",
                    adaptive.batchBytesFinal >> 10,
                    fixed.batchBytesFinal >> 10, adaptive.all_p999,
                    fixed.all_p999);
        if (rp != nullptr) {
            reportRun(*rp, "pause.adaptive", adaptive);
            reportRun(*rp, "pause.fixed", fixed);
            rp->add("pause.target_us", target_pause_us, "us");
        }
        // The p999 head-to-head is advisory: one wall-clock run on a
        // contended host cannot separate a working adapter from a
        // broken one (policy_test gates the adapter on a virtual
        // clock), so the smoke holds these runs to lost responses only.
        if (smoke && (adaptive.lost != 0 || fixed.lost != 0))
            failures.push_back("pause section lost responses");
    }

    if (trace_file != nullptr) {
        if (!telemetry::dumpTrace(trace_file)) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         trace_file);
            return 1;
        }
        std::printf("wrote Chrome trace to %s\n", trace_file);
    }
    if (out_file != nullptr &&
        !report.writeTo(out_file, "serve_bench"))
        return 1;

    if (smoke) {
        if (failures.empty()) {
            std::printf("SMOKE PASS: zero lost responses in every "
                        "run\n");
        } else {
            for (const std::string &f : failures)
                std::printf("SMOKE FAIL: %s\n", f.c_str());
            return 1;
        }
    }
    return 0;
}
