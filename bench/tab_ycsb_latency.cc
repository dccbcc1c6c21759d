/**
 * @file
 * §5.5 "Response latency": YCSB latencies against the minikv store.
 *
 * Two experiments:
 *
 *  1. Single-thread overhead (the paper's table): baseline (libc
 *     malloc, raw pointers) vs Alaska+Anchorage. The paper reports
 *     ~13% overhead on workload-A reads and ~17% on workload-F updates.
 *
 *  2. Multi-threaded tail latency under defragmentation (the "millions
 *     of users" scaling story): N mutator threads run YCSB-A against
 *     minikv stores over one fragmented Anchorage heap while the
 *     background relocation daemon defragments, in three columns:
 *     StopTheWorld (every pass a barrier) and Concurrent (paper §7
 *     campaigns, zero barriers) at the configured shard count, plus
 *     Concurrent at shards=1. Reports p50/p99/p999 read and update
 *     latency side by side, the abort/commit ratio, and the
 *     fragmentation recovered by each column.
 *
 *     CLOSED-LOOP CAVEAT: each mutator issues its next operation only
 *     after the previous one returns, so a thread stalled behind a
 *     stop-the-world barrier issues *nothing* during the pause — the
 *     operations that would have queued up never exist, and the
 *     percentiles here understate the pause's impact on an arrival
 *     stream (coordinated omission). These numbers measure per-
 *     operation service time under defrag, which is exactly what the
 *     paper's table reports; for pause-honest tail latency under an
 *     open-loop arrival process (intended-send timestamps, queueing
 *     included), use bench/serve_bench.cc.
 *
 *     Latencies are recorded into one telemetry::Histogram per thread
 *     and merged after the join: means are exact, tail percentiles
 *     bucket-resolution (within 2x, never above the largest sample).
 *     Single-mode runs and the adaptive-vs-fixed barrier budget live
 *     in serve_bench, under open-loop load.
 *
 * Flags: --smoke (tiny counts for CI), --threads=N (at least 1),
 * --shards=N (Anchorage shard count for the multi-thread section,
 * default 8; a Concurrent run at shards=1 is always included as the
 * pre-shard baseline column), --records=N, --ops=N (single-thread
 * section, each at least 1), --mrecords=N --mops=N (per-thread,
 * multi-thread section; --mrecords at least 2, since the mutators
 * drive its surviving half, --mops at least 1),
 * --single-only, --multi-only, --telemetry (print the runtime
 * telemetry snapshot after the run), --trace=FILE (record the defrag
 * pipeline's trace events and export Chrome trace-event JSON, viewable
 * at ui.perfetto.dev — see docs/OBSERVABILITY.md).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "anchorage/control.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "api/api.h"
#include "base/timer.h"
#include "bench/bench_util.h"
#include "kv/alloc_policy.h"
#include "kv/minikv.h"
#include "services/concurrent_reloc_daemon.h"
#include "sim/address_space.h"
#include "telemetry/histogram.h"
#include "ycsb/ycsb.h"

namespace
{

using namespace alaska;
using namespace alaska::kv;

struct Latencies
{
    double read_us = 0;
    double update_us = 0;
};

template <typename A>
Latencies
runWorkloads(A &alloc, uint64_t records, uint64_t ops)
{
    Latencies out;
    MiniKv<A> kv(alloc);
    {
        ycsb::Workload load_def(ycsb::WorkloadKind::A, records, 3, 500);
        for (uint64_t id = 0; id < records; id++) {
            kv.set(ycsb::Workload::keyFor(id), load_def.valueFor(id));
        }
    }
    // Workload A: measure read latency; F: update (RMW) latency.
    for (auto kind : {ycsb::WorkloadKind::A, ycsb::WorkloadKind::F}) {
        ycsb::Workload workload(kind, records, 17, 500);
        telemetry::Histogram reads, updates;
        for (uint64_t i = 0; i < ops; i++) {
            const ycsb::Request request = workload.next();
            const std::string key =
                ycsb::Workload::keyFor(request.key);
            Stopwatch watch;
            switch (request.op) {
              case ycsb::OpType::Read:
                kv.get(key);
                reads.record(watch.elapsedNs());
                break;
              case ycsb::OpType::Update:
              case ycsb::OpType::Insert:
                kv.set(key, workload.valueFor(request.key));
                break;
              case ycsb::OpType::ReadModifyWrite: {
                auto value = kv.get(key);
                std::string modified = value.value_or(
                    std::string(workload.valueSize(), 'x'));
                modified[0] ^= 1;
                kv.set(key, modified);
                updates.record(watch.elapsedNs());
                break;
              }
            }
        }
        if (kind == ycsb::WorkloadKind::A)
            out.read_us = reads.mean() / 1e3;
        else
            out.update_us = updates.mean() / 1e3;
    }
    return out;
}

void
runSingleThreadSection(uint64_t records, uint64_t ops,
                       alaska::bench::JsonReport *report)
{
    std::printf("=== par.5.5 response latency: YCSB on minikv, "
                "baseline vs Alaska+Anchorage ===\n\n");

    Latencies baseline;
    {
        LibcAlloc alloc;
        baseline = runWorkloads(alloc, records, ops);
    }

    Latencies alaska_lat;
    {
        RealAddressSpace space;
        anchorage::AnchorageService service(space);
        Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 22});
        runtime.attachService(&service);
        ThreadRegistration reg(runtime);
        AlaskaAlloc alloc(runtime);
        alaska_lat = runWorkloads(alloc, records, ops);
    }

    std::printf("%-26s %12s %12s %10s %10s\n", "metric", "baseline",
                "anchorage", "overhead", "delta");
    std::printf("%-26s %10.2fus %10.2fus %9.1f%% %8.0fns\n",
                "YCSB-A read latency", baseline.read_us,
                alaska_lat.read_us,
                (alaska_lat.read_us / baseline.read_us - 1) * 100,
                (alaska_lat.read_us - baseline.read_us) * 1e3);
    std::printf("%-26s %10.2fus %10.2fus %9.1f%% %8.0fns\n",
                "YCSB-F update latency", baseline.update_us,
                alaska_lat.update_us,
                (alaska_lat.update_us / baseline.update_us - 1) * 100,
                (alaska_lat.update_us - baseline.update_us) * 1e3);
    if (report != nullptr) {
        report->add("single.baseline_read_us", baseline.read_us, "us");
        report->add("single.baseline_update_us", baseline.update_us,
                    "us");
        report->add("single.anchorage_read_us", alaska_lat.read_us,
                    "us");
        report->add("single.anchorage_update_us", alaska_lat.update_us,
                    "us");
    }
    std::printf("\npaper: ~13%% on reads (workload A), ~17%% on "
                "updates (workload F) — translation plus the\n"
                "lower-throughput Anchorage allocator. NOTE: the paper "
                "measures client latency over loopback\n"
                "(tens of us per request), while this harness measures "
                "the in-process operation (sub-us), so\n"
                "the same absolute slowdown (the delta column) shows "
                "up as a much larger percentage here.\n\n");
}

// --- multi-threaded tail latency under background defrag -------------------

struct ModeResult
{
    double frag_before = 0;
    double frag_after = 0;
    /** Lowest fragmentation sampled while the mutators ran. */
    double frag_min = 0;
    /** Fraction of run samples at or below the controller's F_lb. */
    double frag_below_lb = 0;
    double read_p50 = 0, read_p99 = 0, read_p999 = 0;
    double update_p50 = 0, update_p99 = 0, update_p999 = 0;
    double wall_sec = 0;
    uint64_t total_ops = 0;
    uint64_t barriers = 0;
    size_t passes = 0;
    double pause_sec = 0;
    /** Per-barrier pause tail of the batched passes (milliseconds). */
    double max_barrier_ms = 0;
    double p99_barrier_ms = 0;
    anchorage::DefragStats totals;
};

/** Per-barrier move bound the harness runs with (ControlParams::batchBytes). */
constexpr size_t kBatchBytes = 256 << 10;

/**
 * One store per mutator thread (minikv is single-writer), all over one
 * shared Anchorage heap, which is what the daemon defragments. The
 * stores are loaded and then half their keys deleted, leaving the heap
 * above F_ub; the mutators then run YCSB-A over the surviving (odd)
 * keys while the daemon reclaims the holes.
 */
ModeResult
runMode(anchorage::DefragMode mode, int threads, size_t shards,
        uint64_t records_per_thread, uint64_t ops_per_thread)
{
    using Store = MiniKv<AlaskaAlloc>;
    ModeResult result;

    // 1 MiB sub-heaps: with N shards the heap holds ~N partially
    // filled bump segments (one per active chain), and that slack is
    // extent the controller can never trim. Finer segments keep the
    // per-shard slack small relative to the live set, so the sharded
    // configurations can reach the same F_lb floor the single chain
    // does (docs/TUNING.md, "subHeapBytes").
    RealAddressSpace space;
    anchorage::AnchorageService service(
        space, anchorage::AnchorageConfig{.subHeapBytes = 1u << 20,
                                          .shards = shards});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 22});
    runtime.attachService(&service);
    AlaskaAlloc alloc(runtime);

    std::vector<std::unique_ptr<Store>> stores;
    {
        ThreadRegistration reg(runtime);
        ycsb::Workload loader(ycsb::WorkloadKind::A, records_per_thread,
                              3, 500);
        for (int t = 0; t < threads; t++) {
            stores.push_back(std::make_unique<Store>(alloc));
            for (uint64_t id = 0; id < records_per_thread; id++) {
                stores.back()->set(ycsb::Workload::keyFor(id),
                                   loader.valueFor(id));
            }
        }
        // Fragment: delete the even half of every store's keyspace.
        for (auto &store : stores) {
            for (uint64_t id = 0; id < records_per_thread; id += 2)
                store->del(ycsb::Workload::keyFor(id));
        }
    }
    result.frag_before = service.fragmentation();

    anchorage::ControlParams params;
    params.mode = mode;
    params.pollInterval = 0.005;
    // The paper's 5% duty cycle needs minutes to act; this harness runs
    // seconds, so let defrag work up to half the time (equally in both
    // modes — the comparison stays fair, and the STW pause totals show
    // what that aggressiveness costs the mutators in each mode).
    params.oUb = 1.0;
    // Full-drain budgets: at alpha=0.25 a sharded heap needs many
    // rank+snapshot rounds to finish the same evacuation, and on a
    // busy host the run can end first. Whole-heap budgets in both
    // modes keep the comparison fair: a campaign drains its budget in
    // one tick, a batched STW pass spreads the same budget over
    // ceil(budget / batchBytes) bounded barriers (one per tick).
    params.alpha = 1.0;
    // Batched barriers: no single STW barrier moves more than
    // kBatchBytes — the max/p99 per-barrier rows below show the
    // resulting pause bound.
    params.batchBytes = kBatchBytes;
    ConcurrentRelocDaemon daemon(runtime, service, params);
    daemon.start();

    std::vector<telemetry::Histogram> reads(threads), updates(threads);
    std::vector<std::thread> mutators;
    std::atomic<int> running{threads};
    Stopwatch wall;
    for (int t = 0; t < threads; t++) {
        mutators.emplace_back([&, t] {
            ThreadRegistration reg(runtime);
            Store &store = *stores[t];
            // Drive only the surviving odd keys so the live set stays
            // fixed and fragmentation moves only through defrag.
            ycsb::Workload workload(ycsb::WorkloadKind::A,
                                    records_per_thread / 2, 17 + t, 500);
            telemetry::Histogram read_ns, update_ns;
            for (uint64_t i = 0; i < ops_per_thread; i++) {
                const ycsb::Request request = workload.next();
                const std::string key =
                    ycsb::Workload::keyFor(2 * request.key + 1);
                Stopwatch watch;
                {
                    // The typed layer's operation bracket: a real
                    // ConcurrentAccessScope while the daemon's mode
                    // permits campaigns, two loads under pure STW.
                    access_scope scope;
                    switch (request.op) {
                      case ycsb::OpType::Read:
                        store.get(key);
                        break;
                      default:
                        store.set(key,
                                  workload.valueFor(2 * request.key + 1));
                        break;
                    }
                }
                const uint64_t ns = watch.elapsedNs();
                if (request.op == ycsb::OpType::Read)
                    read_ns.record(ns);
                else
                    update_ns.record(ns);
                poll();
            }
            reads[t] = read_ns;
            updates[t] = update_ns;
            running.fetch_sub(1, std::memory_order_release);
        });
    }
    // Sample fragmentation while the mutators run: the controller's
    // hysteresis lets it relax back into [F_lb, F_ub] once the target
    // is hit, so the minimum — not the final reading — shows whether
    // defrag crossed F_lb under load.
    result.frag_min = result.frag_before;
    size_t samples = 0, samples_below = 0;
    while (running.load(std::memory_order_acquire) > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const double frag = service.fragmentation();
        result.frag_min = std::min(result.frag_min, frag);
        samples++;
        if (frag <= params.fLb)
            samples_below++;
    }
    result.frag_below_lb =
        samples == 0 ? 0
                     : static_cast<double>(samples_below) /
                           static_cast<double>(samples);
    for (auto &m : mutators)
        m.join();
    result.wall_sec = wall.elapsedSec();
    daemon.stop();

    result.frag_after = service.fragmentation();
    result.barriers = runtime.stats().barriers;
    result.passes = daemon.passes();
    result.pause_sec = daemon.totalPauseSec();
    result.max_barrier_ms = daemon.maxBarrierPauseSec() * 1e3;
    result.p99_barrier_ms = daemon.barrierPauses().percentile(99) / 1e6;
    result.totals = daemon.totals();

    telemetry::Histogram all_reads, all_updates;
    for (int t = 0; t < threads; t++) {
        result.total_ops += reads[t].count() + updates[t].count();
        all_reads.merge(reads[t]);
        all_updates.merge(updates[t]);
    }
    result.read_p50 = all_reads.percentile(50) / 1e3;
    result.read_p99 = all_reads.percentile(99) / 1e3;
    result.read_p999 = all_reads.percentile(99.9) / 1e3;
    result.update_p50 = all_updates.percentile(50) / 1e3;
    result.update_p99 = all_updates.percentile(99) / 1e3;
    result.update_p999 = all_updates.percentile(99.9) / 1e3;

    {
        ThreadRegistration reg(runtime);
        stores.clear();
    }
    return result;
}

/** Fold one mode's result into the JSON report under a prefix. */
void
reportMode(alaska::bench::JsonReport &report, const std::string &prefix,
           const ModeResult &r)
{
    report.add(prefix + ".read_p50_us", r.read_p50, "us");
    report.add(prefix + ".read_p99_us", r.read_p99, "us");
    report.add(prefix + ".read_p999_us", r.read_p999, "us");
    report.add(prefix + ".update_p50_us", r.update_p50, "us");
    report.add(prefix + ".update_p99_us", r.update_p99, "us");
    report.add(prefix + ".update_p999_us", r.update_p999, "us");
    report.add(prefix + ".throughput_mops",
               static_cast<double>(r.total_ops) / r.wall_sec / 1e6,
               "Mops");
    report.add(prefix + ".frag_before", r.frag_before);
    report.add(prefix + ".frag_after", r.frag_after);
    report.add(prefix + ".frag_min", r.frag_min);
    report.add(prefix + ".barriers", static_cast<double>(r.barriers));
    report.add(prefix + ".pause_ms", r.pause_sec * 1e3, "ms");
    report.add(prefix + ".abort_rate", r.totals.abortRate());
    report.add(prefix + ".committed",
               static_cast<double>(r.totals.committed));
    report.add(prefix + ".limbo_parked",
               static_cast<double>(r.totals.limboParked));
    report.add(prefix + ".grace_waits",
               static_cast<double>(r.totals.graceWaits));
    report.add(prefix + ".grace_wait_ms", r.totals.graceWaitSec * 1e3,
               "ms");
}

void
runMultiThreadSection(int threads, size_t shards,
                      uint64_t records_per_thread,
                      uint64_t ops_per_thread,
                      alaska::bench::JsonReport *report)
{
    std::printf("=== YCSB-A tail latency at %d mutator threads with "
                "background defrag ===\n"
                "=== StopTheWorld vs Concurrent at shards=%zu, plus "
                "Concurrent at shards=1 (pre-shard baseline) ===\n"
                "=== closed-loop: per-op service time; pauses do not "
                "queue (no coordinated-omission correction — see "
                "serve_bench for open-loop) ===\n\n",
                threads, shards);
    const ModeResult stw = runMode(anchorage::DefragMode::StopTheWorld,
                                   threads, shards, records_per_thread,
                                   ops_per_thread);
    const ModeResult conc = runMode(anchorage::DefragMode::Concurrent,
                                    threads, shards, records_per_thread,
                                    ops_per_thread);
    // The shards=1 baseline column; when the run is already at
    // shards=1 the concurrent column IS the baseline, so reuse it
    // instead of measuring the identical configuration twice.
    const ModeResult conc1 =
        shards == 1 ? conc
                    : runMode(anchorage::DefragMode::Concurrent,
                              threads, 1, records_per_thread,
                              ops_per_thread);

    std::printf("%-30s %14s %14s %14s\n", "metric", "stw",
                "concurrent", "conc/1shard");
    auto row = [](const char *name, double a, double b, double c,
                  const char *unit) {
        std::printf("%-30s %12.2f%s %12.2f%s %12.2f%s\n", name, a, unit,
                    b, unit, c, unit);
    };
    row("read p50", stw.read_p50, conc.read_p50, conc1.read_p50, "us");
    row("read p99", stw.read_p99, conc.read_p99, conc1.read_p99, "us");
    row("read p999", stw.read_p999, conc.read_p999, conc1.read_p999,
        "us");
    row("update p50", stw.update_p50, conc.update_p50, conc1.update_p50,
        "us");
    row("update p99", stw.update_p99, conc.update_p99, conc1.update_p99,
        "us");
    row("update p999", stw.update_p999, conc.update_p999,
        conc1.update_p999, "us");
    row("throughput",
        static_cast<double>(stw.total_ops) / stw.wall_sec / 1e6,
        static_cast<double>(conc.total_ops) / conc.wall_sec / 1e6,
        static_cast<double>(conc1.total_ops) / conc1.wall_sec / 1e6,
        "Mops");
    row("fragmentation at start", stw.frag_before, conc.frag_before,
        conc1.frag_before, "  ");
    row("fragmentation at end", stw.frag_after, conc.frag_after,
        conc1.frag_after, "  ");
    row("fragmentation min (in run)", stw.frag_min, conc.frag_min,
        conc1.frag_min, "  ");
    row("run fraction below F_lb", stw.frag_below_lb * 100,
        conc.frag_below_lb * 100, conc1.frag_below_lb * 100, "% ");
    row("mutator pause time", stw.pause_sec * 1e3, conc.pause_sec * 1e3,
        conc1.pause_sec * 1e3, "ms");
    row("max per-barrier pause", stw.max_barrier_ms, conc.max_barrier_ms,
        conc1.max_barrier_ms, "ms");
    row("p99 per-barrier pause", stw.p99_barrier_ms,
        conc.p99_barrier_ms, conc1.p99_barrier_ms, "ms");
    row("max bytes in one barrier",
        static_cast<double>(stw.totals.maxBarrierBytes) / 1024.0,
        static_cast<double>(conc.totals.maxBarrierBytes) / 1024.0,
        static_cast<double>(conc1.totals.maxBarrierBytes) / 1024.0,
        "KB");
    std::printf("%-30s %13zu  %13zu  %13zu\n", "stop-the-world barriers",
                static_cast<size_t>(stw.barriers),
                static_cast<size_t>(conc.barriers),
                static_cast<size_t>(conc1.barriers));
    std::printf("%-30s %13zu  %13zu  %13zu\n", "defrag passes/campaigns",
                stw.passes, conc.passes, conc1.passes);
    std::printf("%-30s %13zu  %13zu  %13zu\n", "objects moved",
                stw.totals.movedObjects, conc.totals.movedObjects,
                conc1.totals.movedObjects);
    std::printf("%-30s %11.1fMB  %11.1fMB  %11.1fMB\n",
                "bytes reclaimed",
                static_cast<double>(stw.totals.reclaimedBytes) / 1e6,
                static_cast<double>(conc.totals.reclaimedBytes) / 1e6,
                static_cast<double>(conc1.totals.reclaimedBytes) / 1e6);
    std::printf("%-30s %8zu/%-5zu %8zu/%-5zu %8zu/%-5zu\n",
                "campaign commits/aborts",
                static_cast<size_t>(stw.totals.committed),
                static_cast<size_t>(stw.totals.aborted),
                static_cast<size_t>(conc.totals.committed),
                static_cast<size_t>(conc.totals.aborted),
                static_cast<size_t>(conc1.totals.committed),
                static_cast<size_t>(conc1.totals.aborted));
    std::printf("%-30s %13.3f  %13.3f  %13.3f\n", "campaign abort rate",
                stw.totals.abortRate(), conc.totals.abortRate(),
                conc1.totals.abortRate());
    std::printf("%-30s %13zu  %13zu  %13zu\n", "campaign grace waits",
                static_cast<size_t>(stw.totals.graceWaits),
                static_cast<size_t>(conc.totals.graceWaits),
                static_cast<size_t>(conc1.totals.graceWaits));
    row("campaign grace wait time", stw.totals.graceWaitSec * 1e3,
        conc.totals.graceWaitSec * 1e3, conc1.totals.graceWaitSec * 1e3,
        "ms");
    std::printf("%-30s %13zu  %13zu  %13zu\n", "sources limbo-parked",
                static_cast<size_t>(stw.totals.limboParked),
                static_cast<size_t>(conc.totals.limboParked),
                static_cast<size_t>(conc1.totals.limboParked));

    if (report != nullptr) {
        reportMode(*report, "stw", stw);
        reportMode(*report, "conc", conc);
        if (shards != 1)
            reportMode(*report, "conc1", conc1);
    }

    // Every mode's controller aims below F_lb, but a short run can end
    // before a mode gets there: report what each column reached.
    const double f_lb = anchorage::ControlParams{}.fLb;
    std::string reached;
    std::printf("\nIn-run fragmentation minimum against F_lb=%.2f (the "
                "controller acts above F_ub=%.2f):",
                f_lb, anchorage::ControlParams{}.fUb);
    for (const auto &[label, r] :
         {std::pair{"stw", &stw}, std::pair{"concurrent", &conc},
          std::pair{"conc/1shard", &conc1}}) {
        const bool hit = r->frag_min <= f_lb;
        std::printf(" %s %.2f%s", label, r->frag_min,
                    hit ? "" : " (not reached)");
        if (hit)
            reached += (reached.empty() ? "" : ", ") + std::string(label);
    }
    std::printf(".\nModes that reached F_lb: %s.\n",
                reached.empty() ? "none" : reached.c_str());

    std::printf("\nConcurrent mode must show zero barriers (relocation "
                "is speculative, paper par.7): defrag\n"
                "happens while all %d mutators run, and only the "
                "abort/commit protocol arbitrates races.\n"
                "The conc/1shard column funnels every halloc/hfree "
                "through one service lock — the pre-shard\n"
                "design; the sharded columns give each thread its own "
                "sub-heap chain and lock.\n"
                "STW passes are batched: no single barrier moves more "
                "than batchBytes=%zu KiB (+1 object), so the\n"
                "max/p99 per-barrier rows — not the pause total — are "
                "the mutator's worst-case exposure.\n",
                threads, kBatchBytes >> 10);
}

/** Print the flag summary; returns the usage-error exit status. */
int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--smoke] [--threads=N] [--shards=N] "
                 "[--records=N] [--ops=N] [--mrecords=N] [--mops=N] "
                 "[--single-only] [--multi-only] [--telemetry] "
                 "[--trace=FILE] [--out=FILE]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t records = 100000;
    uint64_t ops = 400000;
    int threads = 8;
    size_t shards = 8;
    uint64_t mrecords = 8000;
    uint64_t mops = 300000;
    bool single_only = false;
    bool multi_only = false;
    bool telemetry_dump = false;
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
            records = 5000;
            ops = 20000;
            threads = 4;
            mrecords = 2000;
            mops = 8000;
        } else if (const char *v = value("--threads=")) {
            threads = std::atoi(v);
            if (threads < 1)
                return usage(argv[0]);
        } else if (const char *v = value("--shards=")) {
            shards = std::strtoull(v, nullptr, 10);
        } else if (const char *v = value("--records=")) {
            records = std::strtoull(v, nullptr, 10);
            if (records < 1)
                return usage(argv[0]);
        } else if (const char *v = value("--ops=")) {
            ops = std::strtoull(v, nullptr, 10);
            if (ops < 1)
                return usage(argv[0]);
        } else if (const char *v = value("--mrecords=")) {
            mrecords = std::strtoull(v, nullptr, 10);
            if (mrecords < 2)
                return usage(argv[0]);
        } else if (const char *v = value("--mops=")) {
            mops = std::strtoull(v, nullptr, 10);
            if (mops < 1)
                return usage(argv[0]);
        } else if (arg == "--single-only") {
            single_only = true;
        } else if (arg == "--multi-only") {
            multi_only = true;
        } else if (arg == "--telemetry") {
            telemetry_dump = true;
        } else if (value("--trace=") != nullptr) {
            // Point into argv, not the loop-local string.
            trace_file = argv[i] + std::strlen("--trace=");
        } else if (const char *v = alaska::bench::outFileArg(argv[i])) {
            out_file = v; // points into argv, which outlives the loop
        } else {
            return usage(argv[0]);
        }
    }

    if (trace_file != nullptr)
        alaska::telemetry::enableTracing();

    alaska::bench::JsonReport report;
    alaska::bench::JsonReport *rp = out_file ? &report : nullptr;
    if (!multi_only)
        runSingleThreadSection(records, ops, rp);
    if (!single_only)
        runMultiThreadSection(threads, shards, mrecords, mops, rp);
    if (telemetry_dump) {
        std::printf("\n");
        alaska::telemetry::writeText(alaska::telemetry::snapshot(),
                                     stdout);
    }
    if (trace_file != nullptr) {
        if (!alaska::telemetry::dumpTrace(trace_file)) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         trace_file);
            return 1;
        }
        std::printf("wrote Chrome trace to %s (open at "
                    "https://ui.perfetto.dev)\n",
                    trace_file);
    }
    if (out_file != nullptr &&
        !report.writeTo(out_file, "tab_ycsb_latency"))
        return 1;
    return 0;
}
