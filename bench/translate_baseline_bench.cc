/**
 * @file
 * The translate-cost baseline: nanoseconds per translation on the
 * two paths whose relative cost the paper's story depends on, as a
 * committed regression gate (BENCH_translate.json, diffed by
 * scripts/diff_bench.py in scripts/check.sh and CI):
 *
 *   translate.direct_ns    raw translate() under the Direct
 *                          (stop-the-world) discipline — the paper's
 *                          two-instruction fast path.
 *   translate.scoped_ns    scope-bracketed translate under the Scoped
 *                          discipline (a campaign-capable daemon
 *                          declared): the epoch publish amortized over
 *                          a 16-deref operation.
 *
 * One "op" is one 8-byte load through a translation. Each column runs
 * several trials and all land in the JSON report, so the diff gate
 * sees the spread; the printed table shows each column's best.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "anchorage/anchorage_service.h"
#include "api/api.h"
#include "base/timer.h"
#include "bench/bench_util.h"
#include "core/malloc_service.h"
#include "services/concurrent_reloc_daemon.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;

constexpr uint32_t kTableCapacity = 1u << 20;
constexpr int kWindow = 256;
constexpr size_t kObjectSize = 64;
constexpr int kReps = 20000;
constexpr int kTrials = 9;
/** Accesses bracketed by one access_scope in the scoped column. */
constexpr int kOpSize = 16;

/** Populate a window of live handles, each holding its index. */
void
fillWindow(Runtime &runtime, void **window)
{
    for (int i = 0; i < kWindow; i++) {
        window[i] = runtime.halloc(kObjectSize);
        auto *raw = static_cast<int64_t *>(translate(window[i]));
        for (size_t j = 0; j < kObjectSize / sizeof(int64_t); j++)
            raw[j] = i + static_cast<int64_t>(j);
    }
}

/** Seconds for kReps sweeps of raw translate loads over the window. */
double
rawPass(void *const *window)
{
    int64_t checksum = 0;
    Stopwatch watch;
    for (int rep = 0; rep < kReps; rep++) {
        for (int i = 0; i < kWindow; i++) {
            checksum += static_cast<int64_t *>(
                translate(window[i]))[rep % (kObjectSize / 8)];
        }
    }
    const double sec = watch.elapsedSec();
    if (checksum == 0x7fffffffffffffff)
        std::printf("(unlikely checksum)\n");
    return sec;
}

/** The same sweeps with one access_scope per kOpSize loads. */
double
scopedPass(void *const *window)
{
    int64_t checksum = 0;
    Stopwatch watch;
    for (int rep = 0; rep < kReps; rep++) {
        for (int base = 0; base < kWindow; base += kOpSize) {
            access_scope op;
            for (int i = 0; i < kOpSize; i++) {
                checksum += static_cast<int64_t *>(translate(
                    window[base + i]))[rep % (kObjectSize / 8)];
            }
        }
    }
    const double sec = watch.elapsedSec();
    if (checksum == 0x7fffffffffffffff)
        std::printf("(unlikely checksum)\n");
    return sec;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_file = nullptr;
    for (int i = 1; i < argc; i++) {
        if (const char *v = alaska::bench::outFileArg(argv[i])) {
            out_file = v; // points into argv, which outlives the loop
        } else {
            std::fprintf(stderr, "usage: %s [--out=FILE]\n", argv[0]);
            return 2;
        }
    }

    alaska::bench::JsonReport report;
    const double ops = static_cast<double>(kReps) * kWindow;
    double best[2] = {1e30, 1e30};
    auto track = [&](const char *metric, double sec, double &b) {
        b = std::min(b, sec);
        report.add(metric, sec / ops * 1e9, "ns");
    };

    // Only one Runtime may be live at a time, so the two columns run
    // as sequential blocks (best-of-kTrials within each block absorbs
    // the noise interleaving would have).
    {
        // Direct discipline: no relocation daemon anywhere.
        MallocService service;
        Runtime runtime(RuntimeConfig{.tableCapacity = kTableCapacity});
        runtime.attachService(&service);
        ThreadRegistration reg(runtime);
        void *window[kWindow];
        fillWindow(runtime, window);
        for (int trial = 0; trial < kTrials; trial++)
            track("translate.direct_ns", rawPass(window), best[0]);
        for (int i = 0; i < kWindow; i++)
            runtime.hfree(window[i]);
    }
    {
        // Scoped discipline: a campaign-capable daemon declared.
        MallocService service;
        Runtime runtime(RuntimeConfig{.tableCapacity = kTableCapacity});
        runtime.attachService(&service);
        anchorage::ControlParams params;
        params.mode = anchorage::DefragMode::Concurrent;
        RealAddressSpace space;
        anchorage::AnchorageService heap(space);
        ConcurrentRelocDaemon daemon(runtime, heap, params);
        ThreadRegistration reg(runtime);
        void *window[kWindow];
        fillWindow(runtime, window);
        for (int trial = 0; trial < kTrials; trial++)
            track("translate.scoped_ns", scopedPass(window), best[1]);
        for (int i = 0; i < kWindow; i++)
            runtime.hfree(window[i]);
    }

    std::printf("=== translate cost baseline (ns per 8-byte load "
                "through a translation) ===\n\n");
    std::printf("%-24s %10s\n", "path", "best ns/op");
    std::printf("%-24s %10.2f\n", "direct", best[0] / ops * 1e9);
    std::printf("%-24s %10.2f\n", "scoped (per-op scope)",
                best[1] / ops * 1e9);
    std::printf("\nscoped pays one epoch publish per %d-load "
                "operation.\n",
                kOpSize);

    if (out_file != nullptr &&
        !report.writeTo(out_file, "translate_baseline_bench"))
        return 1;
    return 0;
}
