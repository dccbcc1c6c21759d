/**
 * @file
 * Allocation throughput at 1–8 threads, in two sections.
 *
 * Section 1 — handle *ID* allocation, comparing the library's two
 * paths over the same handle table:
 *
 *   sharded      : HandleTable alone — per-thread free-list shards,
 *                  cache-line padded, plus the global bump cursor.
 *   magazine     : the full fast path — registered threads cache IDs in
 *                  a per-thread magazine and hit no shared state in
 *                  steady state (Runtime::allocateHandleId). The
 *                  speedup column is magazine over sharded.
 *
 * Section 2 — full halloc/hfree over the Anchorage service, comparing
 * a single-shard configuration (every allocation behind one service
 * lock, the pre-sharding design) against the sharded service (one
 * sub-heap chain + lock per shard, thread-affine). This is the
 * allocation hot path the sharded sub-heap work targets.
 *
 * Workload: each thread owns a window of live IDs (or handles) and
 * repeatedly releases a slot and allocates a replacement, which is the
 * steady state of a mutator under churn. One "op" is one
 * release+allocate pair. Translation costs live in
 * fig05_translate_cost.
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "base/timer.h"
#include "bench/bench_util.h"
#include "core/handle_table.h"
#include "core/malloc_service.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;

constexpr uint32_t kTableCapacity = 1u << 20;
constexpr int kWindow = 256;  // live IDs held per thread
constexpr int kPairsPerThread = 200000;

/** Churn fn(): release+allocate pairs over a per-thread window. */
template <typename AllocFn, typename ReleaseFn>
void
churn(AllocFn &&alloc, ReleaseFn &&release)
{
    uint32_t window[kWindow];
    for (int i = 0; i < kWindow; i++)
        window[i] = alloc();
    for (int i = 0; i < kPairsPerThread; i++) {
        const int slot = i % kWindow;
        release(window[slot]);
        window[slot] = alloc();
    }
    for (int i = 0; i < kWindow; i++)
        release(window[i]);
}

/** Run nThreads copies of fn concurrently; return Mops/s (pairs). */
template <typename Fn>
double
run(int nThreads, Fn &&fn)
{
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(nThreads));
    Stopwatch watch;
    for (int t = 0; t < nThreads; t++)
        threads.emplace_back(fn);
    for (auto &th : threads)
        th.join();
    const double sec = watch.elapsedSec();
    return static_cast<double>(kPairsPerThread) * nThreads / sec / 1e6;
}

double
benchSharded(int nThreads)
{
    HandleTable table(kTableCapacity);
    return run(nThreads, [&table] {
        churn([&table] { return table.allocate(); },
              [&table](uint32_t id) { table.release(id); });
    });
}

double
benchMagazine(int nThreads)
{
    MallocService service;
    Runtime runtime(RuntimeConfig{.tableCapacity = kTableCapacity});
    runtime.attachService(&service);
    return run(nThreads, [&runtime] {
        ThreadRegistration reg(runtime);
        churn([&runtime] { return runtime.allocateHandleId(); },
              [&runtime](uint32_t id) { runtime.releaseHandleId(id); });
    });
}

// --- section 2: halloc/hfree over Anchorage ---------------------------------

constexpr size_t kObjectSize = 256;
constexpr int kHallocPairsPerThread = 100000;

/** Per-thread halloc/hfree churn over a window of live handles. */
double
benchHalloc(int nThreads, size_t shards)
{
    alaska::RealAddressSpace space;
    alaska::anchorage::AnchorageService service(
        space, alaska::anchorage::AnchorageConfig{.shards = shards});
    Runtime runtime(RuntimeConfig{.tableCapacity = kTableCapacity});
    runtime.attachService(&service);

    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(nThreads));
    Stopwatch watch;
    for (int t = 0; t < nThreads; t++) {
        threads.emplace_back([&runtime] {
            ThreadRegistration reg(runtime);
            void *window[kWindow];
            for (int i = 0; i < kWindow; i++)
                window[i] = runtime.halloc(kObjectSize);
            for (int i = 0; i < kHallocPairsPerThread; i++) {
                const int slot = i % kWindow;
                runtime.hfree(window[slot]);
                window[slot] = runtime.halloc(kObjectSize);
            }
            for (int i = 0; i < kWindow; i++)
                runtime.hfree(window[i]);
        });
    }
    for (auto &th : threads)
        th.join();
    const double sec = watch.elapsedSec();
    return static_cast<double>(kHallocPairsPerThread) * nThreads / sec /
           1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_file = nullptr;
    for (int i = 1; i < argc; i++) {
        if (const char *v = alaska::bench::outFileArg(argv[i])) {
            out_file = v;
        } else {
            std::fprintf(stderr, "usage: %s [--out=FILE]\n", argv[0]);
            return 2;
        }
    }
    alaska::bench::JsonReport report;
    alaska::bench::JsonReport *rp = out_file ? &report : nullptr;

    std::printf("# Handle allocate/release throughput "
                "(M release+allocate pairs per second)\n");
    std::printf("# window=%d live IDs/thread, %d pairs/thread\n\n",
                kWindow, kPairsPerThread);
    std::printf("%-8s %14s %14s %10s\n", "threads", "sharded",
                "magazine", "speedup");

    for (int nThreads : {1, 2, 4, 8}) {
        const double sharded = benchSharded(nThreads);
        const double magazine = benchMagazine(nThreads);
        std::printf("%-8d %14.2f %14.2f %9.2fx\n", nThreads, sharded,
                    magazine, magazine / sharded);
        if (rp != nullptr) {
            const std::string prefix =
                "id_alloc.t" + std::to_string(nThreads);
            rp->add(prefix + ".sharded_mops", sharded, "Mops");
            rp->add(prefix + ".magazine_mops", magazine, "Mops");
        }
    }

    std::printf("\n# halloc/hfree throughput over Anchorage "
                "(M free+alloc pairs per second, %zu B objects)\n",
                kObjectSize);
    std::printf("# shards=1 is the pre-sharding single-service-lock "
                "design; shards=8 is thread-affine sub-heap chains\n\n");
    std::printf("%-8s %14s %14s %10s\n", "threads", "shards=1",
                "shards=8", "speedup");
    for (int nThreads : {1, 2, 4, 8}) {
        const double single = benchHalloc(nThreads, 1);
        const double sharded = benchHalloc(nThreads, 8);
        std::printf("%-8d %14.2f %14.2f %9.2fx\n", nThreads, single,
                    sharded, sharded / single);
        if (rp != nullptr) {
            const std::string prefix =
                "halloc.t" + std::to_string(nThreads);
            rp->add(prefix + ".shards1_mops", single, "Mops");
            rp->add(prefix + ".shards8_mops", sharded, "Mops");
        }
    }

    if (out_file != nullptr &&
        !report.writeTo(out_file, "handle_alloc_bench"))
        return 1;
    return 0;
}
