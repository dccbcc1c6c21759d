/**
 * @file
 * Allocation throughput at 1–8 threads, in two sections.
 *
 * Section 1 — handle *ID* allocation, comparing three designs over the
 * same handle-table entry layout:
 *
 *   single-mutex : the pre-sharding design — one global mutex-protected
 *                  free list plus a bump cursor (the baseline).
 *   sharded      : HandleTable as shipped — per-thread free-list shards,
 *                  cache-line padded, plus the global bump cursor.
 *   magazine     : the full fast path — registered threads cache IDs in
 *                  a per-thread magazine and hit no shared state in
 *                  steady state (Runtime::allocateHandleId).
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
#include <mutex>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "base/logging.h"
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

/**
 * The pre-sharding allocator, reproduced faithfully: one mutex, one
 * free list, one bump cursor, with the same always-on invariant checks
 * and live accounting the original HandleTable::allocate/release had.
 */
class SingleMutexTable
{
  public:
    explicit SingleMutexTable(uint32_t capacity)
        : entries_(capacity), capacity_(capacity)
    {}

    uint32_t
    allocate()
    {
        {
            std::lock_guard<std::mutex> guard(freeMutex_);
            if (!freeList_.empty()) {
                const uint32_t id = freeList_.back();
                freeList_.pop_back();
                entries_[id].state.store(HandleTableEntry::Allocated,
                                         std::memory_order_relaxed);
                live_.fetch_add(1, std::memory_order_relaxed);
                return id;
            }
        }
        const uint32_t id = bump_.fetch_add(1, std::memory_order_relaxed);
        if (id >= capacity_)
            fatal("handle table exhausted (%u entries)", capacity_);
        entries_[id].state.store(HandleTableEntry::Allocated,
                                 std::memory_order_relaxed);
        live_.fetch_add(1, std::memory_order_relaxed);
        return id;
    }

    void
    release(uint32_t id)
    {
        ALASKA_ASSERT(id < capacity_, "id %u out of range", id);
        auto &e = entries_[id];
        ALASKA_ASSERT(e.allocated(), "double free of handle %u", id);
        e.ptr.store(nullptr, std::memory_order_relaxed);
        e.size = 0;
        e.state.store(0, std::memory_order_relaxed);
        live_.fetch_sub(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> guard(freeMutex_);
        freeList_.push_back(id);
    }

  private:
    std::vector<HandleTableEntry> entries_;
    uint32_t capacity_;
    std::atomic<uint32_t> bump_{0};
    std::atomic<uint32_t> live_{0};
    std::mutex freeMutex_;
    std::vector<uint32_t> freeList_;
};

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
benchSingleMutex(int nThreads)
{
    SingleMutexTable table(kTableCapacity);
    return run(nThreads, [&table] {
        churn([&table] { return table.allocate(); },
              [&table](uint32_t id) { table.release(id); });
    });
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
    std::printf("%-8s %14s %14s %14s %10s\n", "threads", "single-mutex",
                "sharded", "magazine", "speedup");

    for (int nThreads : {1, 2, 4, 8}) {
        const double base = benchSingleMutex(nThreads);
        const double sharded = benchSharded(nThreads);
        const double magazine = benchMagazine(nThreads);
        std::printf("%-8d %14.2f %14.2f %14.2f %9.2fx\n", nThreads, base,
                    sharded, magazine, magazine / base);
        if (rp != nullptr) {
            const std::string prefix =
                "id_alloc.t" + std::to_string(nThreads);
            rp->add(prefix + ".single_mutex_mops", base, "Mops");
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
