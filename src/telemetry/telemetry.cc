#include "telemetry/telemetry.h"

#include <cinttypes>
#include <mutex>
#include <string>

namespace alaska::telemetry
{

const char *
counterName(Counter c)
{
    switch (c) {
    case Counter::TranslateFast: return "translate_fast";
    case Counter::DerefScoped: return "deref_scoped";
    case Counter::ScopeOpen: return "scope_open";
    case Counter::DerefPinned: return "deref_pinned";
    case Counter::HandleFault: return "handle_fault";
    case Counter::MagazineRefill: return "magazine_refill";
    case Counter::MagazineSpill: return "magazine_spill";
    case Counter::CrossShardFree: return "cross_shard_free";
    case Counter::ShardHoleSteal: return "shard_hole_steal";
    case Counter::ShardLockWait: return "shard_lock_wait";
    case Counter::IdShardSteal: return "id_shard_steal";
    case Counter::CampaignCommit: return "campaign_commit";
    case Counter::CampaignAbort: return "campaign_abort";
    case Counter::CampaignNoSpace: return "campaign_no_space";
    case Counter::GraceWait: return "grace_wait";
    case Counter::LimboSeal: return "limbo_seal";
    case Counter::LimboRetire: return "limbo_retire";
    case Counter::LimboStall: return "limbo_stall";
    case Counter::Barrier: return "barrier";
    case Counter::StwRecoveredBytes: return "stw_recovered_bytes";
    case Counter::CampaignRecoveredBytes:
        return "campaign_recovered_bytes";
    case Counter::ServeSteal: return "serve_steal";
    case Counter::ServeBackpressure: return "serve_backpressure";
    case Counter::kCount: break;
    }
    return "unknown";
}

const char *
gaugeName(Gauge g)
{
    switch (g) {
    case Gauge::BatchBytesCurrent: return "batch_bytes_current";
    case Gauge::ServeQueueDepth: return "serve_queue_depth";
    case Gauge::kCount: break;
    }
    return "unknown";
}

const char *
histName(Hist h)
{
    switch (h) {
    case Hist::BarrierPauseNs: return "barrier_pause_ns";
    case Hist::CampaignCopyNs: return "campaign_copy_ns";
    case Hist::GraceAgeNs: return "grace_age_ns";
    case Hist::AllocMissDepth: return "alloc_miss_depth";
    case Hist::ShardLockWaitNs: return "shard_lock_wait_ns";
    case Hist::kCount: break;
    }
    return "unknown";
}

namespace detail
{

thread_local constinit CounterBlock *tlsCounters
    __attribute__((tls_model("local-exec"))) = nullptr;

namespace
{

/**
 * Registry of every CounterBlock ever handed out. Blocks are never
 * destroyed (each is ~200 bytes); a thread exit pushes its block onto
 * the free list, counts intact, for the next thread to reuse — so
 * snapshot() keeps seeing exited threads' counts and thread churn
 * does not grow memory. allBlocks is a lock-free push-only list so
 * snapshot() can walk it without the mutex; the mutex only serializes
 * free-list pops and pushes.
 */
struct BlockRegistry {
    std::atomic<CounterBlock *> allBlocks{nullptr};
    std::mutex freeMutex;
    CounterBlock *freeList = nullptr;
    /** Shared overflow cell for increments after thread teardown. */
    CounterBlock lateBlock;
};

BlockRegistry &
blockRegistry()
{
    static BlockRegistry *r = new BlockRegistry(); // leaked: outlives TLS dtors
    return *r;
}

CounterBlock *
acquireBlock()
{
    BlockRegistry &r = blockRegistry();
    {
        std::lock_guard<std::mutex> guard(r.freeMutex);
        if (r.freeList != nullptr) {
            CounterBlock *b = r.freeList;
            r.freeList = b->nextFree;
            b->nextFree = nullptr;
            return b; // already on allBlocks
        }
    }
    CounterBlock *b = new CounterBlock();
    CounterBlock *head = r.allBlocks.load(std::memory_order_relaxed);
    do {
        b->next = head;
    } while (!r.allBlocks.compare_exchange_weak(head, b,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
    return b;
}

/**
 * TLS owner whose destructor retires this thread's block: the block
 * (counts intact) goes back to the pool and tlsCounters is pointed at
 * the shared late block so destructors running after us still count.
 */
struct ThreadOwner {
    CounterBlock *block = nullptr;
    ~ThreadOwner()
    {
        BlockRegistry &r = blockRegistry();
        if (block != nullptr) {
            std::lock_guard<std::mutex> guard(r.freeMutex);
            block->nextFree = r.freeList;
            r.freeList = block;
        }
        tlsCounters = &r.lateBlock;
    }
};

thread_local ThreadOwner tlsOwner;

} // namespace

CounterBlock &
countersSlow()
{
    CounterBlock *b = acquireBlock();
    tlsOwner.block = b;
    tlsCounters = b;
    return *b;
}

std::atomic<uint64_t> gGauges[kNumGauges] = {};

} // namespace detail

namespace
{

Histogram gHists[kNumHists];

} // namespace

Histogram &
hist(Hist h)
{
    return gHists[static_cast<size_t>(h)];
}

Snapshot
snapshot()
{
    Snapshot snap;
    auto &r = detail::blockRegistry();
    for (detail::CounterBlock *b =
             r.allBlocks.load(std::memory_order_acquire);
         b != nullptr; b = b->next)
        for (size_t i = 0; i < kNumCounters; i++)
            snap.counters[i] +=
                b->cells[i].load(std::memory_order_relaxed);
    for (size_t i = 0; i < kNumCounters; i++)
        snap.counters[i] +=
            r.lateBlock.cells[i].load(std::memory_order_relaxed);
    for (size_t i = 0; i < kNumGauges; i++)
        snap.gauges[i] =
            detail::gGauges[i].load(std::memory_order_relaxed);
    for (size_t i = 0; i < kNumHists; i++)
        snap.hists[i] = gHists[i];
    return snap;
}

void
reset()
{
    auto &r = detail::blockRegistry();
    for (detail::CounterBlock *b =
             r.allBlocks.load(std::memory_order_acquire);
         b != nullptr; b = b->next)
        for (size_t i = 0; i < kNumCounters; i++)
            b->cells[i].store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < kNumCounters; i++)
        r.lateBlock.cells[i].store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < kNumGauges; i++)
        detail::gGauges[i].store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < kNumHists; i++)
        gHists[i].clear();
}

void
writeText(const Snapshot &snap, FILE *out)
{
    fprintf(out, "# telemetry counters (cumulative, level %d)\n",
            ALASKA_TELEMETRY_LEVEL);
    for (size_t i = 0; i < kNumCounters; i++) {
        if (snap.counters[i] == 0)
            continue;
        fprintf(out, "%-20s %12" PRIu64 "\n",
                counterName(static_cast<Counter>(i)), snap.counters[i]);
    }
    fprintf(out, "# telemetry gauges (instantaneous)\n");
    for (size_t i = 0; i < kNumGauges; i++) {
        if (snap.gauges[i] == 0)
            continue;
        fprintf(out, "%-20s %12" PRIu64 "\n",
                gaugeName(static_cast<Gauge>(i)), snap.gauges[i]);
    }
    fprintf(out, "# telemetry histograms\n");
    for (size_t i = 0; i < kNumHists; i++) {
        const Histogram &h = snap.hists[i];
        if (h.count() == 0)
            continue;
        fprintf(out,
                "%-20s count=%" PRIu64 " mean=%.1f p50=%.1f p99=%.1f"
                " max=%" PRIu64 "\n",
                histName(static_cast<Hist>(i)), h.count(), h.mean(),
                h.percentile(50), h.percentile(99), h.max());
    }
}

} // namespace alaska::telemetry
