#include "anchorage/anchorage_service.h"

#include <algorithm>

#include "base/logging.h"
#include "base/timer.h"
#include "core/translate.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace alaska::anchorage
{

namespace
{

/**
 * Committed-but-unreclaimed source bytes a campaign collects on its
 * open limbo batch before sealing it behind a grace ticket and moving
 * on. Smaller batches retire sources sooner; larger ones amortize the
 * epoch advance and thread scan each seal costs.
 */
constexpr size_t kGraceBatchBytes = 256 << 10;

/**
 * Committed-but-unreclaimed source bytes (open batch plus sealed
 * batches) a campaign may have outstanding before it stalls on the
 * oldest batch's grace: the bound on transient heap overshoot (limbo
 * bytes count in extent until freed), sized so that on an
 * oversubscribed host the mover's pipeline stays full while graces
 * run out in the background.
 */
constexpr size_t kLimboCapBytes = 4 << 20;

/** Live fraction of a sub-heap's extent; 1.0 when empty (never a source). */
double
occupancyOf(const SubHeap &heap)
{
    return heap.extent() == 0
               ? 1.0
               : static_cast<double>(heap.liveBytes()) /
                     static_cast<double>(heap.extent());
}

size_t
roundUpPow2(size_t v)
{
    size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // anonymous namespace

AnchorageService::AnchorageService(AddressSpace &space,
                                   AnchorageConfig config)
    : space_(space), config_(config)
{
    if (config_.subHeapBytes > SubHeap::maxCapacity)
        fatal("anchorage: subHeapBytes of %zu does not fit the 32-bit "
              "block offset (at most %zu bytes)",
              config_.subHeapBytes, SubHeap::maxCapacity);
    config_.shards =
        roundUpPow2(std::clamp<size_t>(config_.shards, 1, 256));
    shards_.reserve(config_.shards);
    for (size_t i = 0; i < config_.shards; i++)
        shards_.push_back(std::make_unique<Shard>());
}

void
AnchorageService::init(Runtime &runtime)
{
    runtime_ = &runtime;
}

void
AnchorageService::deinit()
{
    runtime_ = nullptr;
}

size_t
AnchorageService::homeShardIndex() const
{
    return HandleTable::threadOrdinal() & (shards_.size() - 1);
}

template <typename... TryTag>
std::unique_lock<std::mutex>
AnchorageService::lockShard(const Shard &sh, TryTag...)
{
    // Try first, so only an acquisition that must block is timed: the
    // uncontended path stays one atomic op.
    std::unique_lock<std::mutex> lock(sh.mutex, std::try_to_lock);
    if (sizeof...(TryTag) == 0 && !lock.owns_lock()) {
        Stopwatch wait;
        lock.lock();
        telemetry::count(telemetry::Counter::ShardLockWait);
        telemetry::record(telemetry::Hist::ShardLockWaitNs,
                          wait.elapsedNs());
    }
    if (lock.owns_lock())
        drainInboxLocked(sh);
    return lock;
}

void
AnchorageService::drainInboxLocked(const Shard &sh)
{
    // A relaxed load suffices: a free that happened-before this lock
    // acquisition is visible by coherence, and one racing with it is
    // simply applied by the next holder.
    if (!sh.inboxPending.load(std::memory_order_relaxed))
        return;
    {
        std::lock_guard<std::mutex> guard(sh.inboxMutex);
        sh.draining.swap(sh.inbox);
        sh.inboxPending.store(false, std::memory_order_relaxed);
    }
    // In arrival order, so the free lists come out as if each free
    // had taken the lock itself.
    for (const RemoteFree &f : sh.draining)
        f.heap->free(f.addr);
    sh.draining.clear();
}

const AnchorageService::HeapRegion *
AnchorageService::regionOf(uint64_t addr) const
{
    const auto *snapshot = regions_.load(std::memory_order_acquire);
    if (snapshot == nullptr)
        return nullptr;
    auto it = std::upper_bound(
        snapshot->begin(), snapshot->end(), addr,
        [](uint64_t a, const HeapRegion &r) { return a < r.base; });
    if (it == snapshot->begin())
        return nullptr;
    --it;
    return addr < it->end ? &*it : nullptr;
}

SubHeap *
AnchorageService::addSubHeapLocked(Shard &sh, uint32_t shard_idx,
                                   size_t bytes)
{
    sh.heaps.push_back(std::make_unique<SubHeap>(space_, bytes));
    sh.orderDirty = true;
    SubHeap *heap = sh.heaps.back().get();

    std::lock_guard<std::mutex> guard(regionsMutex_);
    const auto *current = regions_.load(std::memory_order_relaxed);
    auto next = current
                    ? std::make_unique<std::vector<HeapRegion>>(*current)
                    : std::make_unique<std::vector<HeapRegion>>();
    const HeapRegion region{heap->base(), heap->base() + heap->capacity(),
                            shard_idx, heap};
    next->insert(std::upper_bound(next->begin(), next->end(),
                                  region.base,
                                  [](uint64_t a, const HeapRegion &r) {
                                      return a < r.base;
                                  }),
                 region);
    regions_.store(next.get(), std::memory_order_release);
    ownedRegionMaps_.push_back(std::move(next));
    return heap;
}

void
AnchorageService::invalidatePlacementLocked(Shard &sh)
{
    sh.fallbackHint = SIZE_MAX;
    sh.orderDirty = true;
}

void
AnchorageService::rebuildDensityOrderLocked(Shard &sh)
{
    sh.densityOrder.resize(sh.heaps.size());
    for (size_t i = 0; i < sh.densityOrder.size(); i++)
        sh.densityOrder[i] = i;
    // occupancyOf() reports 1.0 for empty heaps (a source-selection
    // convention); as destinations they must rank last, or a bump
    // would resurrect the extent a defrag pass just trimmed to zero.
    auto dest_density = [&](size_t i) {
        return sh.heaps[i]->extent() == 0 ? -1.0
                                          : occupancyOf(*sh.heaps[i]);
    };
    std::stable_sort(sh.densityOrder.begin(), sh.densityOrder.end(),
                     [&](size_t a, size_t b) {
                         return dest_density(a) > dest_density(b);
                     });
    sh.orderDirty = false;
}

void *
AnchorageService::alloc(uint32_t id, size_t size)
{
    // Oversized objects get a dedicated sub-heap, sized to the aligned
    // request so that its first bump fits.
    const size_t need = SubHeap::alignUp(size);
    if (need > SubHeap::maxCapacity)
        fatal("anchorage: a %zu-byte object needs a %zu-byte block, past "
              "the 32-bit block offset (at most %zu bytes)",
              size, need, SubHeap::maxCapacity);
    const size_t heap_bytes = std::max(config_.subHeapBytes, need);

    const size_t shard_idx = homeShardIndex();
    Shard &sh = *shards_[shard_idx];
    auto guard = lockShard(sh);

    // Telemetry: probes counts sub-heaps tried beyond the cursor; the
    // alloc_miss_depth histogram only sees the miss path, keeping the
    // cursor-hit fast path clean.
    size_t probes = 0;
    if (!sh.heaps.empty()) {
        auto r = sh.heaps[sh.cursor]->alloc(id, size);
        if (r.ok)
            return reinterpret_cast<void *>(r.addr);
        // Cursor miss. Holes-anywhere must come before bumping anything
        // (a bump while suitable holes exist regrows the extent defrag
        // just fought to trim), and fallback placement is densest-first
        // so the cursor never re-parks on the sparsest heap — exactly
        // the one a relocation campaign may be evacuating. The hint
        // remembers the last chain index that satisfied a miss so the
        // steady-state miss costs one hole probe, not a chain scan; the
        // density order is cached and re-sorted only after events that
        // reshuffle densities wholesale (defrag, trim, chain growth).
        if (sh.fallbackHint < sh.heaps.size() &&
            sh.fallbackHint != sh.cursor) {
            probes++;
            r = sh.heaps[sh.fallbackHint]->allocFromFreeList(id, size);
            if (r.ok) {
                sh.cursor = sh.fallbackHint;
                telemetry::record(telemetry::Hist::AllocMissDepth, probes);
                return reinterpret_cast<void *>(r.addr);
            }
        }
        if (sh.orderDirty)
            rebuildDensityOrderLocked(sh);
        for (size_t i : sh.densityOrder) {
            if (i == sh.cursor)
                continue;
            probes++;
            r = sh.heaps[i]->allocFromFreeList(id, size);
            if (r.ok) {
                sh.cursor = i;
                sh.fallbackHint = i;
                telemetry::record(telemetry::Hist::AllocMissDepth, probes);
                return reinterpret_cast<void *>(r.addr);
            }
        }
        // Holes-anywhere before bumping: the home chain has no
        // reusable hole left, but another shard may (a store that
        // emptied, a thread that went idle). Reusing those keeps the
        // global extent from growing — the single-chain design got
        // this for free, and losing it makes every shard's bump slack
        // permanent until defrag. try_lock keeps the probe
        // deadlock-free (two shards can probe each other) and skips
        // shards that are busy allocating (their holes are being
        // reused locally anyway). Only dense heaps are stolen from:
        // a sparse heap is exactly what a relocation campaign drains,
        // and its LIFO free list would hand a just-evacuated block
        // right back, undoing the compaction as fast as it happens —
        // while filling a dense heap's hole is the same placement the
        // campaign itself prefers.
        for (size_t step = 1; step < shards_.size(); step++) {
            const size_t other_idx =
                (shard_idx + step) & (shards_.size() - 1);
            Shard &other = *shards_[other_idx];
            auto other_guard = lockShard(other, std::try_to_lock);
            if (!other_guard.owns_lock())
                continue;
            for (auto &heap : other.heaps) {
                if (heap->liveBytes() * 2 < heap->extent())
                    continue; // sparse: a campaign's source, not ours
                probes++;
                r = heap->allocFromFreeList(id, size);
                if (r.ok) {
                    telemetry::count(telemetry::Counter::ShardHoleSteal);
                    telemetry::traceInstant("shard_steal");
                    telemetry::record(telemetry::Hist::AllocMissDepth,
                                      probes);
                    return reinterpret_cast<void *>(r.addr);
                }
            }
        }
        for (size_t i : sh.densityOrder) {
            if (i == sh.cursor)
                continue;
            probes++;
            r = sh.heaps[i]->alloc(id, size);
            if (r.ok) {
                sh.cursor = i;
                sh.fallbackHint = i;
                telemetry::record(telemetry::Hist::AllocMissDepth, probes);
                return reinterpret_cast<void *>(r.addr);
            }
        }
    }

    SubHeap *fresh = addSubHeapLocked(
        sh, static_cast<uint32_t>(shard_idx), heap_bytes);
    sh.cursor = sh.heaps.size() - 1;
    auto r = fresh->alloc(id, size);
    ALASKA_ASSERT(r.ok, "fresh sub-heap cannot satisfy %zu bytes", size);
    if (probes > 0)
        telemetry::record(telemetry::Hist::AllocMissDepth, probes + 1);
    return reinterpret_cast<void *>(r.addr);
}

void
AnchorageService::free(uint32_t id, void *ptr)
{
    (void)id;
    const uint64_t addr = reinterpret_cast<uint64_t>(ptr);
    const HeapRegion *region = regionOf(addr);
    ALASKA_ASSERT(region != nullptr, "free of pointer outside the heap");
    Shard &sh = *shards_[region->shard];
    if (region->shard == homeShardIndex()) {
        auto guard = lockShard(sh);
        region->heap->free(addr);
        return;
    }
    // Another shard's block (typically one a defrag pass moved there):
    // leave it in that shard's inbox rather than contend for the
    // owner's lock. The block still looks live until the next lock
    // holder applies the inbox, but hfree already cleared its entry,
    // so no mover will touch it.
    telemetry::count(telemetry::Counter::CrossShardFree);
    bool full = false;
    {
        std::lock_guard<std::mutex> guard(sh.inboxMutex);
        sh.inbox.push_back(RemoteFree{region->heap, addr});
        sh.inboxPending.store(true, std::memory_order_relaxed);
        full = sh.inbox.size() >= inboxCapacity;
    }
    if (full)
        lockShard(sh); // applies the inbox, then unlocks
}

size_t
AnchorageService::usableSize(const void *ptr) const
{
    const HeapRegion *region = regionOf(reinterpret_cast<uint64_t>(ptr));
    if (!region)
        return 0;
    auto guard = lockShard(*shards_[region->shard]);
    const int idx =
        region->heap->findBlock(reinterpret_cast<uint64_t>(ptr));
    return idx < 0 ? 0 : region->heap->block(idx).size;
}

size_t
AnchorageService::heapExtent() const
{
    size_t total = 0;
    for (const auto &sh : shards_) {
        auto guard = lockShard(*sh);
        for (const auto &heap : sh->heaps)
            total += heap->extent();
    }
    return total;
}

size_t
AnchorageService::activeBytes() const
{
    size_t total = 0;
    for (const auto &sh : shards_) {
        auto guard = lockShard(*sh);
        for (const auto &heap : sh->heaps)
            total += heap->liveBytes();
    }
    return total;
}

double
AnchorageService::fragmentation() const
{
    size_t extent = 0, active = 0;
    for (const auto &sh : shards_) {
        auto guard = lockShard(*sh);
        for (const auto &heap : sh->heaps) {
            extent += heap->extent();
            active += heap->liveBytes();
        }
    }
    return active == 0 ? 1.0
                       : static_cast<double>(extent) /
                             static_cast<double>(active);
}

size_t
AnchorageService::subHeapCount() const
{
    size_t total = 0;
    for (const auto &sh : shards_) {
        auto guard = lockShard(*sh);
        total += sh->heaps.size();
    }
    return total;
}

AnchorageService::ShardStats
AnchorageService::shardStats(size_t shard) const
{
    ALASKA_ASSERT(shard < shards_.size(), "shard %zu out of range",
                  shard);
    ShardStats stats;
    const Shard &sh = *shards_[shard];
    auto guard = lockShard(sh);
    stats.subHeaps = sh.heaps.size();
    for (const auto &heap : sh.heaps) {
        stats.extent += heap->extent();
        stats.liveBytes += heap->liveBytes();
        stats.freeBytes += heap->freeBytes();
    }
    return stats;
}

DefragStats
AnchorageService::defrag(size_t max_bytes)
{
    // The monolithic barrier is the degenerate batched pass: one step
    // with an unbounded batch drives the pass to its end state inside
    // a single barrier.
    BatchedPass pass = beginBatchedDefrag(max_bytes);
    DefragStats stats = pass.step(SIZE_MAX);
    ALASKA_ASSERT(pass.done(),
                  "an unbatched pass must finish in one barrier");
    return stats;
}

DefragStats
AnchorageService::defragFully()
{
    DefragStats total;
    for (;;) {
        const DefragStats pass = defrag(SIZE_MAX);
        total.accumulate(pass);
        if (pass.movedBytes == 0 && pass.reclaimedBytes == 0)
            break;
    }
    return total;
}

// --- batched passes (paper §6 pause-time story) ----------------------------

AnchorageService::BatchedPass::BatchedPass(AnchorageService &service,
                                           size_t max_bytes)
    : service_(&service), budget_(max_bytes > 0 ? max_bytes : 1)
{
}

DefragStats
AnchorageService::BatchedPass::step(size_t batch_bytes)
{
    // 0 means unbatched, matching ControlParams::batchBytes — without
    // this a zero budget would run a barrier that can make no progress.
    return service_->batchBarrier(*this,
                                  batch_bytes > 0 ? batch_bytes
                                                  : SIZE_MAX);
}

AnchorageService::BatchedPass
AnchorageService::beginBatchedDefrag(size_t max_bytes)
{
    return BatchedPass(*this, max_bytes);
}

DefragStats
AnchorageService::batchBarrier(BatchedPass &pass, size_t batch_bytes)
{
    ALASKA_ASSERT(runtime_ != nullptr, "service not attached");
    DefragStats stats;
    if (pass.done_)
        return stats;
    runtime_->barrier([&](const PinnedSet &pinned) {
        Stopwatch watch;
        // The world is stopped, so no registered thread holds a shard
        // lock; still take every lock (index order) so unregistered
        // allocator threads cannot race the move loop either. Taking
        // each lock applies that shard's inbox, so the ranking and the
        // move loop see every remote free made before the stop.
        std::vector<std::unique_lock<std::mutex>> locks;
        locks.reserve(shards_.size());
        for (auto &sh : shards_)
            locks.push_back(lockShard(*sh));
        moveBatchLocked(pass, pinned, batch_bytes, stats);
        stats.measuredSec = watch.elapsedSec();
        stats.modeledSec = kModelPauseFloor +
                           static_cast<double>(stats.movedBytes) /
                               kModelBandwidth;
        stats.barriers = 1;
        stats.maxBarrierBytes = stats.movedBytes;
        stats.maxBarrierSec = stats.measuredSec;
        stats.maxBarrierModeledSec = stats.modeledSec;
    });
    pass.totals_.accumulate(stats);
    return stats;
}

void
AnchorageService::moveBatchLocked(BatchedPass &pass,
                                  const PinnedSet &pinned,
                                  size_t batch_bytes, DefragStats &stats)
{
    if (!pass.ranked_) {
        // First barrier: rank every sub-heap of every shard
        // emptiest-first. Cheap-to-empty heaps are sources; denser
        // heaps (later ranks) are destinations. The ranking is global,
        // which is what makes the pass a cross-shard stealer — a
        // sparse shard's chain evacuates into any denser shard's
        // holes — and it is ranked once per pass, so every barrier of
        // the pass works the same plan a monolithic barrier would.
        for (uint32_t s = 0; s < shards_.size(); s++) {
            for (const auto &heap : shards_[s]->heaps)
                pass.order_.push_back(HeapRef{s, heap.get()});
        }
        std::stable_sort(pass.order_.begin(), pass.order_.end(),
                         [](HeapRef a, HeapRef b) {
                             return occupancyOf(*a.heap) <
                                    occupancyOf(*b.heap);
                         });
        pass.ranked_ = true;
    }

    // Shards whose densities this barrier changes (move sources and
    // destinations, trimmed heaps): only their placement caches need
    // dropping, so a 16-shard heap does not pay 16 cache rebuilds per
    // 256 KiB barrier on the mutator's alloc-miss path.
    std::vector<bool> touched(shards_.size(), false);

    size_t barrier_budget = std::min(batch_bytes, pass.budget_);
    while (pass.rank_ < pass.order_.size() && pass.budget_ > 0 &&
           barrier_budget > 0) {
        const HeapRef ref = pass.order_[pass.rank_];
        SubHeap &src = *ref.heap;
        const int top = static_cast<int>(src.blockCount()) - 1;
        if (pass.cursor_ < 0) {
            // Entering this source fresh: snapshot its holes and start
            // at the top of its extent (§4.3 walks downward).
            pass.index_ = src.buildCompactionIndex();
            pass.cursor_ = top;
        } else if (pass.cursor_ > top) {
            // A trim between barriers popped trailing blocks past the
            // saved cursor; the blocks below it kept their indices.
            pass.cursor_ = top;
        }
        int i = pass.cursor_;
        for (; i >= 0 && barrier_budget > 0; i--) {
            if (src.isFreeAt(i))
                continue;
            const Block blk = src.block(i);
            if (pinned.contains(blk.handleId)) {
                stats.pinnedSkips++;
                continue;
            }
            // Skip blocks the handle table disagrees with: a campaign
            // interrupted by this barrier may have left limbo-parked
            // sources (entry already points at the committed copy) and
            // claimed-but-uncommitted destinations (entry still points
            // at the marked source). Blindly moving either would copy
            // stale bytes over the object's live location. A *marked*
            // source still pointing here is fair game — our move CAS
            // replaces the mark and the campaign's commit CAS aborts.
            // The word is the one contains() just read, so this load
            // hits.
            auto &entry = runtime_->table().entry(blk.handleId);
            void *cur = entry.ptr.load(std::memory_order_seq_cst);
            if (reloc::unmarked(cur) != reinterpret_cast<void *>(blk.addr))
                continue;
            void *const marked = reloc::marked(cur);

            // First choice: a hole strictly below the object in its own
            // sub-heap (classic compaction). Second: any denser sub-heap
            // in the global ranking, densest last.
            SubHeapAlloc dest{false, 0};
            SubHeap *dest_heap = &src;
            const int dest_idx =
                src.popLowestFreeBelow(pass.index_, blk.size, blk.addr);
            if (dest_idx >= 0) {
                src.claimBlock(dest_idx, blk.handleId, blk.size);
                dest = {true, src.block(dest_idx).addr};
            } else {
                for (size_t r2 = pass.order_.size();
                     r2-- > pass.rank_ + 1;) {
                    SubHeap &cand = *pass.order_[r2].heap;
                    // Never bump an empty heap: occupancyOf ranks
                    // extent-0 heaps densest (a source-selection
                    // convention), but filling one only relocates
                    // extent — and a heap another rank of this very
                    // pass just evacuated would ping-pong the whole
                    // chain between shards, pass after pass.
                    if (cand.extent() == 0)
                        continue;
                    dest = cand.alloc(blk.handleId, blk.size);
                    if (dest.ok) {
                        dest_heap = &cand;
                        touched[pass.order_[r2].shard] = true;
                        break;
                    }
                }
            }
            if (!dest.ok)
                continue;

            // Move with the campaign's handshake: mark, copy, then one
            // CAS from the marked word republishes the object at its
            // new address for every alias. An unregistered thread may
            // still pin the object: a pin before the mark fails the
            // mark CAS, and one during the copy clears the mark (also
            // when it unpins before the copy ends), so the move CAS
            // fails, and so does a campaign's commit that beat us. In
            // each case the move yields and the copy is dropped.
            if (cur != marked &&
                !entry.ptr.compare_exchange_strong(
                    cur, marked, std::memory_order_seq_cst)) {
                dest_heap->free(dest.addr);
                continue;
            }
            space_.copy(dest.addr, blk.addr, blk.size);
            void *expected = marked;
            if (!entry.ptr.compare_exchange_strong(
                    expected, reinterpret_cast<void *>(dest.addr),
                    std::memory_order_seq_cst)) {
                dest_heap->free(dest.addr);
                continue;
            }
            src.freeBlockAt(i);
            stats.movedObjects++;
            stats.movedBytes += blk.size;
            touched[ref.shard] = true;
            barrier_budget -=
                std::min<size_t>(barrier_budget, blk.size);
            pass.budget_ -= std::min<size_t>(pass.budget_, blk.size);
        }
        if (i < 0) {
            // Walked off this source: reclaim its tail now so
            // reclamation keeps pace with the walk.
            const size_t trimmed = src.trimTop();
            stats.reclaimedBytes += trimmed;
            if (trimmed > 0)
                touched[ref.shard] = true;
            pass.rank_++;
            pass.cursor_ = -1;
        } else {
            // Batch budget exhausted mid-source: resume here next
            // barrier. The hole index stays valid across the gap —
            // its entries are validated on pop. Trim the evacuated
            // tail before the world resumes, or a mutator's LIFO
            // free-list reuse between barriers would hand the
            // just-evacuated blocks right back and strand the extent
            // above the bump forever (the cursor clamp on re-entry
            // absorbs the popped trailing indices).
            const size_t trimmed = src.trimTop();
            stats.reclaimedBytes += trimmed;
            if (trimmed > 0)
                touched[ref.shard] = true;
            pass.cursor_ = i;
        }
    }

    if (pass.rank_ >= pass.order_.size() || pass.budget_ == 0) {
        pass.done_ = true;
        // The final sweep trims every shard's heaps, so every shard's
        // placement caches are stale regardless of `touched`.
        finishPassLocked(stats);
        for (auto &sh : shards_)
            invalidatePlacementLocked(*sh);
        return;
    }

    // Densities shifted under this barrier's moves and trims: drop the
    // placement caches of the shards it touched before the mutators
    // resume (they allocate between barriers).
    for (size_t s = 0; s < shards_.size(); s++) {
        if (touched[s])
            invalidatePlacementLocked(*shards_[s]);
    }
}

void
AnchorageService::finishPassLocked(DefragStats &stats)
{
    // Give every sub-heap's trailing pages back to the kernel — this
    // also catches destination heaps whose tails the moves freed and
    // sub-heaps created after the pass was ranked. Coalesce first:
    // with the pass done no CompactionIndex is live, so the evacuated
    // class-exact holes can fuse into arbitrary-size holes (and into
    // longer trimmable tails).
    for (auto &sh : shards_) {
        for (auto &heap : sh->heaps) {
            heap->coalesceHoles();
            stats.reclaimedBytes += heap->trimTop();
        }
    }

    // Retire superseded region snapshots. Safe exactly here: the world
    // is stopped, so registered threads cannot be inside regionOf()
    // (heap-op threads are registered — the repo-wide contract the
    // barrier itself already relies on), and every shard lock is held,
    // so no addSubHeapLocked() is mid-publish. Without this pruning a
    // long-running service retains one snapshot per sub-heap ever
    // created — quadratic bytes in the sub-heap count.
    std::lock_guard<std::mutex> guard(regionsMutex_);
    const auto *current = regions_.load(std::memory_order_relaxed);
    auto keep = std::remove_if(
        ownedRegionMaps_.begin(), ownedRegionMaps_.end(),
        [&](const auto &snap) { return snap.get() != current; });
    ownedRegionMaps_.erase(keep, ownedRegionMaps_.end());
}

// --- concurrent relocation campaigns (paper §7) ----------------------------

DefragStats
AnchorageService::relocateCampaign(size_t max_bytes)
{
    ALASKA_ASSERT(runtime_ != nullptr, "service not attached");
    Stopwatch watch;
    DefragStats stats;

    // Single-mover invariant: the mark protocol assumes exactly one
    // relocator, so a second concurrent caller backs off empty-handed.
    bool expected = false;
    if (!campaignActive_.compare_exchange_strong(expected, true))
        return stats;
    telemetry::TraceSpan campaign_span("campaign");

    // Demand the scoped discipline for the campaign's duration, for
    // accessors that pick their idiom dynamically. Nothing waits here:
    // scoped reads strip the mark whether or not a campaign runs, so a
    // scope already open cannot misread a move, and the grace tickets
    // below hold back only the reclaim of what it may still read.
    Runtime::declareConcurrentDefrag();

    // Rank every shard's sub-heaps emptiest-first once per campaign
    // (one shard lock at a time); sparse heaps anywhere are evacuated
    // into denser ones anywhere, like the stop-the-world pass. While
    // visiting each shard, steer its fresh allocations to its densest
    // heap (with an extent to fill) for the campaign's duration: the
    // LIFO free lists would otherwise hand a just-evacuated top block
    // right back to the next allocation, undoing the compaction as
    // fast as it happens.
    std::vector<HeapRef> order;
    std::vector<double> occupancy;
    for (uint32_t s = 0; s < shards_.size(); s++) {
        Shard &sh = *shards_[s];
        auto guard = lockShard(sh);
        double best = -1.0;
        size_t best_idx = SIZE_MAX;
        for (uint32_t h = 0; h < sh.heaps.size(); h++) {
            const double occ = occupancyOf(*sh.heaps[h]);
            // The pointer, not the index: the destination search reads
            // its fit hints without this lock, while a mutator may be
            // reallocating sh.heaps.
            order.push_back(HeapRef{s, sh.heaps[h].get()});
            occupancy.push_back(occ);
            if (sh.heaps[h]->extent() > 0 && occ >= best) {
                best = occ;
                best_idx = h;
            }
        }
        if (best_idx != SIZE_MAX)
            sh.cursor = best_idx;
    }
    {
        std::vector<size_t> perm(order.size());
        for (size_t i = 0; i < perm.size(); i++)
            perm[i] = i;
        std::stable_sort(perm.begin(), perm.end(),
                         [&](size_t a, size_t b) {
                             return occupancy[a] < occupancy[b];
                         });
        std::vector<HeapRef> sorted;
        sorted.reserve(order.size());
        for (size_t i : perm)
            sorted.push_back(order[i]);
        order.swap(sorted);
    }

    size_t budget = max_bytes;
    const bool registered =
        runtime_->currentThreadStateOrNull() != nullptr;
    std::vector<Candidate> candidates;
    std::vector<LimboBlock> limbo;
    size_t limbo_bytes = 0;
    std::deque<PendingReclaim> pending;
    size_t pending_bytes = 0;
    for (size_t rank = 0; rank < order.size() && budget > 0; rank++) {
        const HeapRef src_ref = order[rank];
        // Snapshot this source's live blocks (top of the extent
        // downward, §4.3) and its holes immediately before walking it:
        // under mutator churn a campaign-start snapshot goes stale in
        // milliseconds, and the holes the churn opens are exactly the
        // destinations the walk needs. The snapshot is still advisory —
        // every candidate is revalidated at move time.
        candidates.clear();
        SubHeap::CompactionIndex index;
        {
            auto guard = lockShard(*shards_[src_ref.shard]);
            SubHeap &heap = *src_ref.heap;
            size_t snapshotted = 0;
            for (size_t i = heap.blockCount();
                 i-- > 0 && snapshotted < budget;) {
                if (heap.isFreeAt(i))
                    continue;
                const Block blk = heap.block(i);
                candidates.push_back(Candidate{blk.handleId, blk.addr,
                                               blk.size, src_ref, rank});
                snapshotted += blk.size;
            }
            if (!candidates.empty())
                index = heap.buildCompactionIndex();
        }
        size_t consecutive_no_space = 0;
        DestCache cache;
        for (const Candidate &cand : candidates) {
            if (budget == 0)
                break;
            // Keep barriers raised by other threads (SwapService, a
            // direct defrag()) short: the mover reaches a safepoint
            // between every two object moves, with no mark ever
            // outstanding across a poll. Drain the reclaim
            // pipeline before parking (parked threads hold no scopes,
            // so the grace waits cannot deadlock with the barrier):
            // the STW pass skips blocks whose HTE disagrees, but
            // retiring them first keeps its view exact. A barrier
            // raised between this check and the poll is still safe —
            // only slower — thanks to that skip.
            if (registered && Runtime::barrierPending()) {
                sealLimboBatch(pending, limbo, limbo_bytes,
                               pending_bytes);
                drainPending(pending, pending_bytes, 0, stats);
            }
            if (registered)
                poll();
            const uint64_t no_space_before = stats.noSpace;
            const size_t limbo_before = limbo.size();
            relocateOneConcurrent(cand, order, index, cache, stats,
                                  limbo, budget);
            if (limbo.size() != limbo_before) {
                consecutive_no_space = 0;
                limbo_bytes += limbo.back().bytes;
                // Enough sources parked: seal the batch behind a grace
                // ticket and keep moving — the grace runs out in the
                // background while later candidates are copied.
                if (limbo_bytes >= kGraceBatchBytes)
                    sealLimboBatch(pending, limbo, limbo_bytes,
                                   pending_bytes);
                // Retire whatever already drained; stall only when the
                // outstanding limbo bytes exceed the overshoot cap.
                drainPending(pending, pending_bytes,
                             kLimboCapBytes > limbo_bytes
                                 ? kLimboCapBytes - limbo_bytes
                                 : 0,
                             stats);
            } else if (stats.noSpace != no_space_before) {
                consecutive_no_space++;
            }
            // Once this source's downward holes and every denser heap
            // are exhausted, deeper (lower-addressed) candidates fare
            // even worse: stop paying a lock acquisition per candidate
            // and let the next campaign rescan.
            if (consecutive_no_space > 1024)
                break;
        }
        // Seal this source's remaining parked blocks and hand the
        // source to the batch that will free the last of them: batches
        // retire FIFO, so by the time that batch's grace elapses every
        // block this source parked is free, its holes coalesce, and
        // its emptied tail is trimmable — without the walk stalling
        // here for a grace. Later sources never use an earlier
        // (sparser) heap as a destination, so deferring the trim never
        // misdirects placement.
        sealLimboBatch(pending, limbo, limbo_bytes, pending_bytes);
        if (!pending.empty())
            pending.back().sources.push_back(src_ref);
        else
            finishSource(src_ref, stats);
    }
    // A budget cut mid-source can leave parked sources behind; retire
    // every batch (and its deferred source trims) before returning: no
    // source outlives the campaign that parked it.
    sealLimboBatch(pending, limbo, limbo_bytes, pending_bytes);
    drainPending(pending, pending_bytes, 0, stats);

    // Final sweep: trailing holes opened by mutator frees during the
    // campaign, and destination heaps whose tails the moves freed.
    for (auto &sh : shards_) {
        auto guard = lockShard(*sh);
        for (auto &heap : sh->heaps)
            stats.reclaimedBytes += heap->trimTop();
        invalidatePlacementLocked(*sh);
    }

    Runtime::retireConcurrentDefrag();
    campaignActive_.store(false, std::memory_order_release);

    stats.measuredSec = watch.elapsedSec();
    // No pause floor: nothing stops, only copy bandwidth is spent.
    stats.modeledSec =
        static_cast<double>(stats.movedBytes) / kModelBandwidth;
    return stats;
}

void
AnchorageService::relocateOneConcurrent(const Candidate &cand,
                                        const std::vector<HeapRef> &order,
                                        SubHeap::CompactionIndex &index,
                                        DestCache &cache,
                                        DefragStats &stats,
                                        std::vector<LimboBlock> &limbo,
                                        size_t &budget)
{
    auto &entry = runtime_->table().entry(cand.id);

    // Revalidate against the live entry: the object may have been
    // freed, reallocated elsewhere, or already moved since the
    // snapshot. A stale candidate is skipped without counting; pins
    // are the mark CAS's to refuse.
    if ((entry.word(std::memory_order_acquire) &
         ~HandleTableEntry::pinCountMask) != cand.addr)
        return;
    void *const old_ptr = reinterpret_cast<void *>(cand.addr);

    // Phase A.1: claim a strictly better destination — a lower hole in
    // the source sub-heap, else a hole (then a bump) in any denser
    // sub-heap of any shard. One shard lock at a time: the source is
    // revalidated under its own lock, and a cross-shard destination is
    // claimed under the destination shard's lock only. The source can
    // change between those two sections — that is fine, because the
    // claim merely reserves space; the mark CAS below (and the commit
    // CAS after the copy) are what arbitrate against every mutator
    // interleaving. Doing all of this *before* marking keeps the
    // common no-hole outcome free of CAS traffic on the entry.
    uint64_t dest_addr = 0;
    SubHeap *dest_heap = nullptr;
    uint32_t dest_shard = 0;
    size_t bytes = 0;
    {
        auto guard = lockShard(*shards_[cand.src.shard]);
        SubHeap &src = *cand.src.heap;
        // Freed, and possibly reused, since the snapshot: skip it.
        const int src_idx = src.findBlock(cand.addr);
        if (src_idx < 0)
            return;
        const Block blk = src.block(src_idx);
        if (blk.handleId != cand.id)
            return;
        bytes = blk.size;
        const int dest_idx =
            src.popLowestFreeBelow(index, bytes, cand.addr);
        if (dest_idx >= 0) {
            src.claimBlock(dest_idx, cand.id, bytes);
            dest_addr = src.block(dest_idx).addr;
            dest_heap = &src;
            dest_shard = cand.src.shard;
        }
    }
    // Every cross-heap destination below is locked only when its fit
    // hints, read without the lock through the ranking's stable
    // pointer, say the object may fit, or when its shard's inbox holds
    // remote frees: the hints cannot see those until a lock holder
    // applies them, and taking the lock does. A candidate with nowhere
    // to go thus costs a scan of loads, not two lock acquisitions per
    // denser sub-heap. The locked call still decides, since a hint may
    // be stale under live traffic; at quiescence (inboxes empty) a
    // "no" here is exactly the locked call's failure, so placement
    // does not change.
    auto worthLocking = [this](const HeapRef &ref, bool hint_fits) {
        return hint_fits || shards_[ref.shard]->inboxPending.load(
                                std::memory_order_relaxed);
    };
    // Cached destination first: one lock, one probe. The cache only
    // ever holds a rank strictly denser than the current source (ranks
    // are campaign-global and sources are walked sparsest-first), and
    // a miss falls through to the full scans, which refresh it.
    if (dest_heap == nullptr && cache.rank != SIZE_MAX &&
        cache.rank > cand.rank) {
        const HeapRef ref = order[cache.rank];
        SubHeap &heap = *ref.heap;
        if (worthLocking(ref, heap.extent() > 0 && heap.mayAlloc(bytes))) {
            auto guard = lockShard(*shards_[ref.shard]);
            if (heap.extent() > 0) {
                const SubHeapAlloc r = heap.alloc(cand.id, bytes);
                if (r.ok) {
                    dest_addr = r.addr;
                    dest_heap = &heap;
                    dest_shard = ref.shard;
                }
            }
        }
    }
    if (dest_heap == nullptr) {
        // Prefer an existing hole in any denser heap; falling back to a
        // bump there is still a win (region-evacuation style): standing
        // holes rarely match every candidate's size class, and bumping
        // a dense heap lets the source's whole tail trim, a net extent
        // reduction for any source below full occupancy.
        for (size_t r2 = order.size(); r2-- > cand.rank + 1;) {
            const HeapRef ref = order[r2];
            if (!worthLocking(ref, ref.heap->mayReuse(bytes)))
                continue;
            auto guard = lockShard(*shards_[ref.shard]);
            const SubHeapAlloc r = ref.heap->allocFromFreeList(cand.id,
                                                               bytes);
            if (r.ok) {
                dest_addr = r.addr;
                dest_heap = ref.heap;
                dest_shard = ref.shard;
                cache.rank = r2;
                break;
            }
        }
        for (size_t r2 = order.size();
             dest_heap == nullptr && r2-- > cand.rank + 1;) {
            const HeapRef ref = order[r2];
            SubHeap &heap = *ref.heap;
            // Never bump an empty heap: occupancyOf ranks extent-0
            // heaps densest (a source-selection convention), but as a
            // destination that would regrow a fully evacuated region.
            if (!worthLocking(ref, heap.extent() > 0 &&
                                       heap.mayAlloc(bytes)))
                continue;
            auto guard = lockShard(*shards_[ref.shard]);
            if (heap.extent() == 0)
                continue;
            const SubHeapAlloc r = heap.alloc(cand.id, bytes);
            if (r.ok) {
                dest_addr = r.addr;
                dest_heap = &heap;
                dest_shard = ref.shard;
                cache.rank = r2;
                break;
            }
        }
    }
    if (dest_heap == nullptr) {
        stats.attempts++;
        stats.noSpace++;
        telemetry::count(telemetry::Counter::CampaignNoSpace);
        return;
    }
    auto releaseDest = [&] {
        Shard &dsh = *shards_[dest_shard];
        auto guard = lockShard(dsh);
        dest_heap->free(dest_addr);
    };

    // Phase A.2: mark, in a CAS that expects the bare address — no
    // pins, no mark. Pinned objects cannot move: a pin (pinned<T> /
    // ConcurrentPin / the KV policies' write() — the only per-object
    // pins left) taken before our mark holds a raw pointer its holder
    // may store through, and fails this CAS; one taken after clears
    // the mark and fails the commit CAS. This pair of CASes is the
    // whole write-side handshake — it is why no grace period is needed
    // before the copy below. Any other failure means an accessor or
    // the free path beat us since the load.
    stats.attempts++;
    void *seen = old_ptr;
    if (!entry.ptr.compare_exchange_strong(seen, reloc::marked(old_ptr),
                                           std::memory_order_seq_cst)) {
        releaseDest();
        stats.aborted++;
        if (HandleTableEntry::pinCountOf(HandleTableEntry::bitsOf(seen)))
            stats.pinnedSkips++;
        telemetry::count(telemetry::Counter::CampaignAbort);
        return;
    }

    // Phase B: copy and commit, immediately — the abort window is the
    // copy itself, not a grace period. Scoped accessors may keep
    // *reading* pre-mark translations throughout (the source bytes
    // survive on limbo until their batch's grace elapses), any writer
    // pins: pre-mark pins were caught above, a pin taken during the
    // copy counts itself in the word and clears our mark, so the CAS
    // below fails, discarding the torn copy.
    Stopwatch copy_watch;
    space_.copy(dest_addr, cand.addr, bytes);
    telemetry::record(telemetry::Hist::CampaignCopyNs,
                      copy_watch.elapsedNs());
    void *expected = reloc::marked(old_ptr);
    if (entry.ptr.compare_exchange_strong(
            expected, reinterpret_cast<void *>(dest_addr),
            std::memory_order_seq_cst)) {
        // Commit success proves no hfree/hrealloc intervened (either
        // would have replaced the marked pointer), so the source block
        // is still ours — but scopes that translated it before the
        // commit may read it until they close: park it on limbo
        // instead of freeing inline.
        limbo.push_back(LimboBlock{cand.src, cand.addr,
                                   static_cast<uint32_t>(bytes)});
        stats.limboParked++;
        stats.committed++;
        stats.movedObjects++;
        stats.movedBytes += bytes;
        budget -= std::min(budget, bytes);
        telemetry::count(telemetry::Counter::CampaignCommit);
    } else {
        releaseDest();
        stats.aborted++;
        telemetry::count(telemetry::Counter::CampaignAbort);
    }
}

void
AnchorageService::sealLimboBatch(std::deque<PendingReclaim> &pending,
                                 std::vector<LimboBlock> &limbo,
                                 size_t &limbo_bytes,
                                 size_t &pending_bytes)
{
    if (limbo.empty())
        return;
    PendingReclaim batch;
    batch.ticket = runtime_->beginGrace();
    batch.blocks = std::move(limbo);
    batch.bytes = limbo_bytes;
    batch.sealNs = telemetry::traceNowNs();
    telemetry::count(telemetry::Counter::LimboSeal);
    telemetry::traceInstant("limbo_seal");
    limbo.clear();
    pending_bytes += limbo_bytes;
    limbo_bytes = 0;
    pending.push_back(std::move(batch));
}

void
AnchorageService::drainPending(std::deque<PendingReclaim> &pending,
                               size_t &pending_bytes,
                               size_t target_bytes, DefragStats &stats)
{
    while (!pending.empty()) {
        PendingReclaim &front = pending.front();
        if (!runtime_->graceElapsed(front.ticket)) {
            if (pending_bytes <= target_bytes)
                return; // pipeline healthy: grace keeps running out in
                        // the background while the walk continues
            // Backpressure (or a drain point): the campaign's only
            // steady-state wait, paid on the *oldest* ticket — the one
            // closest to done — never per move.
            telemetry::count(telemetry::Counter::LimboStall);
            telemetry::TraceSpan stall_span("limbo_stall");
            Stopwatch watch;
            runtime_->waitForGrace(front.ticket);
            stats.graceWaits++;
            stats.graceWaitSec += watch.elapsedSec();
        }
        freeBatch(front, stats);
        const uint64_t retire_ns = telemetry::traceNowNs();
        if (front.sealNs != 0) {
            telemetry::record(telemetry::Hist::GraceAgeNs,
                              retire_ns - front.sealNs);
            telemetry::traceComplete("grace", front.sealNs, retire_ns);
        }
        telemetry::count(telemetry::Counter::LimboRetire);
        telemetry::traceInstant("limbo_retire");
        pending_bytes -= front.bytes;
        pending.pop_front();
    }
}

void
AnchorageService::freeBatch(PendingReclaim &batch, DefragStats &stats)
{
    // The grace elapsed: no accessor scope that could have translated
    // a parked source before its move committed is still open, so the
    // blocks are unreachable and safe to free.
    for (const LimboBlock &b : batch.blocks) {
        auto guard = lockShard(*shards_[b.src.shard]);
        SubHeap &src = *b.src.heap;
        const int idx = src.findBlock(b.addr);
        ALASKA_ASSERT(idx >= 0 && !src.isFreeAt(idx),
                      "limbo source block vanished");
        src.freeBlockAt(idx);
    }
    for (const HeapRef &src : batch.sources)
        finishSource(src, stats);
}

void
AnchorageService::finishSource(const HeapRef &src, DefragStats &stats)
{
    // Trim-after-evacuation: coalesce the class-exact holes the
    // evacuation left (the compaction index is spent by now, so
    // reindexing the blocks is safe) and give the emptied tail back, so
    // reclamation keeps pace with the campaign's walk.
    Shard &sh = *shards_[src.shard];
    auto guard = lockShard(sh);
    src.heap->coalesceHoles();
    stats.reclaimedBytes += src.heap->trimTop();
    invalidatePlacementLocked(sh);
}

} // namespace alaska::anchorage
