/**
 * @file
 * Anchorage (paper §4.3): a defragmenting heap allocator built as an
 * Alaska service. It exploits object mobility: at a stop-the-world
 * barrier it copies unpinned objects from the top of a source sub-heap
 * downward/elsewhere, updates their handle table entries (O(1) per
 * object), trims the freed tails, and returns them to the kernel with
 * MADV_DONTNEED.
 *
 * Allocation is sharded: the single sub-heap chain of the paper's
 * description is split into N per-shard chains, each with its own
 * mutex, active-sub-heap cursor, and placement cache. A thread
 * allocates from the shard selected by its HandleTable::threadOrdinal()
 * (the same mapping that picks its handle-ID free-list shard), so
 * halloc/hfree from different threads never touch the same lock unless
 * they collide mod the shard count. Frees locate the owning shard
 * through a lock-free region registry, so any thread can free any
 * pointer. A free of another shard's block does not take that shard's
 * lock: it is appended to the shard's remote-free inbox and applied by
 * whichever thread next takes the shard lock (the mimalloc/snmalloc
 * message-passing free).
 *
 * Defragmentation is a cross-shard stealer. Two execution models share
 * the move loop's placement policy: defrag() stops the world and may
 * hold every shard lock at once (paper §4.3), while relocateCampaign()
 * moves the same candidates concurrently with running mutators using
 * the speculative mark/copy/CAS protocol of paper §7, holding at most
 * one shard lock at any instant — see
 * services/concurrent_reloc_daemon.h for the background-thread
 * packaging and anchorage/control.h for the mode knob. Either way a
 * sparse shard's sub-heaps can be evacuated into another shard's holes,
 * so an idle fragmented shard is reclaimed by work done on behalf of
 * the whole heap.
 */

#ifndef ALASKA_ANCHORAGE_ANCHORAGE_SERVICE_H
#define ALASKA_ANCHORAGE_ANCHORAGE_SERVICE_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "anchorage/sub_heap.h"
#include "core/runtime.h"
#include "core/service.h"
#include "sim/address_space.h"

namespace alaska::anchorage
{

/** Anchorage configuration. */
struct AnchorageConfig
{
    /** Capacity of each sub-heap. */
    size_t subHeapBytes = 8ull << 20;
    /**
     * Number of independent allocation shards. Each shard owns its own
     * chain of sub-heaps; the calling thread's shard is
     * HandleTable::threadOrdinal() mod this count, matching the handle
     * table's 16-way free-list sharding so a thread's handle-ID shard
     * and heap shard coincide. Rounded up to a power of two and clamped
     * to [1, 256] at construction. Sub-heaps are created lazily, so a
     * single-threaded program pays for exactly one shard regardless of
     * this setting. See docs/TUNING.md for sizing guidance.
     */
    size_t shards = 16;
};

/**
 * Modeled copy bandwidth (bytes/sec) used to predict pause duration
 * for virtual-clock experiments (DefragStats::modeledSec); real-clock
 * users ignore it.
 */
constexpr double kModelBandwidth = 4.0e9;
/** Modeled fixed cost of one stop-the-world pause, seconds. */
constexpr double kModelPauseFloor = 200e-6;

/**
 * Outcome of one defragmentation action — a stop-the-world pass, a
 * concurrent relocation campaign, or an accumulation of both. One
 * struct serves both modes so the controller budgets them uniformly;
 * the attempt/abort counters are zero for pure STW passes. Counters
 * aggregate over every shard the action touched.
 */
struct DefragStats
{
    size_t movedObjects = 0;
    size_t movedBytes = 0;
    /** Bytes of extent trimmed and MADV_DONTNEED-ed. */
    size_t reclaimedBytes = 0;
    /** Objects skipped because they were pinned. */
    size_t pinnedSkips = 0;
    /** Wall-clock duration of the pass, seconds. */
    double measuredSec = 0;
    /** Modeled duration (bandwidth model), for virtual-clock runs. */
    double modeledSec = 0;

    // --- concurrent-campaign counters (paper §7) -----------------------
    /** Objects the campaign tried to move (marked, or tried to mark). */
    uint64_t attempts = 0;
    /** Moves that committed. */
    uint64_t committed = 0;
    /** Moves aborted by accessor interference (mark cleared, pinned,
     *  freed under the mover). pinnedSkips counts the pinned subset. */
    uint64_t aborted = 0;
    /** Moves abandoned for lack of a strictly better destination. */
    uint64_t noSpace = 0;

    // --- grace accounting (epoch-based campaigns) ----------------------
    /** Grace periods waited for (initial drain, limbo reclamation —
     *  never between a mark and its commit). */
    uint64_t graceWaits = 0;
    /** Total wall time spent waiting for grace, seconds. The
     *  controller budgets this as campaign time, not pause time —
     *  mutators never stop during a grace wait. */
    double graceWaitSec = 0;
    /** Committed source blocks parked on the limbo list (freed only
     *  after the next grace period). */
    uint64_t limboParked = 0;

    // --- per-barrier pause accounting (batched passes) -----------------
    /**
     * Stop-the-world barriers this action ran (0 for pure campaigns).
     * A batched pass accumulates one per step, so honest per-pause
     * numbers are max fields below, not the folded pauseSec sum.
     */
    uint64_t barriers = 0;
    /** Bytes moved inside the single largest barrier. */
    uint64_t maxBarrierBytes = 0;
    /** Longest single barrier, measured wall seconds. */
    double maxBarrierSec = 0;
    /** Longest single barrier under the bandwidth model. */
    double maxBarrierModeledSec = 0;

    /** Fraction of attempts that accessors aborted; 0 if none tried. */
    double
    abortRate() const
    {
        return attempts == 0
                   ? 0.0
                   : static_cast<double>(aborted) /
                         static_cast<double>(attempts);
    }

    /** Fold another action's outcome into this one. */
    void
    accumulate(const DefragStats &other)
    {
        movedObjects += other.movedObjects;
        movedBytes += other.movedBytes;
        reclaimedBytes += other.reclaimedBytes;
        pinnedSkips += other.pinnedSkips;
        measuredSec += other.measuredSec;
        modeledSec += other.modeledSec;
        attempts += other.attempts;
        committed += other.committed;
        aborted += other.aborted;
        noSpace += other.noSpace;
        graceWaits += other.graceWaits;
        graceWaitSec += other.graceWaitSec;
        limboParked += other.limboParked;
        barriers += other.barriers;
        maxBarrierBytes = std::max(maxBarrierBytes, other.maxBarrierBytes);
        maxBarrierSec = std::max(maxBarrierSec, other.maxBarrierSec);
        maxBarrierModeledSec =
            std::max(maxBarrierModeledSec, other.maxBarrierModeledSec);
    }
};

/**
 * The defragmenting allocator service.
 *
 * Locking model: all allocation state lives in the per-shard chains;
 * there is no service-wide mutex. The mutator-facing paths take at most
 * one shard lock — alloc() and a same-shard free() the calling thread's
 * home shard, usableSize() the shard owning the pointer (found via the
 * lock-free region registry). A free() of another shard's block takes
 * no shard lock: it appends (sub-heap, address) to the owning shard's
 * inbox under that shard's small inbox lock. Every shard-lock
 * acquisition in the service first applies the shard's inbox, so the
 * lock holder sees every free that completed before it locked; until
 * then an inboxed block still counts as live in its sub-heap, which is
 * safe because Runtime::hfree clears the block's handle-table entry
 * before it calls free(), and both movers skip a block whose entry no
 * longer points at it. Lock order is shard lock, then inbox lock.
 * Aggregate accessors visit the shards one at a time, so concurrent
 * callers may observe a transiently skewed sum; quiescent reads are
 * exact. defrag() runs inside a barrier holding every shard lock (and
 * applies every inbox before it ranks); relocateCampaign() holds at
 * most one shard lock at a time and relies on the §7 mark/commit
 * protocol for cross-shard atomicity.
 */
class AnchorageService : public Service
{
  public:
    /**
     * @param space where backing memory lives (real or phantom); must
     *        be safe for concurrent use (both implementations are)
     * @param config tuning knobs (shard count is normalized here)
     */
    explicit AnchorageService(AddressSpace &space,
                              AnchorageConfig config = {});

    // --- Service interface ----------------------------------------------
    /** Attach to the runtime. Not thread-safe; call before use. */
    void init(Runtime &runtime) override;
    /** Detach. Not thread-safe; call after all heap use has ceased. */
    void deinit() override;
    /**
     * Allocate size bytes for handle id. Shard-affine: the fast path
     * takes only the calling thread's home-shard lock, so concurrent
     * allocations from threads on different shards never contend. When
     * the home chain has no reusable hole, the miss path may steal a
     * standing hole from another shard's *dense* heaps (at least half
     * live) via a non-blocking try_lock probe — preserving the
     * single-chain design's holes-anywhere-before-bump invariant, so
     * one shard's frees remain reusable extent for every thread. The
     * density gate is what keeps stealing from fighting a concurrent
     * relocation campaign: sparse heaps are campaign sources, and
     * their LIFO free lists would hand a just-evacuated block right
     * back. Oversized requests (> subHeapBytes) get a dedicated
     * sub-heap in the home shard.
     */
    void *alloc(uint32_t id, size_t size) override;
    /**
     * Free a block previously returned by alloc(). Any thread may free
     * any pointer: the owning shard is found via the lock-free region
     * registry. A block of the calling thread's home shard is freed
     * under that shard's lock; a block of any other shard is deferred
     * to the owning shard's inbox without taking its lock, and becomes
     * a reusable hole when the next holder of that lock applies the
     * inbox. When an inbox reaches inboxCapacity entries the freeing
     * thread takes the shard lock and applies it itself, so the inbox
     * of a shard whose owner went idle stays bounded.
     */
    void free(uint32_t id, void *ptr) override;
    /** Block size backing ptr; 0 if unknown. Locks the owning shard. */
    size_t usableSize(const void *ptr) const override;
    /** Total used extent, summed shard by shard (transiently skewed
     *  under concurrent mutation; exact at quiescence). */
    size_t heapExtent() const override;
    /** Total live bytes, summed shard by shard (same caveat). */
    size_t activeBytes() const override;
    const char *name() const override { return "anchorage"; }

    // --- defragmentation ---------------------------------------------------
    /**
     * The paper's O(1) fragmentation metric: virtual extent of the heap
     * over total size of active objects, aggregated over every shard.
     * 1.0 when empty. Lock-light: one shard lock at a time.
     */
    double fragmentation() const;

    /**
     * Trigger a barrier and run one partial defragmentation pass moving
     * at most max_bytes of objects (the control algorithm passes
     * alpha * extent). Pinned objects are never moved. Inside the
     * barrier the pass holds every shard lock and may steal across
     * shards: sparse sub-heaps anywhere are evacuated into denser
     * sub-heaps anywhere. Implemented as a batched pass driven to
     * completion inside one barrier; use beginBatchedDefrag() to bound
     * each individual pause instead.
     */
    DefragStats defrag(size_t max_bytes);

  private:
    /**
     * Identifies one sub-heap: the shard whose lock guards it, and the
     * sub-heap itself. The pointer is captured under that lock and
     * stays valid for the service's life (chains only grow), so a
     * holder never indexes Shard::heaps again — which a mutator's
     * addSubHeapLocked() may reallocate — and may read the sub-heap's
     * fit hints without the lock.
     */
    struct HeapRef
    {
        uint32_t shard;
        SubHeap *heap;
    };

  public:
    /**
     * A resumable, budget-bounded defragmentation pass (the paper §6
     * pause-time story at larger heaps): one logical pass — same global
     * ranking, same end state as a monolithic defrag(max_bytes) barrier
     * — split into a sequence of short barriers, each moving at most
     * the step's batch budget. The ranking, the per-source cursor, and
     * the source's hole index are carried across barriers; mutators run
     * freely between steps, and anything they invalidate (trimmed
     * tails, reused holes) is revalidated when the next barrier enters.
     * Sub-heaps a mutator creates mid-pass are not ranked as sources
     * until the next pass, but their tails are still trimmed by the
     * final sweep.
     *
     * Driving contract: one defrag driver at a time (the same
     * single-driver rule as DefragController); the pass must not
     * outlive its service. Dropping an unfinished pass is safe — the
     * heap is consistent after every barrier; only the final
     * trim-everything sweep is skipped, and the next pass performs it.
     */
    class BatchedPass
    {
      public:
        /** True once the pass reached its end state (budget spent, or
         *  every ranked source walked) and ran its final sweep. */
        bool done() const { return done_; }

        /**
         * Run one barrier moving at most batch_bytes (saturated by the
         * pass's remaining budget; 0 = unbatched, the whole remaining
         * budget in this barrier). No-op once done(). Returns this
         * barrier's stats (barriers == 1, max* fields = this barrier).
         */
        DefragStats step(size_t batch_bytes);

        /** Stats accumulated over every barrier run so far. */
        const DefragStats &totals() const { return totals_; }

      private:
        friend class AnchorageService;
        BatchedPass(AnchorageService &service, size_t max_bytes);

        AnchorageService *service_;
        /** Remaining pass-wide move budget, bytes. */
        size_t budget_;
        /** Global emptiest-first source ranking; built in barrier #1. */
        std::vector<HeapRef> order_;
        bool ranked_ = false;
        bool done_ = false;
        /** Rank of the source currently being walked. */
        size_t rank_ = 0;
        /** Next block index to examine in that source (top-down walk);
         *  -1 = enter the source fresh at the next barrier. */
        int cursor_ = -1;
        /** Hole index of the current source (entries validated on pop,
         *  so it survives mutator interleavings between barriers). */
        SubHeap::CompactionIndex index_;
        DefragStats totals_;
    };

    /**
     * Begin a batched stop-the-world pass moving at most max_bytes in
     * total. Runs no barrier itself; drive the returned pass with
     * step().
     */
    BatchedPass beginBatchedDefrag(size_t max_bytes);

    /** Full defragmentation: repeat passes until no progress. */
    DefragStats defragFully();

    /**
     * One concurrent relocation campaign (paper §7, epoch-based):
     * move up to max_bytes of objects from sparse sub-heaps (of any
     * shard) to strictly better locations — no barrier, no stopped
     * world, and no waiting on the move path. Each move is mark ->
     * pin-check -> copy -> CAS-commit, back to back: the abort window
     * is the microsecond-scale copy, not a grace period, so mutators
     * touching the object mid-move are the only abort source. The
     * committed *source* block is not freed inline — it parks on a
     * per-campaign limbo list, and once 256 KiB of sources have parked
     * (or the campaign finishes a source sub-heap) the batch is sealed
     * behind a grace ticket (Runtime::beginGrace) and the walk
     * continues; batches are freed once their grace has elapsed in the
     * background, the campaign stalling only when 4 MiB of sources are
     * still outstanding (docs/TUNING.md). A batch's grace
     * proves every accessor scope that could hold a pre-commit
     * translation of a parked source has closed, so scoped readers
     * never observe freed memory. Writers are excluded by the pin
     * handshake
     * (pinned<T> / the KV policies' write()) — a pin seen at the
     * pin-check defers the move; a pin taken later aborts it via the
     * mark — which is why the grace wait can come *after* commit.
     *
     * Holds at most one shard lock at any instant and never a lock
     * across a grace wait: destinations are claimed under the
     * destination shard's lock, copies run lock-free, sources are
     * freed under the source shard's lock after reclamation. The
     * destination search locks only sub-heaps whose fit hints
     * (SubHeap::mayReuse / mayAlloc, read without the lock) say the
     * object may fit, or whose shard's inbox holds remote frees that
     * the lock would apply, so a candidate with nowhere to go costs a
     * scan of lock-free loads, not a lock acquisition per denser
     * sub-heap; the locked call still decides, and at quiescence
     * (inboxes empty) the hints are exact, so placement is the same as
     * locking every one. Mutators must translate through the scoped
     * path (services/concurrent_reloc.h) while campaigns can run. At
     * most one campaign runs at a time; a second caller returns an
     * empty result immediately.
     *
     * Calls from a runtime-registered thread poll safepoints between
     * objects, so a barrier raised by another thread (SwapService, a
     * direct defrag()) never waits on more than one in-flight object
     * move.
     */
    DefragStats relocateCampaign(size_t max_bytes);

    /** RSS attributable to the heap (via the address space's pages). */
    size_t rss() const { return space_.rss(); }

    /** Sub-heaps currently mapped, across all shards. */
    size_t subHeapCount() const;

    // --- shard introspection ------------------------------------------------
    /** Per-shard accounting snapshot (see shardStats()). */
    struct ShardStats
    {
        /** Sub-heaps in this shard's chain. */
        size_t subHeaps = 0;
        /** Used extent of those sub-heaps, bytes. */
        size_t extent = 0;
        /** Bytes in live blocks. */
        size_t liveBytes = 0;
        /** Bytes in free (reusable) holes. */
        size_t freeBytes = 0;
    };

    /** Number of allocation shards (config.shards, normalized). */
    size_t shardCount() const { return shards_.size(); }

    /**
     * The calling thread's home shard index — where its allocations
     * land. Stable for the thread's lifetime; no locks.
     */
    size_t homeShardIndex() const;

    /** Accounting snapshot of one shard. Takes that shard's lock. */
    ShardStats shardStats(size_t shard) const;

  private:
    /** One relocation candidate snapshotted by a campaign. */
    struct Candidate
    {
        uint32_t id;
        uint64_t addr;
        uint32_t size;
        /** Source sub-heap. */
        HeapRef src;
        /** Rank of the source in the campaign's occupancy order. */
        size_t rank;
    };

    /** One deferred cross-shard free: the block at addr in heap. */
    struct RemoteFree
    {
        SubHeap *heap;
        uint64_t addr;
    };

    /**
     * Entries a shard's inbox holds before the freeing thread applies
     * it under the shard lock itself. Bounds the inbox of a shard whose
     * owner has gone idle or exited (4096 entries = 64 KiB).
     */
    static constexpr size_t inboxCapacity = 4096;

    /**
     * One allocation shard. The chain fields are guarded by mutex; the
     * chain only grows (sub-heaps are never destroyed before the
     * service), so indices and SubHeap pointers are stable once
     * published.
     */
    struct alignas(64) Shard
    {
        mutable std::mutex mutex;
        std::vector<std::unique_ptr<SubHeap>> heaps;
        /** Index of the sub-heap used for fresh allocations. */
        size_t cursor = 0;
        /**
         * Last chain index that satisfied a cursor miss; tried first on
         * the next miss so the steady-state miss path is O(1) amortized
         * instead of a chain scan. SIZE_MAX when cold. Invalidated by
         * defrag and trim (which change densities wholesale).
         */
        size_t fallbackHint = SIZE_MAX;
        /**
         * Chain indices ordered densest-first for fallback placement,
         * rebuilt lazily when dirty instead of re-sorted on every miss.
         */
        std::vector<size_t> densityOrder;
        bool orderDirty = true;
        /** The inbox's entries being applied; swapped with inbox so
         *  remote freers wait only for the swap. Guarded by mutex. */
        mutable std::vector<RemoteFree> draining;

        // Remote-free inbox: frees of this shard's blocks by threads
        // homed on other shards, applied by the next holder of mutex
        // (lockShard). On its own cache line, apart from the owner's
        // mutex and cursor, so remote freers do not bounce that line.
        // mutable like mutex: the const accessors apply it too.
        alignas(64) mutable std::mutex inboxMutex;
        /** Guarded by inboxMutex. */
        mutable std::vector<RemoteFree> inbox;
        /** inbox is non-empty. Read without inboxMutex, so a lock
         *  holder with nothing to apply pays one load; the campaign's
         *  destination search reads it without the shard lock too. */
        mutable std::atomic<bool> inboxPending{false};
    };

    /**
     * Per-campaign destination cache: rank (into the campaign's heap
     * order) of the last successful cross-heap destination. Candidates
     * walked off one bump-packed source are near-identically sized, so
     * the next move almost always fits the same destination — trying
     * it first makes the common move one hint check and one lock
     * acquisition instead of a walk over the denser ranks' hints.
     * SIZE_MAX when cold.
     */
    struct DestCache
    {
        size_t rank = SIZE_MAX;
    };

    /** Registry entry mapping an address range to its sub-heap. */
    struct HeapRegion
    {
        uint64_t base;
        uint64_t end;
        uint32_t shard;
        SubHeap *heap;
    };

    /**
     * Lock sh.mutex — blocking, or non-blocking when passed
     * std::try_to_lock — and, once it is held, apply sh's inbox. Every
     * shard-lock acquisition in the service goes through here. A
     * blocking acquisition that finds the lock held counts
     * shard_lock_wait and records its wait in shard_lock_wait_ns
     * (docs/OBSERVABILITY.md); the uncontended path is one atomic op.
     */
    template <typename... TryTag>
    static std::unique_lock<std::mutex> lockShard(const Shard &sh,
                                                  TryTag... tag);

    /** Apply sh's pending remote frees. Caller holds sh.mutex. */
    static void drainInboxLocked(const Shard &sh);

    /**
     * Find the region containing addr via the current registry
     * snapshot. Lock-free (one acquire load + binary search); returns
     * nullptr if addr is outside every sub-heap.
     */
    const HeapRegion *regionOf(uint64_t addr) const;

    /**
     * Append a fresh sub-heap to sh's chain and publish its region.
     * Caller holds sh.mutex; takes regionsMutex_ internally.
     */
    SubHeap *addSubHeapLocked(Shard &sh, uint32_t shard_idx,
                              size_t bytes);

    /** Drop sh's placement caches. Caller holds sh.mutex. */
    void invalidatePlacementLocked(Shard &sh);

    /** Rebuild sh.densityOrder. Caller holds sh.mutex. */
    void rebuildDensityOrderLocked(Shard &sh);

    /** Run one barrier of a batched pass: stop the world, take every
     *  shard lock, run the move loop, account per-barrier stats. */
    DefragStats batchBarrier(BatchedPass &pass, size_t batch_bytes);

    /** The in-barrier move loop of one batched step. Caller holds the
     *  world stopped and every shard lock. */
    void moveBatchLocked(BatchedPass &pass, const PinnedSet &pinned,
                         size_t batch_bytes, DefragStats &stats);

    /** Pass epilogue: trim every sub-heap's tail and prune superseded
     *  region snapshots. Caller holds the world stopped and every
     *  shard lock (the one point with provably no registry readers). */
    void finishPassLocked(DefragStats &stats);

    /**
     * A committed move's source block, parked until the next grace
     * period proves no accessor scope can still hold its address.
     */
    struct LimboBlock
    {
        HeapRef src;
        uint64_t addr;
        uint32_t bytes;
    };

    /**
     * One complete concurrent move: revalidate one snapshotted
     * candidate, claim a strictly better destination, mark the entry,
     * check pins, copy the bytes, and CAS-commit — immediately, with
     * no grace period anywhere in the window. On commit the source
     * block parks on limbo (freed once its batch's grace elapses) and
     * the moved bytes are charged against the budget; on any failure
     * the claimed destination is released. Takes one shard lock at a
     * time; returns silently on stale candidates.
     */
    void relocateOneConcurrent(const Candidate &cand,
                               const std::vector<HeapRef> &order,
                               SubHeap::CompactionIndex &index,
                               DestCache &cache, DefragStats &stats,
                               std::vector<LimboBlock> &limbo,
                               size_t &budget);

    /**
     * A sealed limbo batch riding out its grace period: source blocks
     * whose commits all predate the ticket's snapshot, plus the
     * sources that finished evacuating by seal time (coalesced and
     * trimmed when the batch is freed — batches retire FIFO, so every
     * block such a source parked is free by then).
     */
    struct PendingReclaim
    {
        Runtime::GraceTicket ticket;
        std::vector<LimboBlock> blocks;
        size_t bytes = 0;
        std::vector<HeapRef> sources;
        /** telemetry::traceNowNs() at seal, for the grace_age_ns
         *  histogram and the retire-side "grace" trace span. */
        uint64_t sealNs = 0;
    };

    /** Seal the open limbo batch behind a fresh grace ticket and queue
     *  it on pending; no-op when the batch is empty. Never blocks. */
    void sealLimboBatch(std::deque<PendingReclaim> &pending,
                        std::vector<LimboBlock> &limbo,
                        size_t &limbo_bytes, size_t &pending_bytes);

    /**
     * Retire sealed batches FIFO: free every batch whose grace has
     * already elapsed (no wait), and while more than target_bytes are
     * still pending, stall on the oldest batch's grace — the
     * campaign's only steady-state wait, taken only under backpressure
     * or at a drain point (target_bytes == 0 empties the queue).
     */
    void drainPending(std::deque<PendingReclaim> &pending,
                      size_t &pending_bytes, size_t target_bytes,
                      DefragStats &stats);

    /** Free one retired batch's parked source blocks (shard-locked,
     *  one block at a time) and coalesce + trim its finished
     *  sources. The batch's grace must have elapsed. */
    void freeBatch(PendingReclaim &batch, DefragStats &stats);

    /** Coalesce a fully-walked source's holes, trim its tail, and
     *  invalidate the shard's placement cache. */
    void finishSource(const HeapRef &src, DefragStats &stats);

    /** Advance the campaign epoch and wait for grace, accounting the
     *  wait into stats. */
    void campaignGraceWait(DefragStats &stats);

    AddressSpace &space_;
    AnchorageConfig config_;
    Runtime *runtime_ = nullptr;

    /** The allocation shards; sized at construction, never resized. */
    std::vector<std::unique_ptr<Shard>> shards_;

    /**
     * Address-range registry, published copy-on-write: readers load
     * regions_ with one acquire load and binary-search the (sorted,
     * immutable) snapshot; writers rebuild under regionsMutex_.
     * Superseded snapshots stay owned by ownedRegionMaps_ (a racing
     * reader can never observe a freed one) until a stop-the-world
     * pass prunes them — the barrier is the one point where no reader
     * can exist, bounding retention between defrag passes.
     */
    mutable std::mutex regionsMutex_;
    std::atomic<const std::vector<HeapRegion> *> regions_{nullptr};
    std::vector<std::unique_ptr<const std::vector<HeapRegion>>>
        ownedRegionMaps_;

    /** Guards the single-mover invariant for campaigns. */
    std::atomic<bool> campaignActive_{false};
};

} // namespace alaska::anchorage

#endif // ALASKA_ANCHORAGE_ANCHORAGE_SERVICE_H
