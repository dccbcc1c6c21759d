/**
 * @file
 * The Alaska core runtime (paper §4.2): handle allocation, pin tracking,
 * and stop-the-world barriers, with backing memory delegated to a
 * pluggable Service.
 *
 * One Runtime may be live at a time (the translation fast path goes
 * through process-global state, mirroring the paper's fixed-address
 * handle table). Tests construct and destroy runtimes sequentially.
 */

#ifndef ALASKA_CORE_RUNTIME_H
#define ALASKA_CORE_RUNTIME_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/handle.h"
#include "core/handle_table.h"
#include "core/service.h"
#include "core/thread_state.h"
#include "telemetry/telemetry.h"

namespace alaska
{

/**
 * Which translation idiom mutator-side accessors must use right now.
 *
 * The raw surface has two parallel idioms — plain translate() (safe
 * between safepoints while only stop-the-world defrag runs) and
 * translateScoped() inside a ConcurrentAccessScope (safe against
 * background relocation campaigns). The typed api layer (src/api) and
 * any other mode-aware caller pick between them through
 * Runtime::translationDiscipline() instead of hard-coding one.
 */
enum class TranslationDiscipline
{
    /**
     * Only stop-the-world relocation can occur: plain translate() is
     * safe until the next safepoint poll, and pin frames alone make a
     * translation survive barriers.
     */
    Direct,
    /**
     * Concurrent relocation campaigns are possible: readers bracket
     * each operation in a ConcurrentAccessScope and translate through
     * translateScoped(), which strips a mover's mark and reads
     * whichever copy the entry names — the scope's epoch holds back
     * the reclaim of the old copy until the scope closes. Writers
     * hold an atomic pin (pinned<T>), whose handshake aborts an
     * in-flight move rather than racing it.
     */
    Scoped,
};

/** Configuration for a Runtime. */
struct RuntimeConfig
{
    /** Handle table capacity (entries). */
    uint32_t tableCapacity = 1U << 22;
};

/**
 * The handles a barrier must not move: those held in any thread's pin
 * frames, plus those whose entry word carries a nonzero atomic pin
 * count (ConcurrentPin, which pinned<T> takes under Scoped). The frame
 * pins are collected when the world stops; the pin count is read per
 * query from the very word a mover loads next to validate its
 * candidate, so a query costs no cache miss of its own and a barrier
 * never sweeps the handle table. Valid only inside the barrier
 * callback.
 */
class PinnedSet
{
  public:
    /** @param frame_pinned the frame-pinned IDs, in any order. */
    PinnedSet(const HandleTable &table, std::vector<uint32_t> frame_pinned);

    bool
    contains(uint32_t id) const
    {
        if (id >= limit_)
            return false;
        return table_.entry(id).atomicPinCount() != 0 ||
               std::binary_search(framePinned_.begin(), framePinned_.end(),
                                  id);
    }

    /** Number of IDs contains() reports (sweeps the table; for tests). */
    size_t count() const;

  private:
    const HandleTable &table_;
    /** Sorted, for binary_search. */
    std::vector<uint32_t> framePinned_;
    /** The watermark when the world stopped; no higher ID is live. */
    uint32_t limit_;
};

/** Aggregate runtime statistics. */
struct RuntimeStats
{
    uint64_t hallocs = 0;
    uint64_t hfrees = 0;
    uint64_t hreallocs = 0;
    uint64_t barriers = 0;
    uint64_t faults = 0;
};

class Runtime;

/**
 * RAII registration of the current thread with a runtime. Must be alive
 * for the whole period the thread executes managed code.
 */
class ThreadRegistration
{
  public:
    explicit ThreadRegistration(Runtime &runtime);
    ~ThreadRegistration();

    ThreadRegistration(const ThreadRegistration &) = delete;
    ThreadRegistration &operator=(const ThreadRegistration &) = delete;

  private:
    Runtime &runtime_;
    ThreadState *state_;
};

/** The core runtime. */
class Runtime
{
  public:
    explicit Runtime(RuntimeConfig config = {});
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** The currently live runtime, or nullptr. */
    static Runtime *current();

    // --- service management ---------------------------------------------
    /**
     * Attach the backing-memory service. Must happen before the first
     * halloc. The runtime does not take ownership, but it calls the
     * service's deinit() from its own destructor — the service object
     * must therefore outlive the Runtime.
     */
    void attachService(Service *service);
    Service &service();

    // --- allocation API (the malloc face of §4.2) -----------------------
    /** Allocate size bytes behind a fresh handle. */
    void *halloc(size_t size);
    /** Zero-initialized variant (the calloc proxy). */
    void *hcalloc(size_t count, size_t size);
    /**
     * Resize an allocation. The handle value is unchanged — only the
     * backing memory moves, which is the whole point of handles.
     */
    void *hrealloc(void *handle, size_t size);
    /** Free an allocation made by halloc. */
    void hfree(void *handle);

    /**
     * Usable size of a live handle's block: at least the size last
     * requested by halloc/hrealloc, and possibly more (the service
     * rounds up, and Service::usableSize() answers from its own block
     * metadata; the handle table keeps no sizes). 0 for a raw pointer
     * or an object with no resident backing (swapped out).
     */
    size_t usableSize(void *handle) const;

    // --- handle ID allocation --------------------------------------------
    /**
     * Take a reserved handle ID for the calling thread, not yet live:
     * halloc() makes it live with the RMW that installs the backing
     * address (HandleTableEntry::install). Threads registered via
     * ThreadRegistration go through their magazine (see ThreadState):
     * steady-state calls touch no shared state and refill in batches
     * from the table's free-list shards. Unregistered threads reserve
     * from the table's shards directly.
     */
    uint32_t allocateHandleId();

    /**
     * Return an ID taken by allocateHandleId() whose entry is not live
     * (never installed, or cleared by HandleTable::deactivate, as
     * hfree() does first) to the magazine or the table's shards.
     */
    void releaseHandleId(uint32_t id);

    // --- handle table ----------------------------------------------------
    HandleTable &table() { return table_; }
    const HandleTable &table() const { return table_; }

    // --- threads and barriers --------------------------------------------
    /**
     * Execute fn as a stop-the-world barrier (paper §4.1.3): waits for
     * every registered thread to reach a safepoint (or be in external
     * code), unifies all pin sets, and runs fn with the world stopped.
     * fn may move any object whose handle is not in the PinnedSet by
     * updating its HTE.
     */
    void barrier(const std::function<void(const PinnedSet &)> &fn);

    /** True while a barrier is pending or in progress. */
    static bool
    barrierPending()
    {
        return gBarrierPending.load(std::memory_order_relaxed);
    }

    /** Park the calling thread until the current barrier completes. */
    void park();

    /**
     * Bracket a call into external (untransformed, possibly blocking)
     * code. While in external mode the thread's pin sets are frozen and
     * barriers proceed without it.
     */
    void enterExternal();
    void leaveExternal();

    /** The calling thread's state; thread must be registered. */
    ThreadState &currentThreadState();

    /** The calling thread's state, or nullptr if unregistered. */
    ThreadState *currentThreadStateOrNull();

    // --- concurrent relocation (§7) ---------------------------------------
    /**
     * Announce that concurrent (non-stop-the-world) relocation may run
     * until the matching retireConcurrentDefrag(). The
     * ConcurrentRelocDaemon declares for its lifetime whenever its
     * controller mode allows campaigns, and every relocation campaign
     * declares for its own duration; code driving
     * AnchorageService::relocateCampaign by hand should declare too,
     * *before* mutators start issuing operations: an operation that
     * began under Direct opens no scope and so publishes no epoch, and
     * no grace period waits for it — a campaign may free the old copy
     * its plain translate() still points at. Declarations nest.
     */
    static void
    declareConcurrentDefrag()
    {
        gConcurrentDefragDeclared.fetch_add(1, std::memory_order_seq_cst);
    }

    /** Retire one declareConcurrentDefrag() declaration. */
    static void
    retireConcurrentDefrag()
    {
        gConcurrentDefragDeclared.fetch_sub(1, std::memory_order_seq_cst);
    }

    /**
     * The translation idiom mutator accessors must use right now: the
     * single mode accessor shared by the typed api layer and by any
     * raw-API caller that wants to pick the idiom dynamically. Scoped
     * while a concurrent-defrag declaration is outstanding (daemons
     * declare for their lifetime, campaigns for their duration);
     * Direct otherwise. One uncontended relaxed load on the fast path.
     */
    static TranslationDiscipline
    translationDiscipline()
    {
        return gConcurrentDefragDeclared.load(std::memory_order_relaxed) !=
                       0
                   ? TranslationDiscipline::Scoped
                   : TranslationDiscipline::Direct;
    }

    /**
     * One grace period in flight, split into a snapshot (beginGrace)
     * and a non-blocking poll (graceElapsed) so a campaign can park a
     * reclaim batch and keep moving objects while the grace runs out in
     * the background. Opaque: create via beginGrace(), poll via
     * graceElapsed() or block in waitForGrace().
     */
    struct GraceTicket
    {
        /** Threads caught mid-scope (odd accessEpoch) at the snapshot,
         *  with the epoch each published then. Compared by identity
         *  only — a pointer here is never dereferenced after the
         *  thread unregisters. */
        std::vector<std::pair<const ThreadState *, uint64_t>> busy;
    };

    /**
     * Snapshot the start of a grace period: records every registered
     * thread caught inside a ConcurrentAccessScope, excluding the
     * calling thread (a mover waiting on its own scope would deadlock,
     * and its own translations are not at risk from its own moves).
     * Never blocks. A scope opened after the snapshot does not hold
     * the ticket: it translates after the caller's commits, so it can
     * only reach the new copies. A ticket with an empty snapshot is
     * elapsed at once.
     */
    GraceTicket beginGrace();

    /**
     * Poll a ticket: true once every snapshotted thread has left the
     * scope it was in at beginGrace() — at which point every
     * translation obtained under a scope open at the snapshot is dead.
     * Never blocks, never hangs on exited threads: each snapshotted
     * thread is re-found by identity, and one that unregistered
     * mid-grace is treated as drained (scopes cannot outlive
     * registration). Idempotent after it first returns true.
     */
    bool graceElapsed(GraceTicket &ticket);

    /**
     * Block (without stopping anything) until @p ticket's grace period
     * has elapsed: a graceElapsed() sleep-poll loop, counted as one
     * grace_wait. This is what lets a campaign free a *committed*
     * relocation source: a reader whose scope predates the commit CAS
     * may still hold the stale source translation, so the source parks
     * on a limbo list behind a ticket sealed after the commit, and is
     * freed only once the ticket elapses — while the scope's cached
     * translations stay valid for the scope's whole lifetime with zero
     * shared-memory RMWs on the deref path.
     *
     * Scopes are one application operation long and never span a
     * safepoint poll, so the wait is short and mutators never block.
     */
    void waitForGrace(GraceTicket &ticket);

    // --- handle faults (§7) ----------------------------------------------
    /**
     * Slow path taken by checked translation when an HTE is Invalid.
     * Delegates to the service's fault() hook.
     * @return the fresh base pointer of the object.
     */
    void *handleFault(uint32_t id);

    /**
     * Runtime statistics snapshot. Exact once the counting threads
     * quiesce, never decreasing between calls, and safe to call from
     * any thread, including inside a barrier callback.
     */
    RuntimeStats stats() const;

    /**
     * Aggregate of the process-wide telemetry counters and histograms
     * (src/telemetry/). Safe to take from any thread while mutators,
     * campaigns and barriers run; see docs/OBSERVABILITY.md.
     */
    telemetry::Snapshot telemetrySnapshot() const;

    /**
     * Export every buffered trace event (telemetry::enableTracing)
     * as Chrome trace-event JSON, viewable at ui.perfetto.dev.
     * @return false on I/O error.
     */
    bool dumpTrace(const char *path) const;

    // Fast-path globals (see translate.h). Treat as private.
    static HandleTableEntry *gTableBase;
    static std::atomic<bool> gBarrierPending;
    static Runtime *gRuntime;
    /** Outstanding declareConcurrentDefrag() declarations. */
    static std::atomic<uint32_t> gConcurrentDefragDeclared;

  private:
    friend class ThreadRegistration;

    ThreadState *registerThread();
    void unregisterThread(ThreadState *state);

    /** Collect the frame-pinned IDs from all threads' pin frames. */
    PinnedSet unifyPinSets();

    RuntimeConfig config_;
    HandleTable table_;
    Service *service_ = nullptr;

    mutable std::mutex threadMutex_;
    std::condition_variable threadCv_;
    std::vector<std::unique_ptr<ThreadState>> threads_;

    /** Serializes whole barriers against each other. */
    std::mutex barrierMutex_;

    /**
     * Allocation counts live in each registered thread's
     * ThreadState::allocs; stats() sums them with sharedAllocs_, which
     * holds the counts of unregistered callers (fetch_add) and those a
     * thread handed over when it unregistered. countsMutex_ guards
     * liveAllocs_ and that hand-over, so a sum never loses or repeats a
     * thread's counts. It is never held while waiting, and it is not
     * threadMutex_ (which a barrier holds while the world is stopped),
     * so stats() works from inside a barrier callback.
     */
    mutable std::mutex countsMutex_;
    std::vector<const AllocCounts *> liveAllocs_;
    AllocCounts sharedAllocs_;

    std::atomic<uint64_t> nBarriers_{0};
    std::atomic<uint64_t> nFaults_{0};
};

} // namespace alaska

#endif // ALASKA_CORE_RUNTIME_H
