#include "core/runtime.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "base/logging.h"
#include "base/timer.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace alaska
{

HandleTableEntry *Runtime::gTableBase = nullptr;
std::atomic<bool> Runtime::gBarrierPending{false};
Runtime *Runtime::gRuntime = nullptr;
std::atomic<uint32_t> Runtime::gConcurrentRelocCampaigns{0};
std::atomic<uint32_t> Runtime::gConcurrentDefragDeclared{0};
std::atomic<uint64_t> Runtime::gCampaignEpoch{0};

namespace
{
thread_local ThreadState *tlsState = nullptr;

/**
 * Count one allocation event: in the calling thread's own cell when it
 * is registered (a plain load and store; no other thread writes the
 * cell), else in the shared cell.
 */
void
countEvent(AllocCounts &shared, std::atomic<uint64_t> AllocCounts::*event)
{
    if (ThreadState *ts = tlsState) {
        std::atomic<uint64_t> &cell = ts->allocs.*event;
        cell.store(cell.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    } else {
        (shared.*event).fetch_add(1, std::memory_order_relaxed);
    }
}

/** Add the counts in c to s. */
void
addCounts(RuntimeStats &s, const AllocCounts &c)
{
    s.hallocs += c.hallocs.load(std::memory_order_relaxed);
    s.hfrees += c.hfrees.load(std::memory_order_relaxed);
    s.hreallocs += c.hreallocs.load(std::memory_order_relaxed);
}
} // anonymous namespace

PinnedSet::PinnedSet(const HandleTable &table,
                     std::vector<uint32_t> frame_pinned)
    : table_(table), framePinned_(std::move(frame_pinned)),
      limit_(table.watermark())
{
    std::sort(framePinned_.begin(), framePinned_.end());
}

size_t
PinnedSet::count() const
{
    size_t n = 0;
    for (uint32_t id = 0; id < limit_; id++)
        n += contains(id);
    return n;
}

Runtime::Runtime(RuntimeConfig config)
    : config_(config), table_(config.tableCapacity)
{
    ALASKA_ASSERT(gRuntime == nullptr,
                  "only one Runtime may be live at a time");
    gRuntime = this;
    gTableBase = table_.base();
    gBarrierPending.store(false, std::memory_order_relaxed);
}

Runtime::~Runtime()
{
    {
        std::lock_guard<std::mutex> guard(threadMutex_);
        ALASKA_ASSERT(threads_.empty(),
                      "%zu threads still registered at runtime shutdown",
                      threads_.size());
    }
    if (service_)
        service_->deinit();
    gTableBase = nullptr;
    gRuntime = nullptr;
}

Runtime *
Runtime::current()
{
    return gRuntime;
}

void
Runtime::attachService(Service *service)
{
    ALASKA_ASSERT(service_ == nullptr, "a service is already attached");
    service_ = service;
    service_->init(*this);
}

Service &
Runtime::service()
{
    ALASKA_ASSERT(service_ != nullptr, "no service attached");
    return *service_;
}

uint32_t
Runtime::allocateHandleId()
{
    ThreadState *ts = tlsState;
    if (ts == nullptr)
        return table_.allocate();
    HandleMagazine &mag = ts->magazine;
    if (mag.empty()) {
        mag.count = table_.reserveBatch(mag.ids, HandleMagazine::capacity);
        telemetry::count(telemetry::Counter::MagazineRefill);
    }
    const uint32_t id = mag.ids[--mag.count];
    table_.activate(id);
    return id;
}

void
Runtime::releaseHandleId(uint32_t id)
{
    ThreadState *ts = tlsState;
    if (ts == nullptr) {
        table_.release(id);
        return;
    }
    HandleMagazine &mag = ts->magazine;
    table_.deactivate(id);
    if (mag.full()) {
        // Flush the older half, keeping hysteresis: an allocate/release
        // pattern oscillating at the boundary stays off the shards.
        constexpr uint32_t flush = HandleMagazine::capacity / 2;
        table_.unreserveBatch(mag.ids, flush);
        telemetry::count(telemetry::Counter::MagazineSpill);
        std::memmove(mag.ids, mag.ids + flush,
                     (HandleMagazine::capacity - flush) * sizeof(uint32_t));
        mag.count -= flush;
    }
    mag.ids[mag.count++] = id;
}

void *
Runtime::halloc(size_t size)
{
    if (size == 0)
        size = 1;
    if (size >= maxObjectSize)
        fatal("halloc: object of %zu bytes exceeds the 4 GiB handle "
              "offset range; use paging for such regions", size);
    const uint32_t id = allocateHandleId();
    void *backing = service().alloc(id, size);
    ALASKA_ASSERT(backing != nullptr, "service %s failed to allocate %zu",
                  service().name(), size);
    auto &e = table_.entry(id);
    e.size = static_cast<uint32_t>(size);
    e.ptr.store(backing, std::memory_order_release);
    countEvent(sharedAllocs_, &AllocCounts::hallocs);
    return reinterpret_cast<void *>(makeHandle(id, 0));
}

void *
Runtime::hcalloc(size_t count, size_t size)
{
    size_t bytes = 0;
    if (__builtin_mul_overflow(count, size, &bytes))
        fatal("hcalloc: %zu elements of %zu bytes exceed the 4 GiB handle "
              "offset range", count, size);
    void *h = halloc(bytes);
    auto &e = table_.entry(handleId(reinterpret_cast<uint64_t>(h)));
    std::memset(e.ptr.load(std::memory_order_relaxed), 0, bytes ? bytes : 1);
    return h;
}

void *
Runtime::hrealloc(void *handle, size_t size)
{
    if (handle == nullptr)
        return halloc(size);
    if (size == 0) {
        hfree(handle);
        return nullptr;
    }
    const uint64_t v = reinterpret_cast<uint64_t>(handle);
    if (!isHandle(v)) {
        // Raw pointer from untransformed code; fall through to libc.
        return std::realloc(handle, size);
    }
    ALASKA_ASSERT(handleOffset(v) == 0,
                  "hrealloc of an interior handle (offset %u)",
                  handleOffset(v));
    if (size >= maxObjectSize)
        fatal("hrealloc: %zu bytes exceeds the 4 GiB offset range", size);

    const uint32_t id = handleId(v);
    auto &e = table_.entry(id);
    ALASKA_ASSERT(e.allocated(), "hrealloc of freed handle %u", id);
    // Claim the backing pointer atomically, like hfree: a clear-the-mark
    // loop would only handle a relocation already in flight, while a
    // mover that marks *after* our load could still commit and free the
    // old block under us (double free + copy from freed memory). With
    // the exchange the entry briefly holds nullptr; a mover validating
    // its candidate skips it, and its commit CAS cannot succeed.
    void *old_ptr =
        reloc::unmarked(e.ptr.exchange(nullptr,
                                       std::memory_order_seq_cst));
    const size_t old_size = e.size;

    void *new_ptr = service().alloc(id, size);
    ALASKA_ASSERT(new_ptr != nullptr, "service %s failed to allocate %zu",
                  service().name(), size);
    std::memcpy(new_ptr, old_ptr, std::min(old_size, size));
    // The handle value is unchanged: movement is a single HTE update.
    e.size = static_cast<uint32_t>(size);
    e.ptr.store(new_ptr, std::memory_order_release);
    service().free(id, old_ptr);
    countEvent(sharedAllocs_, &AllocCounts::hreallocs);
    return handle;
}

void
Runtime::hfree(void *handle)
{
    if (handle == nullptr)
        return;
    const uint64_t v = reinterpret_cast<uint64_t>(handle);
    if (!isHandle(v)) {
        std::free(handle);
        return;
    }
    ALASKA_ASSERT(handleOffset(v) == 0,
                  "hfree of an interior handle (offset %u)",
                  handleOffset(v));
    const uint32_t id = handleId(v);
    auto &e = table_.entry(id);
    ALASKA_ASSERT(e.allocated(), "double hfree of handle %u", id);
    // Claim the backing pointer atomically. A plain load would race a
    // concurrent relocator: between the load and the service free the
    // mover could commit and free the old block itself (double free).
    // The exchange takes ownership — if the entry was mid-relocation
    // (mark bit set) the mover's commit CAS now fails and it discards
    // its copy, so freeing the unmarked pointer here is the only free.
    void *ptr = e.ptr.exchange(nullptr, std::memory_order_acq_rel);
    service().free(id, reloc::unmarked(ptr));
    releaseHandleId(id);
    countEvent(sharedAllocs_, &AllocCounts::hfrees);
}

size_t
Runtime::usableSize(void *handle) const
{
    const uint64_t v = reinterpret_cast<uint64_t>(handle);
    if (!isHandle(v))
        return 0;
    return table_.entry(handleId(v)).size;
}

// --- threads --------------------------------------------------------------

ThreadRegistration::ThreadRegistration(Runtime &runtime) : runtime_(runtime)
{
    state_ = runtime_.registerThread();
    // If a barrier started before we registered, join it immediately.
    if (Runtime::barrierPending())
        runtime_.park();
}

ThreadRegistration::~ThreadRegistration()
{
    runtime_.unregisterThread(state_);
}

ThreadState *
Runtime::registerThread()
{
    ALASKA_ASSERT(tlsState == nullptr, "thread registered twice");
    auto state = std::make_unique<ThreadState>();
    ThreadState *raw = state.get();
    {
        std::lock_guard<std::mutex> guard(threadMutex_);
        threads_.push_back(std::move(state));
    }
    {
        std::lock_guard<std::mutex> guard(countsMutex_);
        liveAllocs_.push_back(&raw->allocs);
    }
    tlsState = raw;
    threadCv_.notify_all();
    return raw;
}

void
Runtime::unregisterThread(ThreadState *state)
{
    ALASKA_ASSERT(state->frames.empty(),
                  "thread exiting with %zu live pin frames",
                  state->frames.size());
    // Hand any magazine-cached IDs back to the table so they are not
    // stranded when the thread goes away.
    if (state->magazine.count > 0) {
        table_.unreserveBatch(state->magazine.ids, state->magazine.count);
        state->magazine.count = 0;
    }
    {
        // Hand the final counts to the shared cell and drop the thread's
        // cell in one step, so no stats() sum sees both or neither.
        std::lock_guard<std::mutex> guard(countsMutex_);
        const AllocCounts &mine = state->allocs;
        sharedAllocs_.hallocs.fetch_add(
            mine.hallocs.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        sharedAllocs_.hfrees.fetch_add(
            mine.hfrees.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        sharedAllocs_.hreallocs.fetch_add(
            mine.hreallocs.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        liveAllocs_.erase(
            std::find(liveAllocs_.begin(), liveAllocs_.end(), &mine));
    }
    {
        std::lock_guard<std::mutex> guard(threadMutex_);
        for (auto it = threads_.begin(); it != threads_.end(); ++it) {
            if (it->get() == state) {
                threads_.erase(it);
                break;
            }
        }
    }
    tlsState = nullptr;
    threadCv_.notify_all();
}

ThreadState &
Runtime::currentThreadState()
{
    ALASKA_ASSERT(tlsState != nullptr,
                  "current thread is not registered with the runtime");
    return *tlsState;
}

ThreadState *
Runtime::currentThreadStateOrNull()
{
    return tlsState;
}

void
Runtime::publishGraceHorizon(uint64_t horizon)
{
    // Monotonic max under CAS: two concurrent waiters must not regress
    // each other's high-water.
    uint64_t prev = lastGraceEpoch_.load(std::memory_order_relaxed);
    while (prev < horizon &&
           !lastGraceEpoch_.compare_exchange_weak(
               prev, horizon, std::memory_order_acq_rel)) {
    }
}

Runtime::GraceTicket
Runtime::beginGrace(uint64_t epoch)
{
    GraceTicket ticket;
    ticket.epoch = epoch;
    // High-water fast path: a grace period that completed for a later
    // epoch also covers this one, so back-to-back batch waits in a
    // campaign pay one scan, not one per call site.
    if (lastGraceEpoch_.load(std::memory_order_acquire) >= epoch) {
        ticket.done = true;
        return ticket;
    }

    // The horizon this ticket will certify once the scan drains.
    // Sampled before the snapshot: scopes opened after this point are
    // not our problem (their translations postdate the caller's marks).
    ticket.horizon = gCampaignEpoch.load(std::memory_order_seq_cst);

    // Snapshot every thread caught mid-scope (odd accessEpoch). A
    // scope that begins after the snapshot saw the campaign flag (its
    // ctor reads the flag after advancing the epoch, both seq_cst) and
    // translates mark-aware, so only the snapshotted epochs need
    // draining.
    const ThreadState *self = tlsState;
    std::lock_guard<std::mutex> guard(threadMutex_);
    for (const auto &thread : threads_) {
        if (thread.get() == self)
            continue;
        const uint64_t seq =
            thread->accessEpoch.load(std::memory_order_seq_cst);
        if (seq & 1)
            ticket.busy.emplace_back(thread.get(), seq);
    }
    if (ticket.busy.empty()) {
        publishGraceHorizon(ticket.horizon);
        ticket.done = true;
    }
    return ticket;
}

bool
Runtime::graceElapsed(GraceTicket &ticket)
{
    if (ticket.done)
        return true;
    if (lastGraceEpoch_.load(std::memory_order_acquire) >= ticket.epoch) {
        ticket.done = true;
        return true;
    }
    {
        std::lock_guard<std::mutex> guard(threadMutex_);
        for (size_t i = ticket.busy.size(); i-- > 0;) {
            // Re-find the thread by identity: one that unregistered
            // mid-grace has drained by definition (scopes cannot
            // outlive registration), so an exited thread never hangs
            // the poll.
            bool still_busy = false;
            for (const auto &thread : threads_) {
                if (thread.get() == ticket.busy[i].first) {
                    still_busy =
                        thread->accessEpoch.load(
                            std::memory_order_seq_cst) ==
                        ticket.busy[i].second;
                    break;
                }
            }
            if (!still_busy)
                ticket.busy.erase(ticket.busy.begin() +
                                  static_cast<long>(i));
        }
    }
    if (!ticket.busy.empty())
        return false;
    publishGraceHorizon(ticket.horizon);
    ticket.done = true;
    return true;
}

void
Runtime::waitForGrace(uint64_t epoch)
{
    telemetry::count(telemetry::Counter::GraceWait);
    telemetry::TraceSpan span("grace_wait");
    GraceTicket ticket = beginGrace(epoch);
    while (!graceElapsed(ticket))
        std::this_thread::sleep_for(std::chrono::microseconds(20));
}

void
Runtime::quiesceConcurrentAccessors()
{
    waitForGrace(advanceCampaignEpoch());
}

// --- barrier ----------------------------------------------------------------

void
Runtime::park()
{
    ThreadState &state = currentThreadState();
    std::unique_lock<std::mutex> lock(threadMutex_);
    state.mode.store(ThreadMode::Parked, std::memory_order_release);
    state.parks++;
    threadCv_.notify_all();
    threadCv_.wait(lock, [] { return !barrierPending(); });
    state.mode.store(ThreadMode::Managed, std::memory_order_release);
}

void
Runtime::enterExternal()
{
    ThreadState &state = currentThreadState();
    std::lock_guard<std::mutex> guard(threadMutex_);
    state.mode.store(ThreadMode::External, std::memory_order_release);
    threadCv_.notify_all();
}

void
Runtime::leaveExternal()
{
    ThreadState &state = currentThreadState();
    std::unique_lock<std::mutex> lock(threadMutex_);
    // Cannot resume mutating while a barrier is in progress.
    threadCv_.wait(lock, [] { return !barrierPending(); });
    state.mode.store(ThreadMode::Managed, std::memory_order_release);
}

PinnedSet
Runtime::unifyPinSets()
{
    // Atomic pin counts are honored in every mode too (a stop-the-world
    // pass must not move what a ConcurrentPin holds), but
    // PinnedSet::contains() reads them per query: no per-entry sweep.
    std::vector<uint32_t> ids;
    for (const auto &thread : threads_) {
        for (const auto &frame : thread->frames) {
            for (uint32_t i = 0; i < frame.count; i++) {
                const uint64_t v = frame.slots[i];
                if (isHandle(v))
                    ids.push_back(handleId(v));
            }
        }
    }
    return PinnedSet(table_, std::move(ids));
}

void
Runtime::barrier(const std::function<void(const PinnedSet &)> &fn)
{
    // Serialize whole barriers against each other.
    std::lock_guard<std::mutex> barrier_guard(barrierMutex_);
    telemetry::TraceSpan span("barrier");
    Stopwatch pause;
    gBarrierPending.store(true, std::memory_order_seq_cst);

    ThreadState *self = tlsState;
    std::unique_lock<std::mutex> lock(threadMutex_);
    threadCv_.wait(lock, [&] {
        for (const auto &thread : threads_) {
            if (thread.get() == self)
                continue;
            if (thread->mode.load(std::memory_order_acquire) ==
                ThreadMode::Managed) {
                return false;
            }
        }
        return true;
    });

    PinnedSet pinned = unifyPinSets();
    fn(pinned);
    nBarriers_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::Barrier);
    telemetry::record(telemetry::Hist::BarrierPauseNs, pause.elapsedNs());

    gBarrierPending.store(false, std::memory_order_seq_cst);
    lock.unlock();
    threadCv_.notify_all();
}

void *
Runtime::handleFault(uint32_t id)
{
    nFaults_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::HandleFault);
    return service().fault(id);
}

RuntimeStats
Runtime::stats() const
{
    RuntimeStats s;
    {
        std::lock_guard<std::mutex> guard(countsMutex_);
        addCounts(s, sharedAllocs_);
        for (const AllocCounts *counts : liveAllocs_)
            addCounts(s, *counts);
    }
    s.barriers = nBarriers_.load(std::memory_order_relaxed);
    s.faults = nFaults_.load(std::memory_order_relaxed);
    return s;
}

telemetry::Snapshot
Runtime::telemetrySnapshot() const
{
    return telemetry::snapshot();
}

bool
Runtime::dumpTrace(const char *path) const
{
    return telemetry::dumpTrace(path);
}

// --- service default --------------------------------------------------------

void *
Service::fault(uint32_t id)
{
    panic("service does not support handle faults (handle %u)", id);
}

} // namespace alaska
