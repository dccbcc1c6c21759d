/**
 * @file
 * The accessor side of speculative concurrent object relocation
 * (paper §7). The one mover is AnchorageService::relocateCampaign,
 * which moves objects *without* stopping the world, resembling
 * Shenandoah's concurrent compaction:
 *
 *   1. the mover marks the handle's entry (we set the low bit of the
 *      backing pointer — objects are 16-byte aligned), checks the
 *      entry's pin count, and immediately speculatively copies the
 *      bytes to a new location — no drain, no wait: the abort window
 *      is the copy itself, microseconds;
 *   2. a *pinning* accessor that translates meanwhile detects the
 *      mark, and atomically clears it — aborting the relocation —
 *      then proceeds on the old memory;
 *   3. the mover finally tries to CAS {marked old} -> {new}. Success
 *      publishes the move, but the old memory is NOT freed inline: the
 *      campaign parks it on a limbo list and reclaims it only after a
 *      grace period (Runtime::beginGrace), so every scope that
 *      translated the object before the commit keeps reading valid
 *      bytes until it closes. A failed CAS means an accessor
 *      intervened; the copy is discarded.
 *
 * This file holds the two accessor APIs, which split the safety
 * argument between reads and writes:
 *
 *  - ConcurrentAccessScope + translateScoped(): scope one application
 *    operation; the *read* path. The scope's only shared-memory
 *    traffic is one epoch store at each outermost boundary
 *    (ThreadState::accessEpoch); derefs inside it are plain loads —
 *    never an RMW, not even against an in-flight move (a mover's mark
 *    is stripped, not cleared). Validity comes from grace-deferred
 *    reclamation: the source bytes a stale translation points at
 *    outlive every scope open at commit time. What epochs cannot
 *    order is a *store* — a write issued through a pre-mark
 *    translation after the mover's copy would land in the doomed
 *    source block and be lost when the commit publishes the copy.
 *  - ConcurrentPin: RAII atomic pin + mark-aware translate; the
 *    *write* path (and the raw-pointer escape hatch, pinned<T>). The
 *    pin/mark Dekker handshake closes the lost-store window: a pin
 *    taken before the mover's mark fails its pin check; one taken
 *    after clears the mark and fails its commit CAS. Either way the
 *    pinned translation is writable for the pin's lifetime.
 *
 * This is the discipline the campaign expects mutators on: reads
 * inside scopes, stores under pins.
 */

#ifndef ALASKA_SERVICES_CONCURRENT_RELOC_H
#define ALASKA_SERVICES_CONCURRENT_RELOC_H

#include <cstdint>

#include "core/runtime.h"
#include "core/translate.h"

namespace alaska
{

/**
 * The write-capable translation under concurrent relocation: if the
 * entry is marked, the accessor aborts the in-flight move and wins,
 * then proceeds on the old memory. Callers that intend to store must
 * pair this with a pin taken *first* (ConcurrentPin::pinFor) — the
 * clearing CAS here is the accessor half of the mover handshake, and
 * the pin is what makes it cover the store's whole duration rather
 * than the translation instant. Read-only callers want
 * translateScoped() instead, which never RMWs.
 *
 * Defined inline so guards composed from it (pinned<T>, the KV write
 * path) pay no call overhead; cold keeps it out of the way of the
 * read-path loops it shares headers with.
 */
__attribute__((cold)) inline void *
translateConcurrent(const void *maybe_handle)
{
    const uint64_t v = reinterpret_cast<uint64_t>(maybe_handle);
    if (static_cast<int64_t>(v) >= 0)
        return const_cast<void *>(maybe_handle);
    HandleTableEntry &e =
        Runtime::gTableBase[(v >> 32) & (maxHandleId - 1)];

    // seq_cst, not acquire: this load must participate in the single
    // total order with the mover's mark/grace/commit sequence (and,
    // for pinned<T>, with the caller's pin increment and the mover's
    // pin check — a Dekker handshake across two locations). With a
    // weaker load, non-TSO hardware could let the accessor and the
    // mark go mutually unseen, and a write through this translation
    // would land in an abandoned copy.
    void *ptr = e.ptr.load(std::memory_order_seq_cst);
    while (reloc::isMarked(ptr)) {
        // Abort the in-flight relocation: clear the mark. Whether our
        // CAS or the mover's commit wins, the loop re-reads a stable
        // pointer.
        void *expected = ptr;
        e.ptr.compare_exchange_strong(expected, reloc::unmarked(ptr),
                                      std::memory_order_seq_cst);
        ptr = e.ptr.load(std::memory_order_acquire);
    }
    return static_cast<char *>(ptr) + static_cast<uint32_t>(v);
}

/**
 * Pin guard for mutators racing with concurrent relocation. Orders an
 * atomic pin-count increment before the translation so a mover always
 * observes either the pin or the mark-clear. This is the one
 * implementation of the pin half of the mover handshake; the typed
 * api guards hold one rather than re-deriving the protocol. Inline
 * (including the destructor) so guards composed from it stay
 * optimizable in translation-heavy loops.
 */
class ConcurrentPin
{
  public:
    explicit ConcurrentPin(const void *maybe_handle)
        : entry_(pinFor(maybe_handle)),
          raw_(translateConcurrent(maybe_handle))
    {
    }

    ~ConcurrentPin() { unpin(entry_); }

    ConcurrentPin(const ConcurrentPin &) = delete;
    ConcurrentPin &operator=(const ConcurrentPin &) = delete;

    void *get() const { return raw_; }

    /**
     * The pin half of the handshake, for guards composed from this
     * protocol (the typed api guards): pin the value's entry and
     * return it, or nullptr for raw pointers. Pair with unpin(); the
     * caller must translate through translateConcurrent() *after* the
     * pin so the mover observes either the pin or the mark-clear.
     */
    static HandleTableEntry *
    pinFor(const void *maybe_handle)
    {
        const uint64_t v = reinterpret_cast<uint64_t>(maybe_handle);
        if (!isHandle(v))
            return nullptr;
        telemetry::count(telemetry::Counter::DerefPinned);
        HandleTableEntry *entry =
            &Runtime::gRuntime->table().entry(handleId(v));
        // seq_cst: the increment must be globally ordered against the
        // mover's mark/pin-check pair.
        entry->state.fetch_add(HandleTableEntry::pinCountOne,
                               std::memory_order_seq_cst);
        return entry;
    }

    /** Drop a pin taken by pinFor(); nullptr is a no-op. */
    static void
    unpin(HandleTableEntry *entry)
    {
        if (entry) {
            entry->state.fetch_sub(HandleTableEntry::pinCountOne,
                                   std::memory_order_seq_cst);
        }
    }

  private:
    HandleTableEntry *entry_ = nullptr;
    void *raw_ = nullptr;
};

namespace creloc_detail
{

/**
 * True while the innermost ConcurrentAccessScope on this thread opened
 * with a campaign active (Runtime::concurrentRelocActive()): derefs
 * must then take the mark-aware load. Read by the translateScoped()
 * fast path; written only by the scope.
 * constinit: without it, every access from another TU calls the TLS
 * init wrapper, which costs ~20% on the translation fast path.
 */
extern thread_local constinit bool tlsScopeMarkAware
    __attribute__((tls_model("local-exec")));

} // namespace creloc_detail

/**
 * Brackets one application operation (e.g. one KV request) on a mutator
 * thread. On entry the scope publishes the thread as "accessing" by
 * advancing its epoch to odd (see ThreadState::accessEpoch) and samples
 * the global campaign flag; every translateScoped() inside the scope
 * then takes the mark-stripping load iff a campaign was active — never
 * a shared-memory RMW. On exit the epoch advances to even, which is
 * what a campaign's grace wait (Runtime::waitForGrace) observes: the
 * mover copies and commits without waiting for anyone, but it only
 * *frees* an evacuated source block after every scope open at commit
 * time has closed — so every translation obtained inside this scope
 * reads valid bytes (old copy or new, both correct) until the scope
 * ends. Stores are NOT covered: an epoch cannot stop a store through a
 * stale translation from landing in an already-copied source block.
 * Store through a pin (pinned<T>, the KV policies' write path), whose
 * handshake aborts the mover instead. Scopes nest; only the outermost
 * publishes and releases. Must not span a safepoint poll (a scope held
 * across a park would stall campaigns' grace periods for the barrier's
 * whole duration); use pinned<T> to keep a raw pointer across polls.
 *
 * Registered threads get the full drain protocol (campaign grace waits
 * cover their scopes). Unregistered threads are invisible to grace
 * waits and get no reclamation deferral; mutators racing a relocator
 * must be registered.
 */
class ConcurrentAccessScope
{
  public:
    ConcurrentAccessScope();
    ~ConcurrentAccessScope();

    ConcurrentAccessScope(const ConcurrentAccessScope &) = delete;
    ConcurrentAccessScope &operator=(const ConcurrentAccessScope &) =
        delete;

  private:
    ThreadState *state_ = nullptr;
    bool outermost_ = false;
};

/**
 * The mutator *read* path for concurrent-relocation-aware code:
 * identical to translate() (one thread-local test more) when no
 * campaign runs, and still a plain load-translate when one does — a
 * mover's mark is stripped, never cleared, so this path costs no RMW
 * and aborts no move even mid-copy. Requires an enclosing
 * ConcurrentAccessScope on this thread — the scope's epoch, honored by
 * the mover's grace-deferred reclamation, is what keeps the returned
 * pointer readable; nothing per-object is recorded here. The pointer
 * is NOT writable while campaigns can run: a store may need to abort
 * an in-flight copy of this very object, which only the pin handshake
 * (translateConcurrent under ConcurrentPin/pinned<T>) can do.
 */
inline void *
translateScoped(const void *maybe_handle)
{
    telemetry::countHot(telemetry::Counter::DerefScoped);
    if (__builtin_expect(!creloc_detail::tlsScopeMarkAware, 1))
        return translate(maybe_handle);
    // Campaign in flight: same shape as translate(), plus the mark
    // strip (one AND). A marked entry is an in-flight move whose
    // source is still the authoritative bytes; a committed entry
    // points at the copy. Either read is correct — the source stays
    // mapped until a grace period covers this scope (limbo).
    const uint64_t v = reinterpret_cast<uint64_t>(maybe_handle);
    if (static_cast<int64_t>(v) >= 0)
        return const_cast<void *>(maybe_handle);
    const HandleTableEntry &e =
        Runtime::gTableBase[(v >> 32) & (maxHandleId - 1)];
    // acquire: a load that observes the mover's committed pointer must
    // also observe the copied bytes it points at.
    void *ptr = e.ptr.load(std::memory_order_acquire);
    return static_cast<char *>(reloc::unmarked(ptr)) +
           static_cast<uint32_t>(v);
}

} // namespace alaska

#endif // ALASKA_SERVICES_CONCURRENT_RELOC_H
