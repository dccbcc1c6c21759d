/**
 * @file
 * The accessor side of speculative concurrent object relocation
 * (paper §7). The one mover is AnchorageService::relocateCampaign,
 * which moves objects *without* stopping the world, resembling
 * Shenandoah's concurrent compaction:
 *
 *   1. the mover marks the handle's entry (we set the low bit of the
 *      entry's word — objects are 16-byte aligned) with a CAS that
 *      expects the word to carry no pins, and immediately
 *      speculatively copies the bytes to a new location — no drain,
 *      no wait: the abort window is the copy itself, microseconds;
 *   2. a *pinning* accessor that pins meanwhile counts its pin in
 *      the word, so the commit CAS (which expects no pins) fails, and
 *      clears the mark — aborting the relocation — then proceeds on
 *      the old memory;
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
 *    (ThreadState::accessEpoch); every deref inside it is the same
 *    plain load with the mover's mark stripped — never an RMW, and
 *    the reader never needs to know whether a campaign runs. Validity
 *    comes from grace-deferred reclamation: the source bytes a stale
 *    translation points at outlive every scope open at commit time,
 *    so a reader never delays a move, only the reclaim of its source.
 *    What epochs cannot order is a *store* — a write issued through a
 *    pre-mark translation after the mover's copy would land in the
 *    doomed source block and be lost when the commit publishes the
 *    copy.
 *  - ConcurrentPin: RAII atomic pin + translate from one fetch_add;
 *    the *write* path (and the raw-pointer escape hatch, pinned<T>).
 *    Pin, mark and commit are all RMWs on the entry's one word, so
 *    they are totally ordered and the lost-store window closes: a pin
 *    taken before the mover's mark fails the mark CAS; one taken
 *    after fails the commit CAS and clears the mark. Either way the
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
 * Pin guard for mutators racing with concurrent relocation: the *write*
 * path. One fetch_add on the entry's word takes an atomic pin, and the
 * translation comes from the word it returned; a mark found there is
 * then cleared. A mover always observes the pin or the cleared mark:
 * its mark and commit CASes both expect no pins, and the cleared mark
 * keeps the commit failing after the unpin. Clearing the mark is what
 * makes a pin and unpin inside one copy safe: they would otherwise
 * restore the exact marked word, and the commit would publish a copy
 * that misses the pinner's store. This is the one
 * implementation of the pin half of the mover handshake; the typed api
 * guards hold one rather than re-deriving the protocol. Inline
 * (including the destructor) so guards composed from it stay
 * optimizable in translation-heavy loops.
 */
class ConcurrentPin
{
  public:
    explicit ConcurrentPin(const void *maybe_handle)
        : raw_(pinFor(maybe_handle, entry_))
    {
    }

    ~ConcurrentPin() { unpin(entry_); }

    ConcurrentPin(const ConcurrentPin &) = delete;
    ConcurrentPin &operator=(const ConcurrentPin &) = delete;

    void *get() const { return raw_; }

    /**
     * The pin half of the handshake, for guards composed from this
     * protocol (the typed api guards): pin the value's entry, clearing
     * any mark, and return the translation — writable until unpin().
     * Sets entry to the pinned entry, or nullptr for a raw pointer,
     * which is returned unchanged.
     */
    static void *
    pinFor(const void *maybe_handle, HandleTableEntry *&entry)
    {
        const uint64_t v = reinterpret_cast<uint64_t>(maybe_handle);
        if (!isHandle(v)) {
            entry = nullptr;
            return const_cast<void *>(maybe_handle);
        }
        telemetry::count(telemetry::Counter::DerefPinned);
        entry = &Runtime::gRuntime->table().entry(handleId(v));
        return static_cast<char *>(HandleTableEntry::addressOf(
                   entry->pin())) +
               handleOffset(v);
    }

    /** Drop a pin taken by pinFor(); nullptr is a no-op. */
    static void
    unpin(HandleTableEntry *entry)
    {
        if (entry)
            entry->unpin();
    }

  private:
    HandleTableEntry *entry_ = nullptr;
    void *raw_ = nullptr;
};

/**
 * Brackets one application operation (e.g. one KV request) on a mutator
 * thread. On entry the scope publishes the thread as "accessing" by
 * advancing its epoch to odd (see ThreadState::accessEpoch); on exit
 * the epoch advances to even, which is what a campaign's grace ticket
 * (Runtime::beginGrace) observes. The mover marks, copies and commits
 * without waiting for anyone — an open scope never delays a move — but
 * it only *frees* an evacuated source block after every scope open at
 * commit time has closed, so every translation obtained inside this
 * scope reads valid bytes (old copy or new, both correct) until the
 * scope ends. Stores are NOT covered: an epoch cannot stop a store
 * through a stale translation from landing in an already-copied source
 * block. Store through a pin (pinned<T>, the KV policies' write path),
 * whose handshake aborts the mover instead. Scopes nest; only the
 * outermost publishes and releases. Must not span a safepoint poll (a
 * scope held across a park would stall campaigns' grace periods for
 * the barrier's whole duration); use pinned<T> to keep a raw pointer
 * across polls.
 *
 * Registered threads get the full drain protocol (campaign grace
 * tickets cover their scopes). Unregistered threads are invisible to
 * grace tickets and get no reclamation deferral; mutators racing a
 * relocator must be registered.
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
 * The mutator *read* path for concurrent-relocation-aware code: the
 * same one-load translate() with a mover's mark stripped (one AND) —
 * no RMW, no branch on whether a campaign runs, and no move aborted
 * even mid-copy. A marked entry is an in-flight move whose source is
 * still the authoritative bytes; a committed entry points at the copy.
 * Requires an enclosing ConcurrentAccessScope on this thread — the
 * scope's epoch, honored by the mover's grace-deferred reclamation, is
 * what keeps the returned pointer readable; nothing per-object is
 * recorded here. The pointer is NOT writable while campaigns can run:
 * a store may need to abort an in-flight copy of this very object,
 * which only the pin handshake (ConcurrentPin/pinned<T>) can do.
 */
inline void *
translateScoped(const void *maybe_handle)
{
    telemetry::countHot(telemetry::Counter::DerefScoped);
    const uint64_t v = reinterpret_cast<uint64_t>(maybe_handle);
    if (static_cast<int64_t>(v) >= 0)
        return const_cast<void *>(maybe_handle);
    const HandleTableEntry &e =
        Runtime::gTableBase[(v >> 32) & (maxHandleId - 1)];
    // seq_cst, not acquire: besides seeing the copied bytes behind a
    // committed pointer, this load must be ordered after the scope's
    // epoch increment against the mover's commit CAS and grace
    // snapshot (a store-buffering shape across two locations). Then a
    // scope the snapshot missed cannot read a pointer older than the
    // commit. On x86 it is the same plain mov as acquire.
    return static_cast<char *>(e.address(std::memory_order_seq_cst)) +
           static_cast<uint32_t>(v);
}

} // namespace alaska

#endif // ALASKA_SERVICES_CONCURRENT_RELOC_H
