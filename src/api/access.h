/**
 * @file
 * The unified access-guard family of the typed API: one set of types
 * that picks the correct translation idiom from the runtime's active
 * defrag mode (Runtime::translationDiscipline()), so callers no longer
 * choose between translate() and translateScoped() by hand — the
 * choice PR 2 left to every call site, where picking wrong silently
 * races relocation campaigns.
 *
 *  - alaska::access_scope   brackets one application operation. Free
 *                           under the Direct discipline; a real
 *                           ConcurrentAccessScope under Scoped. The
 *                           scope's epoch is what keeps every deref
 *                           inside it readable — campaigns copy and
 *                           commit immediately but only *reclaim* an
 *                           evacuated source after open scopes close
 *                           (grace periods over a limbo list).
 *  - alaska::api::deref<T>  per-access translation inside a scope —
 *                           what the KV policies' deref() compiles to.
 *                           No shared-memory RMW in any mode. The
 *                           result is readable for the scope's
 *                           lifetime; under Scoped it is NOT a store
 *                           target (see pinned<T>).
 *  - alaska::access<T>      RAII guard for one object: the raw pointer
 *                           is valid for the guard's lifetime (its own
 *                           epoch scope under Scoped — read access
 *                           only, like api::deref; plain translation
 *                           under Direct — then valid until the next
 *                           safepoint, so don't hold it across poll()
 *                           in either mode).
 *  - alaska::pinned<T>      must-not-move guard, and under Scoped the
 *                           one way to *store* through a translation:
 *                           the object cannot be relocated while the
 *                           guard lives, across barriers included
 *                           (stack pin frame under Direct, plus an
 *                           atomic pin under Scoped — since the epoch
 *                           rework the *only* per-object pin; both are
 *                           honored by STW passes and campaigns).
 *
 * Everything is header-only and compiles down to the raw surface; the
 * fast paths are measured against raw translate() in
 * bench/fig05_translate_cost.cc.
 */

#ifndef ALASKA_API_ACCESS_H
#define ALASKA_API_ACCESS_H

#include <cstddef>
#include <optional>

#include "api/href.h"
#include "core/pin.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "services/concurrent_reloc.h"

namespace alaska
{

template <typename T>
class hbox;

namespace api
{

/**
 * Mode-aware per-access translation: the typed layer's equivalent of
 * the compiler-inserted translate. Compiles to translateScoped(): the
 * ordinary one-load translate() with a mover's mark stripped (one
 * AND), in either discipline and whether or not a campaign runs. No
 * branch on thread-local state and no shared-memory RMW. Validity
 * comes from the scope, not from the deref: campaigns commit moves
 * immediately but grace-wait on the scope's published epoch before
 * *freeing* an evacuated source, so whichever copy this deref resolved
 * to stays readable until the scope closes. Contract: under the Scoped
 * discipline (Runtime::translationDiscipline()) the caller must be
 * inside an access_scope bracketing the operation, and the result is a
 * read-only view — route stores through pinned<T> (or the KV policies'
 * write()), whose pin handshake is what aborts an in-flight copy a
 * store would otherwise vanish into. Under Direct no scope is needed
 * and the raw pointer is valid, for reads and writes, until the next
 * safepoint.
 */
template <typename T>
inline T *
deref(T *maybe_handle)
{
    return static_cast<T *>(
        translateScoped(const_cast<const T *>(maybe_handle)));
}

} // namespace api

/**
 * Tag selecting the handle-fault-checked translation (paper §7): an
 * access constructed with `alaska::checked` traps into the service for
 * entries marked Invalid (e.g. swapped-out objects) instead of
 * dereferencing a poisoned pointer. Meaningful with fault-based
 * services (SwapService); those do not run relocation campaigns, so
 * the checked path always uses the Direct idiom.
 */
struct checked_t
{
    explicit checked_t() = default;
};

/** The checked_t tag value (see checked_t). */
inline constexpr checked_t checked{};

/**
 * Brackets one application operation (one KV request, one graph query)
 * in the discipline the runtime currently requires. Under Direct this
 * is two uncontended loads and nothing else; under Scoped it opens a
 * real ConcurrentAccessScope, publishing this thread's access epoch —
 * a campaign moves objects without waiting for anyone, but it defers
 * *reclaiming* an evacuated source until the epoch advances (the scope
 * closes), so everything translated inside the scope stays readable.
 * Derefs inside the scope are therefore plain loads; the epoch bump at
 * the scope boundary is the only shared-memory write. Must not span a
 * safepoint poll (an open scope stalls campaign grace periods, and
 * parked threads read as quiesced). Scopes nest.
 */
class access_scope
{
  public:
    access_scope()
    {
        if (Runtime::translationDiscipline() ==
            TranslationDiscipline::Scoped) {
            // ConcurrentAccessScope counts the scope_open itself.
            scope_.emplace();
        } else {
            telemetry::countHot(telemetry::Counter::ScopeOpen);
        }
    }

    access_scope(const access_scope &) = delete;
    access_scope &operator=(const access_scope &) = delete;

  private:
    std::optional<ConcurrentAccessScope> scope_;
};

/**
 * RAII typed access to one object behind a maybe-handle: construction
 * translates once, and the raw pointer stays valid for the guard's
 * lifetime. Under the Scoped discipline the guard opens its own epoch
 * scope, so a relocation campaign racing the guard grace-waits for the
 * guard to drop before reclaiming the object's old storage — no
 * per-object pin, no shared-memory RMW — and, like every epoch-backed
 * translation, the pointer is a read-only view (a store could land in
 * a source block a campaign has already copied out of); under Direct
 * the translation is the plain one-load fast path, writable as ever.
 * In both modes the guard must not outlive the next safepoint poll
 * (exactly the raw translate() contract — under Scoped, parking reads
 * as quiesced and voids the epoch protection). Use pinned<T> when the
 * object must survive barriers unmoved, the pointer must cross a poll,
 * or a store must race campaigns safely.
 */
template <typename T>
class access
{
  public:
    /** Translate a maybe-handle for the guard's lifetime. */
    explicit access(T *maybe_handle)
    {
        if (__builtin_expect(Runtime::translationDiscipline() ==
                                 TranslationDiscipline::Scoped,
                             0)) {
            // The guard's own epoch scope: campaigns grace-wait on it
            // before freeing anything this translation may reference.
            scope_.emplace();
            raw_ = static_cast<T *>(translateScoped(
                static_cast<const void *>(maybe_handle)));
        } else {
            raw_ = static_cast<T *>(
                translate(static_cast<const void *>(maybe_handle)));
        }
    }

    /**
     * Fault-checked translation (see checked_t): swapped-out objects
     * are faulted back in by the service before the guard returns.
     */
    access(T *maybe_handle, checked_t)
        : raw_(static_cast<T *>(
              translateChecked(static_cast<const void *>(maybe_handle))))
    {
    }

    /** Access the contents of an owning box. */
    explicit access(const hbox<T> &box) : access(box.get()) {}

    /** Checked access to an owning box's contents. */
    access(const hbox<T> &box, checked_t) : access(box.get(), checked) {}

    /** Access through a typed view. */
    explicit access(href<T> ref) : access(ref.get()) {}

    access(const access &) = delete;
    access &operator=(const access &) = delete;

    /** The translated raw pointer (guard-lifetime validity). */
    T *get() const { return raw_; }
    T &operator*() const { return *raw_; }
    T *operator->() const { return raw_; }
    /** Element access for array objects. */
    T &operator[](size_t i) const { return raw_[i]; }

  private:
    std::optional<ConcurrentAccessScope> scope_;
    T *raw_ = nullptr;
};

/**
 * RAII must-not-move guard: while a pinned<T> lives, neither a
 * stop-the-world pass nor a concurrent campaign will relocate the
 * object (barriers see the pin in the unified pin set; campaigns abort
 * on the pin count). Since the epoch rework this is the *only*
 * per-object pin in the API — access<T> and api::deref rely on epoch
 * grace instead — and consequently the only guard whose pointer may be
 * *stored through* while campaigns run: the pin/mark handshake aborts
 * any in-flight copy the store would otherwise be lost against. The
 * raw pointer is also stable across safepoints — this is the guard for
 * spans handed to external code or held across polls. Requires a
 * registered thread (the pin lives in a stack pin frame; PinFrame
 * enforces the requirement loudly).
 */
template <typename T>
class pinned
{
  public:
    /** Pin a maybe-handle for the guard's lifetime. */
    explicit pinned(T *maybe_handle) : frame_(&slot_, 1)
    {
        // Stack pin set, no atomics — the paper-default idiom, seen by
        // every stop-the-world barrier.
        raw_ = static_cast<T *>(
            frame_.pin(0, static_cast<const void *>(maybe_handle)));
        if (__builtin_expect(Runtime::translationDiscipline() ==
                                 TranslationDiscipline::Scoped,
                             0)) {
            // Additionally take an atomic pin (ConcurrentPin's
            // handshake): campaigns check pin counts, not other
            // threads' stacks, so this is what makes an in-flight
            // mover abort; the pin's own translation replaces the one
            // from the plain path. pinFor counts the deref_pinned
            // telemetry for this branch.
            raw_ = static_cast<T *>(
                ConcurrentPin::pinFor(maybe_handle, entry_));
        } else {
            telemetry::countHot(telemetry::Counter::DerefPinned);
        }
    }

    ~pinned() { ConcurrentPin::unpin(entry_); }

    /** Pin an owning box's contents. */
    explicit pinned(const hbox<T> &box) : pinned(box.get()) {}

    /** Pin through a typed view. */
    explicit pinned(href<T> ref) : pinned(ref.get()) {}

    pinned(const pinned &) = delete;
    pinned &operator=(const pinned &) = delete;

    /** The translated raw pointer (stable until the guard drops). */
    T *get() const { return raw_; }
    T &operator*() const { return *raw_; }
    T *operator->() const { return raw_; }
    /** Element access for array objects. */
    T &operator[](size_t i) const { return raw_[i]; }

  private:
    uint64_t slot_ = 0;
    PinFrame frame_;
    HandleTableEntry *entry_ = nullptr;
    T *raw_ = nullptr;
};

} // namespace alaska

#endif // ALASKA_API_ACCESS_H
