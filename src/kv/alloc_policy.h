/**
 * @file
 * Allocator policies for the KV applications.
 *
 * The data structures (sds, dict, minikv) are written once against a
 * policy type, mirroring how the paper's evaluation compiles the same
 * unmodified Redis source against glibc malloc or through the Alaska
 * compiler:
 *
 *  - LibcAlloc: plain malloc/free; deref is the identity. The baseline.
 *  - AlaskaAlloc: halloc/hfree; every pointer the structure stores may
 *    be a handle, and deref() is the translation the compiler would
 *    have inserted (per-access granularity, i.e. the conservative
 *    no-hoisting placement), routed through the typed layer's
 *    mode-aware api::deref so the same policy is safe under
 *    stop-the-world *and* background-campaign defrag. Works with any
 *    attached service, including Anchorage — which defragments these
 *    structures with *zero* cooperation from the KV code.
 *
 * The handle-based policy is part of the raw API's internals: it
 * hands raw maybe-handles to C-style structures (sds/dict) that manage
 * lifetime explicitly, so allocation stays on the halloc/hfree escape
 * hatch — but every dereference goes through the typed access layer,
 * which is what makes the stores defrag-mode-agnostic.
 */

#ifndef ALASKA_KV_ALLOC_POLICY_H
#define ALASKA_KV_ALLOC_POLICY_H

#include <cstddef>
#include <cstdlib>

#include "api/access.h"
#include "core/runtime.h"

namespace alaska::kv
{

namespace kv_detail
{

/**
 * Store guard for raw-pointer policies: the identity, compiled away.
 * Mirrors HandleWriteRef's interface so the structures write through
 * one idiom regardless of policy.
 */
template <typename T>
struct RawWriteRef
{
    T *raw;

    T *get() const { return raw; }
    T &operator*() const { return *raw; }
    T *operator->() const { return raw; }
    T &operator[](size_t i) const { return raw[i]; }
};

/**
 * Store guard for the handle-based policy: translation plus — only
 * under the Scoped discipline — the pin half of the mover handshake
 * (ConcurrentPin), held for the guard's lifetime. Epoch scopes order
 * *reads* against campaigns (an evacuated source stays mapped until
 * every open scope closes), but they cannot order a store: one issued
 * through a pre-mark translation after the mover's copy would land in
 * the doomed source block and be lost at commit. The pin closes
 * exactly that window — the mover aborts on a pre-mark pin, and a
 * post-mark pin clears the mark, which aborts the mover. Under
 * Direct a store only ever races stop-the-world barriers, which park
 * at safepoints a KV operation never polls, so the guard is the plain
 * one-load translation and pins nothing. Unlike pinned<T> there is no
 * stack pin frame: the guard never outlives its KV operation, so
 * barriers need not see it.
 */
template <typename T>
class HandleWriteRef
{
  public:
    explicit HandleWriteRef(T *maybe_handle)
    {
        if (__builtin_expect(Runtime::translationDiscipline() ==
                                 TranslationDiscipline::Scoped,
                             0)) {
            raw_ = static_cast<T *>(
                ConcurrentPin::pinFor(maybe_handle, entry_));
        } else {
            raw_ = static_cast<T *>(
                translate(static_cast<const void *>(maybe_handle)));
        }
    }

    ~HandleWriteRef() { ConcurrentPin::unpin(entry_); }

    HandleWriteRef(const HandleWriteRef &) = delete;
    HandleWriteRef &operator=(const HandleWriteRef &) = delete;

    T *get() const { return raw_; }
    T &operator*() const { return *raw_; }
    T *operator->() const { return raw_; }
    T &operator[](size_t i) const { return raw_[i]; }

  private:
    HandleTableEntry *entry_ = nullptr;
    T *raw_ = nullptr;
};

} // namespace kv_detail

/** Baseline: libc malloc, raw pointers. */
class LibcAlloc
{
  public:
    void *alloc(size_t size) { return std::malloc(size); }
    void free(void *ptr) { std::free(ptr); }

    /** Raw pointers need no translation. */
    template <typename T>
    static T *
    deref(T *ptr)
    {
        return ptr;
    }

    /** Store access: raw pointers are directly writable. */
    template <typename T>
    static kv_detail::RawWriteRef<T>
    write(T *ptr)
    {
        return kv_detail::RawWriteRef<T>{ptr};
    }
};

/**
 * Handle-based: the structure's pointers are Alaska handles.
 *
 * deref() is the typed layer's mode-aware translation (api::deref):
 * the plain one-load translate while only stop-the-world defrag can
 * run, and the scoped mark-stripping load while background campaigns
 * are possible — never a shared-memory RMW. Under the Scoped
 * discipline callers must bracket each KV operation in an
 * alaska::access_scope (the multi-threaded YCSB driver and the
 * contention tests do); every pointer deref'd inside the scope then
 * stays *readable* until the scope closes, and the structures route
 * every store through write() — the pin-handshake guard — because a
 * store through a bare scoped translation could land in a source
 * block a campaign has already copied out of. Under Direct, the raw
 * pointer is stable (reads and writes) until the next safepoint — KV
 * operations run between polls, as compiled code would — and write()
 * costs nothing beyond the translation.
 *
 * Shard affinity: halloc routes through the Anchorage service's
 * per-shard sub-heap chains when Anchorage backs the runtime, so a KV
 * store driven by one thread allocates entirely inside that thread's
 * shard and never contends with stores on other threads; hfree from
 * any thread finds the owning shard through the service's lock-free
 * region registry.
 */
class AlaskaAlloc
{
  public:
    explicit AlaskaAlloc(Runtime &runtime) : runtime_(runtime) {}

    void *alloc(size_t size) { return runtime_.halloc(size); }
    void free(void *ptr) { runtime_.hfree(ptr); }

    /**
     * The compiler-inserted translation, at per-access granularity,
     * routed through the unified typed-API guard path. Read-only under
     * the Scoped discipline; see write().
     */
    template <typename T>
    static T *
    deref(T *ptr)
    {
        return api::deref(ptr);
    }

    /**
     * Store access: the translation plus, while campaigns are
     * possible, the per-object pin that arbitrates against an
     * in-flight move (see kv_detail::HandleWriteRef).
     */
    template <typename T>
    static kv_detail::HandleWriteRef<T>
    write(T *ptr)
    {
        return kv_detail::HandleWriteRef<T>(ptr);
    }

    Runtime &runtime() { return runtime_; }

  private:
    Runtime &runtime_;
};

} // namespace alaska::kv

#endif // ALASKA_KV_ALLOC_POLICY_H
