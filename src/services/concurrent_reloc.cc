#include "services/concurrent_reloc.h"

namespace alaska
{

namespace creloc_detail
{

// local-exec: this library only ever links statically into the final
// executable, so the flag can skip the GOT indirection — together with
// constinit this makes the translateScoped() fast path a single
// %fs-relative load (fig05_translate_cost's api_deref rows).
thread_local constinit bool
    __attribute__((tls_model("local-exec"))) tlsScopeMarkAware = false;

namespace
{
/** Nesting depth of ConcurrentAccessScope on this thread. */
thread_local uint32_t tlsScopeDepth = 0;
} // anonymous namespace

} // namespace creloc_detail

ConcurrentAccessScope::ConcurrentAccessScope()
{
    using creloc_detail::tlsScopeDepth;
    if (tlsScopeDepth++ > 0)
        return;
    outermost_ = true;
    telemetry::countHot(telemetry::Counter::ScopeOpen);
    Runtime *runtime = Runtime::gRuntime;
    state_ = runtime ? runtime->currentThreadStateOrNull() : nullptr;
    // Publish "in scope" (odd epoch) *before* sampling the campaign
    // flag, both seq_cst: either the mover's flag store is visible here
    // (we translate mark-aware), or our odd epoch is visible to the
    // mover's grace wait (it drains us before marking anything). The
    // epoch advance is the scope's only shared-memory write — derefs
    // inside the scope are plain loads.
    if (state_)
        state_->accessEpoch.fetch_add(1, std::memory_order_seq_cst);
    creloc_detail::tlsScopeMarkAware = Runtime::concurrentRelocActive();
}

ConcurrentAccessScope::~ConcurrentAccessScope()
{
    using creloc_detail::tlsScopeDepth;
    if (!outermost_) {
        tlsScopeDepth--;
        return;
    }
    creloc_detail::tlsScopeMarkAware = false;
    // Advance to even: every translation this scope obtained is now
    // dead, and any grace wait snapshotting our odd epoch unblocks.
    if (state_)
        state_->accessEpoch.fetch_add(1, std::memory_order_seq_cst);
    tlsScopeDepth--;
}

} // namespace alaska
