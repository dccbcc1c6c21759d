#include "services/concurrent_reloc.h"

namespace alaska
{

namespace creloc_detail
{

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
    // Publish "in scope" (odd epoch), seq_cst like translateScoped()'s
    // load: a grace snapshot either sees this odd epoch, or it came
    // first and every deref in this scope reads a pointer no older
    // than the commits it covers. The epoch advance is the scope's only
    // shared-memory write — derefs inside the scope are plain loads.
    if (state_)
        state_->accessEpoch.fetch_add(1, std::memory_order_seq_cst);
}

ConcurrentAccessScope::~ConcurrentAccessScope()
{
    using creloc_detail::tlsScopeDepth;
    if (!outermost_) {
        tlsScopeDepth--;
        return;
    }
    // Advance to even: every translation this scope obtained is now
    // dead, and any grace ticket that snapshotted our odd epoch
    // elapses.
    if (state_)
        state_->accessEpoch.fetch_add(1, std::memory_order_seq_cst);
    tlsScopeDepth--;
}

} // namespace alaska
