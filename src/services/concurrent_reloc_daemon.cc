#include "services/concurrent_reloc_daemon.h"

#include <algorithm>
#include <chrono>

#include "base/logging.h"
#include "core/translate.h"

namespace alaska
{

namespace
{

/** Longest uninterruptible sleep; bounds stop() latency. */
constexpr double maxSleepSec = 0.05;
/** Shortest sleep, so a hot controller cannot spin the CPU. */
constexpr double minSleepSec = 0.0002;

} // anonymous namespace

ConcurrentRelocDaemon::ConcurrentRelocDaemon(
    Runtime &runtime, anchorage::AnchorageService &service,
    anchorage::ControlParams params)
    : runtime_(runtime), service_(service),
      controller_(service, clock_, params),
      declaresConcurrentDefrag_(controller_.requiresScopedDiscipline())
{
    // Campaigns are possible for this daemon's whole lifetime (a
    // Hybrid fallback tick may resume campaigns later), so the Scoped
    // discipline must be visible to mutators before the first tick —
    // declare here, not in start(), so constructing the daemon before
    // spawning mutators is sufficient. StopTheWorld changes no handle
    // entries under running mutators, so its mutators keep the Direct
    // discipline and its two-instruction translate.
    if (declaresConcurrentDefrag_)
        Runtime::declareConcurrentDefrag();
}

ConcurrentRelocDaemon::~ConcurrentRelocDaemon()
{
    stop();
    if (declaresConcurrentDefrag_)
        Runtime::retireConcurrentDefrag();
}

void
ConcurrentRelocDaemon::start()
{
    std::lock_guard<std::mutex> guard(mutex_);
    ALASKA_ASSERT(!running_, "daemon already running");
    stopRequested_ = false;
    running_ = true;
    thread_ = std::thread([this] { run(); });
}

void
ConcurrentRelocDaemon::stop()
{
    {
        std::lock_guard<std::mutex> guard(mutex_);
        if (!running_)
            return;
        stopRequested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    std::lock_guard<std::mutex> guard(mutex_);
    running_ = false;
}

bool
ConcurrentRelocDaemon::running() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return running_;
}

anchorage::DefragStats
ConcurrentRelocDaemon::totals() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return totals_;
}

anchorage::DefragStats
ConcurrentRelocDaemon::totalsFor(anchorage::MechanismKind kind) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return mechTotals_[static_cast<size_t>(kind)];
}

size_t
ConcurrentRelocDaemon::passes() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return passes_;
}

size_t
ConcurrentRelocDaemon::fallbacks() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return fallbacks_;
}

double
ConcurrentRelocDaemon::totalDefragSec() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return totalDefragSec_;
}

double
ConcurrentRelocDaemon::totalPauseSec() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return totalPauseSec_;
}

size_t
ConcurrentRelocDaemon::barriers() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return barriers_;
}

double
ConcurrentRelocDaemon::maxBarrierPauseSec() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return maxBarrierPauseSec_;
}

size_t
ConcurrentRelocDaemon::batchBytesCurrent() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return batchBytesCurrent_;
}

telemetry::Histogram
ConcurrentRelocDaemon::barrierPauses() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return barrierPauses_;
}

void
ConcurrentRelocDaemon::run()
{
    // Registered so Hybrid/STW barriers started here behave normally
    // and so campaign loops reach safepoints for barriers started by
    // anyone else.
    ThreadRegistration registration(runtime_);

    for (;;) {
        poll();
        const anchorage::ControlAction action = controller_.tick();
        {
            std::lock_guard<std::mutex> guard(mutex_);
            batchBytesCurrent_ = controller_.batchBytesCurrent();
        }
        if (action.defragged) {
            std::lock_guard<std::mutex> guard(mutex_);
            totals_.accumulate(action.stats);
            for (const anchorage::MechanismReport &report :
                 action.byMechanism)
                mechTotals_[static_cast<size_t>(report.kind)]
                    .accumulate(report.stats);
            passes_ = controller_.passes();
            fallbacks_ = controller_.fallbacks();
            barriers_ = controller_.barriers();
            totalDefragSec_ = controller_.totalDefragSec();
            totalPauseSec_ = controller_.totalPauseSec();
            maxBarrierPauseSec_ = controller_.maxBarrierPauseSec();
            if (action.stats.barriers > 0)
                barrierPauses_.record(static_cast<uint64_t>(
                    action.stats.maxBarrierSec * 1e9));
        }

        const double wait = std::clamp(
            controller_.nextWake() - clock_.now(), minSleepSec,
            maxSleepSec);

        // Sleep in external mode: a barrier must not wait out our nap.
        runtime_.enterExternal();
        bool should_stop;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait_for(lock,
                         std::chrono::duration<double>(wait),
                         [this] { return stopRequested_; });
            should_stop = stopRequested_;
        }
        runtime_.leaveExternal();
        if (should_stop)
            break;
    }
}

} // namespace alaska
