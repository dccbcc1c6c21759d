#include "services/concurrent_reloc_daemon.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

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
      mechanism_(params.mode == anchorage::DefragMode::StopTheWorld
                     ? anchorage::MechanismKind::Stw
                     : anchorage::MechanismKind::Campaign),
      declaresConcurrentDefrag_(controller_.requiresScopedDiscipline())
{
    // A Concurrent daemon may run a campaign at any tick of its life,
    // so the Scoped discipline must be visible to mutators before the
    // first tick — declare here, not in start(), so constructing the
    // daemon before spawning mutators is sufficient. StopTheWorld
    // changes no handle entries under running mutators, so its
    // mutators keep the Direct discipline and its two-instruction
    // translate.
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
    return ledger_.totals;
}

anchorage::DefragStats
ConcurrentRelocDaemon::totalsFor(anchorage::MechanismKind kind) const
{
    if (kind != mechanism_)
        return {};
    return totals();
}

size_t
ConcurrentRelocDaemon::passes() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return ledger_.passes;
}

double
ConcurrentRelocDaemon::totalPauseSec() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return ledger_.pauseSec(controller_.params());
}

size_t
ConcurrentRelocDaemon::barriers() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return ledger_.totals.barriers;
}

double
ConcurrentRelocDaemon::maxBarrierPauseSec() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return ledger_.maxBarrierSec(controller_.params());
}

size_t
ConcurrentRelocDaemon::batchBytesCurrent() const
{
    const size_t batch = controller_.params().batchBytes;
    return batch > 0 ? batch : SIZE_MAX;
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
    // Registered so StopTheWorld barriers started here behave
    // normally and so campaign loops reach safepoints for barriers
    // started by anyone else.
    ThreadRegistration registration(runtime_);

    for (;;) {
        poll();
        const anchorage::ControlAction action = controller_.tick();
        if (action.defragged) {
            std::lock_guard<std::mutex> guard(mutex_);
            ledger_ = controller_.ledger();
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
