/**
 * @file
 * The background concurrent-relocation daemon: Anchorage defrag as a
 * service thread instead of an in-barrier pass.
 *
 * The daemon hosts a DefragController on its own runtime-registered
 * thread and drives it against the wall clock. In Concurrent mode every
 * pass the controller schedules is a relocation campaign
 * (AnchorageService::relocateCampaign): the thread snapshots sparse
 * sub-heaps, walks candidates top-down, and moves each object through
 * paper §7's mark -> copy -> commit protocol with no wait in the
 * window — mutators keep running, their scoped derefs pay no RMW and
 * never abort a move, and moved sources are reclaimed only after a
 * grace period (the limbo list) rather than readers being drained
 * up front or aborted via pins. Which mechanism runs is the hosted
 * controller's ControlParams::mode: StopTheWorld runs batched
 * barriers, Concurrent runs campaigns. The daemon declares the Scoped
 * translation discipline iff the controller requires it (Concurrent
 * mode), and folds every tick's stats into totals().
 *
 * Between ticks the daemon parks in external mode, so barriers (its
 * own StopTheWorld barriers included) never wait on its sleep.
 */

#ifndef ALASKA_SERVICES_CONCURRENT_RELOC_DAEMON_H
#define ALASKA_SERVICES_CONCURRENT_RELOC_DAEMON_H

#include <condition_variable>
#include <mutex>
#include <thread>

#include "anchorage/anchorage_service.h"
#include "anchorage/control.h"
#include "anchorage/mechanism.h"
#include "core/runtime.h"
#include "telemetry/histogram.h"
#include "sim/clock.h"

namespace alaska
{

/**
 * The background relocator.
 *
 * Threading contract: start()/stop()/running() and every stats
 * accessor may be called from any thread — the counters are snapshots
 * published by the daemon thread under the daemon's own mutex. The
 * hosted DefragController is touched only by the daemon thread, which
 * is also the single driver of relocation campaigns (preserving the
 * service's single-mover invariant). Campaigns themselves take the
 * service's per-shard locks one at a time, so the daemon never blocks
 * a mutator for longer than one shard-local operation.
 */
class ConcurrentRelocDaemon
{
  public:
    /**
     * @param runtime the runtime whose heap the daemon defragments
     * @param service the Anchorage service backing that runtime
     * @param params  controller tuning; params.mode selects the
     *                execution model for every scheduled pass
     */
    ConcurrentRelocDaemon(Runtime &runtime,
                          anchorage::AnchorageService &service,
                          anchorage::ControlParams params = {});
    ~ConcurrentRelocDaemon();

    ConcurrentRelocDaemon(const ConcurrentRelocDaemon &) = delete;
    ConcurrentRelocDaemon &operator=(const ConcurrentRelocDaemon &) =
        delete;

    /** Launch the daemon thread. Not reentrant; call once per stop(). */
    void start();

    /** Stop and join the daemon thread; idempotent, any thread. */
    void stop();

    /** True between start() and stop(). Any thread. */
    bool running() const;

    /** Stats of every action the daemon has run so far, folded over
     *  all shards. Any thread. */
    anchorage::DefragStats totals() const;

    /** totals() for the mode's mechanism (barriers in StopTheWorld
     *  mode, campaigns in Concurrent mode), empty stats for the other.
     *  Kept only because repobench/ still reads it; delete it, and
     *  anchorage/mechanism.h, when a benchmark change reads totals()
     *  instead. Any thread. */
    anchorage::DefragStats totalsFor(anchorage::MechanismKind kind) const;

    /** Controller passes run so far. Any thread. */
    size_t passes() const;

    /** Always 0: no mode falls back to another mechanism. Kept only
     *  because repobench/ still reports it as `policy.fallbacks`;
     *  delete it when a benchmark change drops that row. */
    size_t fallbacks() const { return 0; }

    /** Total mutator-visible pause time caused so far, seconds. */
    double totalPauseSec() const;

    /** Stop-the-world barriers run so far (batched passes run many
     *  short ones per logical pass). Any thread. */
    size_t barriers() const;

    /** Longest single barrier so far in the controller's charged
     *  time: measured wall seconds normally, modeled seconds under
     *  ControlParams::useModeledTime. Any thread. */
    double maxBarrierPauseSec() const;

    /** The controller's current per-barrier batch budget in bytes —
     *  the adaptive value when ControlParams::targetBarrierPauseSec
     *  is set, else the static ControlParams::batchBytes bound.
     *  Snapshot published per tick; any thread. */
    size_t batchBytesCurrent() const;

    /**
     * Distribution of per-tick worst-barrier pauses, always in
     * *measured* wall nanoseconds (unlike maxBarrierPauseSec(), which
     * follows useModeledTime — the daemon normally runs a real clock,
     * where the two agree). A sample times only the move work inside
     * the barrier callback, not the rendezvous and pin-set collection
     * before it; the `barrier_pause_ns` telemetry histogram records
     * each barrier's whole stopped window. In batched StopTheWorld
     * mode a tick runs exactly one barrier. A telemetry::Histogram,
     * the one percentile structure: log2 buckets in constant memory,
     * since the daemon is long-lived and must not keep one sample per
     * tick forever; percentiles never exceed its max(). Snapshot copy;
     * any thread.
     */
    telemetry::Histogram barrierPauses() const;

  private:
    void run();

    Runtime &runtime_;
    anchorage::AnchorageService &service_;
    RealClock clock_;
    /** Touched only by the daemon thread once start()ed. */
    anchorage::DefragController controller_;
    /** The mechanism the controller's mode runs (totalsFor()). */
    const anchorage::MechanismKind mechanism_;

    /**
     * True when the controller's mode runs concurrent campaigns,
     * which require the Scoped discipline: the constructor then
     * declares it (Runtime::declareConcurrentDefrag) until
     * destruction.
     */
    bool declaresConcurrentDefrag_ = false;

    std::thread thread_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stopRequested_ = false;
    bool running_ = false;

    /** Snapshot counters, published by the daemon thread per tick. */
    anchorage::DefragStats totals_;
    size_t passes_ = 0;
    size_t barriers_ = 0;
    size_t batchBytesCurrent_ = 0;
    double totalPauseSec_ = 0;
    double maxBarrierPauseSec_ = 0;
    telemetry::Histogram barrierPauses_;
};

} // namespace alaska

#endif // ALASKA_SERVICES_CONCURRENT_RELOC_DAEMON_H
