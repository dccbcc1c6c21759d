/**
 * @file
 * Anchorage's defragmentation control algorithm (paper §4.3, "Control
 * system").
 *
 * The controller keeps fragmentation within [F_lb, F_ub] using
 * hysteresis, and caps the fraction of time spent defragmenting at
 * O_ub. It is a two-state machine:
 *
 *  - Waiting: wake every 500 ms; if fragmentation > F_ub, switch to
 *    Defragmenting.
 *  - Defragmenting: run partial passes, each moving at most an
 *    alpha-fraction of the heap; after a pass taking T_defrag, sleep
 *    T = T_defrag / O_ub; return to Waiting when fragmentation < F_lb
 *    or no further progress is possible. A stop-the-world pass is
 *    batched (paper §6's pause-time story): it runs as a sequence of
 *    short barriers — one per tick, at most batchBytes moved each,
 *    the overhead sleep in between — so no single mutator-visible
 *    pause exceeds the batch budget regardless of heap size.
 *
 * The controller is clock-driven (tick()), so the same code runs under
 * a real clock (examples) or a virtual clock (benchmarks, Figure 10/11).
 */

#ifndef ALASKA_ANCHORAGE_CONTROL_H
#define ALASKA_ANCHORAGE_CONTROL_H

#include <cstddef>
#include <optional>
#include <string_view>

#include "anchorage/anchorage_service.h"
#include "sim/clock.h"

namespace alaska::anchorage
{

/**
 * Which mechanism a controller tick runs (paper §4.3 vs §7). Both
 * modes steal across allocation shards: a pass or campaign ranks every
 * shard's sub-heaps by occupancy and evacuates sparse ones into denser
 * ones anywhere (see AnchorageService).
 */
enum class DefragMode
{
    /** Classic Anchorage: every pass runs inside a barrier (and holds
     *  every shard lock while the world is stopped). */
    StopTheWorld,
    /** Concurrent relocation campaigns only; the world never stops and
     *  the mover holds at most one shard lock at a time. */
    Concurrent,
};

/** The mode's CLI and report name: "stw" or "concurrent". */
const char *defragModeName(DefragMode mode);

/** The mode named by defragModeName's spelling; nullopt otherwise. */
std::optional<DefragMode> parseDefragMode(std::string_view name);

/**
 * Floor on the controller's overhead-control sleep, seconds.
 * T_defrag / O_ub near-spins under a real clock when a measured pass
 * is sub-microsecond; the floor keeps the duty cycle at or below O_ub
 * (sleeping longer only lowers it) without busy-polling the clock.
 */
constexpr double kMinSleepSec = 100e-6;

/**
 * Operator-tunable control parameters. Every knob is documented with
 * operational guidance in docs/TUNING.md. Plain data: set the fields
 * before constructing the controller and do not mutate them afterwards
 * (the controller keeps a copy).
 */
struct ControlParams
{
    /** Fragmentation hysteresis bounds [F_lb, F_ub]. */
    double fLb = 1.15;
    double fUb = 1.40;
    /**
     * Defrag overhead bound O_ub (fraction of time). The paper's
     * envelope also has a lower bound O_lb; the controller enforces
     * only this upper one (below the band it idles in Waiting).
     */
    double oUb = 0.05;
    /** Aggression: max fraction of the heap moved per pass. */
    double alpha = 0.25;
    /** Waiting-state polling interval (the paper's 500 ms). */
    double pollInterval = 0.5;
    /**
     * Use the bandwidth-modeled pass duration instead of measured wall
     * time (required for virtual-clock experiments).
     */
    bool useModeledTime = false;
    /** Pass scheduling mode. */
    DefragMode mode = DefragMode::StopTheWorld;
    /**
     * Batched stop-the-world passes: max bytes moved inside any single
     * barrier. A logical pass (alpha × extent) is spread over
     * ceil(budget / batchBytes) short barriers — one per tick, with
     * the overhead-control sleep between them — so the move work
     * inside each barrier is bounded by roughly
     * kModelPauseFloor + batchBytes / copy-bandwidth instead of by the
     * whole alpha fraction of the heap (the rendezvous that stops the
     * world before it is not part of that bound). 0 = monolithic
     * (each pass one barrier, the pre-batching behavior).
     */
    size_t batchBytes = 1 << 20;
};

/** What a controller tick did. Returned by value; no locking. */
struct ControlAction
{
    /** True if a defrag pass ran on this tick. */
    bool defragged = false;
    /**
     * The stats of the tick's one mechanism invocation: in batched
     * StopTheWorld mode one barrier of the in-progress pass, in
     * Concurrent mode one campaign.
     */
    DefragStats stats;
    /**
     * The mutator-visible stop-the-world time of this tick (model or
     * measured). Zero for campaign ticks, which never stop the world.
     */
    double pauseSec = 0;
    /** Defrag work time charged against the overhead budget. */
    double costSec = 0;
};

/**
 * What a controller has run so far: every defrag tick's stats folded
 * into one DefragStats, and the number of such ticks. The charged
 * reads pick the modeled or the measured field per
 * ControlParams::useModeledTime, so the controller and a daemon that
 * copies its ledger report the same numbers from the same code.
 */
struct DefragLedger
{
    DefragStats totals;
    /** Ticks that did defrag work (in batched StopTheWorld mode each
     *  such tick runs one barrier of a logical pass). */
    size_t passes = 0;

    /** Time charged to defragmentation, seconds. */
    double
    defragSec(const ControlParams &params) const
    {
        return params.useModeledTime ? totals.modeledSec
                                     : totals.measuredSec;
    }

    /** Mutator-visible stop-the-world time, seconds: every charged
     *  second in StopTheWorld mode, none in Concurrent mode (a
     *  campaign never stops the world). */
    double
    pauseSec(const ControlParams &params) const
    {
        return params.mode == DefragMode::StopTheWorld
                   ? defragSec(params)
                   : 0.0;
    }

    /** Longest single barrier, seconds, in the charged time base. */
    double
    maxBarrierSec(const ControlParams &params) const
    {
        return params.useModeledTime ? totals.maxBarrierModeledSec
                                     : totals.maxBarrierSec;
    }
};

/**
 * The two-state hysteresis controller. It watches the heap's
 * fragmentation() against the [F_lb, F_ub] band, runs one tick of its
 * mode per wake, and schedules the next wake from the tick's charged
 * cost. A tick per mode:
 *
 *  - StopTheWorld: one barrier of a batched pass that stays open
 *    across ticks until it has spent its budget or walked every
 *    source, even when churn meanwhile pushed the metric below F_lb.
 *  - Concurrent: one relocation campaign on the alpha budget.
 *
 * Threading contract: the controller itself is NOT thread-safe — drive
 * tick() from one thread at a time (a loop, or the concurrent-reloc
 * daemon's background thread). The heap work a tick triggers is safe
 * against concurrent mutators: the service's fragmentation metric and
 * every pass and campaign do their own per-shard locking. The alpha
 * budget is computed from the whole (all-shard) extent, so one tick's
 * work is bounded regardless of how many shards it steals across.
 */
class DefragController
{
  public:
    /** Hysteresis state (see the file comment). */
    enum class State
    {
        Waiting,
        Defragmenting,
    };

    /**
     * @param service the (sharded) heap to control; must outlive this
     * @param clock   time source; virtual clocks need useModeledTime
     * @param params  tuning; copied, later changes have no effect
     */
    DefragController(AnchorageService &service, const Clock &clock,
                     ControlParams params = {});

    /**
     * Give the controller a chance to act. Cheap no-op before
     * nextWake(). Call from a loop or a dedicated thread — one caller
     * at a time (see the class comment).
     */
    ControlAction tick();

    /** Absolute time of the next scheduled wake-up. */
    double nextWake() const { return nextWake_; }

    /** Current hysteresis state. Read from the driving thread only. */
    State state() const { return state_; }
    /** The (normalized) parameters the controller runs with. */
    const ControlParams &params() const { return params_; }

    /**
     * True if mutators must run the Scoped translation discipline
     * while this controller may act: Concurrent mode runs campaigns,
     * which move objects under running mutators.
     */
    bool
    requiresScopedDiscipline() const
    {
        return params_.mode == DefragMode::Concurrent;
    }

    /** Every tick's stats folded, and the count of defrag ticks. */
    const DefragLedger &ledger() const { return ledger_; }
    /** Every tick's stats folded over all shards. */
    const DefragStats &totals() const { return ledger_.totals; }
    /** Total time charged to defragmentation so far, seconds. */
    double totalDefragSec() const { return ledger_.defragSec(params_); }
    /** Total mutator-visible stop-the-world time so far, seconds. */
    double totalPauseSec() const { return ledger_.pauseSec(params_); }
    /** Number of ticks that did defrag work (in batched StopTheWorld
     *  mode each such tick runs one barrier of a logical pass). */
    size_t passes() const { return ledger_.passes; }
    /** Stop-the-world barriers run so far (each bounded by
     *  batchBytes when batching is on). */
    size_t barriers() const { return ledger_.totals.barriers; }
    /** Longest single barrier charged so far, seconds (model or
     *  measured, per useModeledTime). */
    double
    maxBarrierPauseSec() const
    {
        return ledger_.maxBarrierSec(params_);
    }

  private:
    ControlAction runPass();

    AnchorageService &service_;
    const Clock &clock_;
    ControlParams params_;
    /** StopTheWorld's batched pass while it is open across ticks. */
    std::optional<AnchorageService::BatchedPass> pass_;
    State state_ = State::Waiting;
    double nextWake_ = 0;
    DefragLedger ledger_;
};

} // namespace alaska::anchorage

#endif // ALASKA_ANCHORAGE_CONTROL_H
