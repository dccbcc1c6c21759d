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
 * Smallest per-barrier byte bound the pause-SLO adapter may choose.
 * The floor keeps pathological pause measurements (page-cache
 * hiccups, scheduler preemption) from collapsing barriers to
 * single-object moves that can never finish a pass.
 */
constexpr size_t kBatchBytesFloor = 4 << 10;

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
     * the overhead-control sleep between them — so each mutator-
     * visible pause is bounded by roughly
     * kModelPauseFloor + batchBytes / copy-bandwidth instead of by the
     * whole alpha fraction of the heap. 0 = monolithic (each pass one
     * barrier, the pre-batching behavior).
     */
    size_t batchBytes = 1 << 20;
    /**
     * Pause-SLO-adaptive barriers: when > 0, the per-barrier byte
     * bound is no longer the static batchBytes but an online value
     * steered toward this per-barrier pause target (seconds) from the
     * measured pauses — multiplicative decrease on overshoot, slow
     * additive recovery — clamped to [kBatchBytesFloor, batchBytes].
     * 0 (default) keeps the static legacy bound. See
     * BarrierBudgetAdapter below and docs/TUNING.md.
     */
    double targetBarrierPauseSec = 0;
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
 * Online batchBytes adaptation toward a per-barrier pause target
 * (ControlParams::targetBarrierPauseSec). Disabled (target == 0): the
 * static legacy bound. Enabled: starts conservatively at the floor,
 * shrinks multiplicatively when a measured barrier overshoots the
 * target (proportional to the overshoot, with margin), and recovers
 * additively — slowly — while barriers run well under it, clamped to
 * [kBatchBytesFloor, batchBytes].
 */
class BarrierBudgetAdapter
{
  public:
    /**
     * @param targetPauseSec 0 disables adaptation
     * @param capBytes       static batchBytes; the adaptive ceiling
     *                       and, disabled, the returned legacy bound
     *                       (0 = unbatched, SIZE_MAX)
     */
    BarrierBudgetAdapter(double targetPauseSec, size_t capBytes);

    /** The per-barrier byte bound to use for the next barrier. */
    size_t current() const { return current_; }

    /** True when a pause target is set. */
    bool enabled() const { return enabled_; }

    /** Feed one tick's worst measured barrier pause, seconds. */
    void observe(double barrierPauseSec);

  private:
    bool enabled_;
    double target_;
    size_t cap_;
    /** kBatchBytesFloor, or the cap when that is smaller. */
    size_t floor_;
    size_t current_;
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
 * The pause-SLO batch adaptation lives in the controller's
 * BarrierBudgetAdapter.
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

    /** Total time charged to defragmentation so far, seconds. */
    double totalDefragSec() const { return totalDefragSec_; }
    /** Total mutator-visible stop-the-world time so far, seconds. */
    double totalPauseSec() const { return totalPauseSec_; }
    /** Number of ticks that did defrag work (in batched StopTheWorld
     *  mode each such tick runs one barrier of a logical pass). */
    size_t passes() const { return passes_; }
    /** Stop-the-world barriers run so far (each bounded by
     *  batchBytes when batching is on). */
    size_t barriers() const { return barriers_; }
    /** Longest single barrier charged so far, seconds (model or
     *  measured, per useModeledTime). */
    double maxBarrierPauseSec() const { return maxBarrierPauseSec_; }

    /**
     * The per-barrier byte bound the next barrier will run under: the
     * adaptive value when targetBarrierPauseSec is set, else the
     * static batchBytes (SIZE_MAX when batching is off).
     */
    size_t batchBytesCurrent() const { return adapter_.current(); }

  private:
    ControlAction runPass();

    AnchorageService &service_;
    const Clock &clock_;
    ControlParams params_;
    /** Online batchBytes steering toward targetBarrierPauseSec. */
    BarrierBudgetAdapter adapter_;
    /** StopTheWorld's batched pass while it is open across ticks. */
    std::optional<AnchorageService::BatchedPass> pass_;
    State state_ = State::Waiting;
    double nextWake_ = 0;
    double totalDefragSec_ = 0;
    double totalPauseSec_ = 0;
    size_t passes_ = 0;
    size_t barriers_ = 0;
    double maxBarrierPauseSec_ = 0;
};

} // namespace alaska::anchorage

#endif // ALASKA_ANCHORAGE_CONTROL_H
