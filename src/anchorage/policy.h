/**
 * @file
 * The policy half of the defrag pipeline's mechanism/policy split.
 *
 * A DefragPolicy decides, once per controller tick, which mechanisms
 * run, in what order, with what share of the tick's alpha budget —
 * and reports the outcome as per-mechanism MechanismReports. The
 * legacy DefragMode values survive as constructors of equivalent
 * policies (makePolicy): StopTheWorld is the resumable batched-pass
 * policy, Concurrent/Hybrid are declarative compositions of stages
 * with gates (run always, run on abort-rate fallback) instead of
 * hand-coded enum branches. Every policy's hysteresis band watches
 * the paper's fragmentation metric (PolicyView::fragmentation).
 *
 * The policy layer also owns the two online controller adaptations
 * (ROADMAP follow-ups to the batched-pass PR): BarrierBudgetAdapter
 * steers batchBytes toward ControlParams::targetBarrierPauseSec from
 * the measured per-barrier pause, and StwPolicy abandons a mid-pass
 * remainder when churn has already pushed fragmentation below F_lb.
 *
 * Policies are deliberately testable without a heap: they see the
 * world only through PolicyView callbacks and their injected
 * DefragMechanisms, so unit tests drive them with stubs
 * (tests/policy_test.cc).
 */

#ifndef ALASKA_ANCHORAGE_POLICY_H
#define ALASKA_ANCHORAGE_POLICY_H

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "anchorage/mechanism.h"

namespace alaska::anchorage
{

struct ControlParams;

/**
 * The slice of heap state a policy may consult. Callbacks, not a
 * service reference, so tests can script the metrics; every callback
 * must be set before the policy runs.
 */
struct PolicyView
{
    /** Paper metric: virtual extent / live bytes. */
    std::function<double()> fragmentation;
    /** Whole-heap extent, bytes (the alpha budget's base). */
    std::function<size_t()> heapExtent;
};

/**
 * What one policy tick did: the per-mechanism reports in execution
 * order plus the scheduling facts the controller needs (pass
 * completion, progress, fallback/abandonment flags).
 */
struct TickResult
{
    /** One report per mechanism invocation, in execution order. */
    std::vector<MechanismReport> reports;
    /** The tick's logical pass reached its end state (a mid-pass
     *  batched barrier leaves this false). */
    bool passDone = true;
    /** The pass completed with nothing left for any mechanism. */
    bool noProgress = false;
    /** An abort-rate fallback stage ran this tick. */
    bool fellBack = false;
    /** A mid-pass remainder was abandoned (no mechanism ran). */
    bool abandoned = false;
};

/**
 * One tick's worth of decisions over a set of owned mechanisms. The
 * controller stays a thin hysteresis loop; everything mode-shaped
 * lives behind this interface.
 */
class DefragPolicy
{
  public:
    virtual ~DefragPolicy() = default;

    /** Stable name for traces and logs. */
    virtual const char *name() const = 0;

    /**
     * Run one tick of defrag work. batchBytesNow is the current
     * per-barrier byte bound (the adaptive value when a pause target
     * is set, else the static ControlParams::batchBytes).
     */
    virtual TickResult runTick(const PolicyView &view,
                               const ControlParams &params,
                               size_t batchBytesNow) = 0;

    /** True if any owned mechanism requires the Scoped discipline. */
    virtual bool requiresScopedDiscipline() const = 0;
};

/**
 * Online batchBytes adaptation toward a per-barrier pause target
 * (ControlParams::targetBarrierPauseSec). Disabled (target == 0): the
 * static legacy bound. Enabled: starts conservatively at the floor,
 * shrinks multiplicatively when a measured barrier overshoots the
 * target (proportional to the overshoot, with margin), and recovers
 * additively — slowly — while barriers run well under it, clamped to
 * [batchBytesFloor, batchBytes].
 */
class BarrierBudgetAdapter
{
  public:
    /**
     * @param targetPauseSec 0 disables adaptation
     * @param floorBytes     smallest adaptive bound (>= 1 enforced)
     * @param capBytes       static batchBytes; the adaptive ceiling
     *                       and, disabled, the returned legacy bound
     *                       (0 = unbatched, SIZE_MAX)
     */
    BarrierBudgetAdapter(double targetPauseSec, size_t floorBytes,
                         size_t capBytes);

    /** The per-barrier byte bound to use for the next barrier. */
    size_t current() const { return current_; }

    /** True when a pause target is set. */
    bool enabled() const { return enabled_; }

    /** Feed one tick's worst measured barrier pause, seconds. */
    void observe(double barrierPauseSec);

  private:
    bool enabled_;
    double target_;
    size_t floor_;
    size_t cap_;
    size_t current_;
};

/** Build the policy equivalent to a legacy DefragMode (see
 *  ControlParams::mode), owning its mechanisms over service. */
std::unique_ptr<DefragPolicy> makePolicy(const ControlParams &params,
                                         AnchorageService &service);

// --- concrete policies (exposed for tests/policy_test.cc) ------------------

/**
 * The StopTheWorld policy: one barrier of a resumable batched pass
 * per tick (the controller's overhead sleep between ticks spreads the
 * pause), with optional mid-pass abandonment when churn has already
 * pushed the metric below F_lb (ControlParams::midPassAbandonFraction).
 */
class StwPolicy final : public DefragPolicy
{
  public:
    explicit StwPolicy(std::unique_ptr<DefragMechanism> stw);

    const char *name() const override { return "stw"; }
    TickResult runTick(const PolicyView &view,
                       const ControlParams &params,
                       size_t batchBytesNow) override;
    bool requiresScopedDiscipline() const override;

  private:
    std::unique_ptr<DefragMechanism> stw_;
};

/**
 * A declarative mechanism composition: stages run in order, each
 * behind a gate, sharing one alpha budget per tick (each byte-budgeted
 * stage gets what the earlier stages left). Concurrent and Hybrid
 * are both instances of this shape.
 */
class ComposedPolicy final : public DefragPolicy
{
  public:
    /** When a stage runs within its tick. */
    enum class Gate
    {
        /** Every tick. */
        Always,
        /**
         * Abort-rate fallback (Hybrid): only when the tick's earlier
         * stages saw at least abortFallbackMinAttempts and aborted
         * more than abortFallbackRate of them, and budget remains.
         */
        AbortFallback,
    };

    /** One stage of the composition. */
    struct Stage
    {
        std::unique_ptr<DefragMechanism> mechanism;
        Gate gate = Gate::Always;
        /** Marks the stage as the abort-rate fallback for accounting
         *  (TickResult::fellBack, the controller's fallbacks()). */
        bool isFallback = false;
    };

    ComposedPolicy(const char *name, std::vector<Stage> stages);

    const char *name() const override { return name_; }
    TickResult runTick(const PolicyView &view,
                       const ControlParams &params,
                       size_t batchBytesNow) override;
    bool requiresScopedDiscipline() const override;

  private:
    const char *name_;
    std::vector<Stage> stages_;
};

} // namespace alaska::anchorage

#endif // ALASKA_ANCHORAGE_POLICY_H
