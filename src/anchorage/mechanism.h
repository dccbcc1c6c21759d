/**
 * @file
 * The mechanism half of the defrag pipeline's mechanism/policy split.
 *
 * A DefragMechanism is one way of turning fragmentation into free
 * memory: batched stop-the-world compaction, or concurrent relocation
 * campaigns over the epoch/grace pipeline.
 * Each implementation wraps the corresponding AnchorageService entry
 * point and reports its outcome in a uniform MechanismReport, so the
 * policy layer (policy.h) can compose mechanisms declaratively and the
 * controller/daemon/bench stack can attribute recovered bytes, CPU
 * time, and mutator pauses to the mechanism that earned them — never
 * folded together across mechanisms.
 *
 * Mechanisms are stateful only where the underlying service operation
 * is resumable (a batched stop-the-world pass spans many run() calls,
 * one barrier each); campaigns are one-shot per run().
 * Threading contract: like the controller, a mechanism is driven by
 * one thread at a time; the heap work it triggers does its own
 * per-shard locking.
 */

#ifndef ALASKA_ANCHORAGE_MECHANISM_H
#define ALASKA_ANCHORAGE_MECHANISM_H

#include <cstddef>
#include <cstdint>
#include <memory>

#include "anchorage/anchorage_service.h"

namespace alaska::anchorage
{

/** The two ways Anchorage recovers memory (paper §4.3, §7). */
enum class MechanismKind : uint32_t
{
    /** Batched stop-the-world compaction barriers. */
    Stw,
    /** Concurrent mark/copy/commit relocation campaigns. */
    Campaign,
    kCount,
};

constexpr size_t kNumMechanisms =
    static_cast<size_t>(MechanismKind::kCount);

/** Stable snake_case name for a mechanism kind (never nullptr). */
const char *mechanismName(MechanismKind kind);

/**
 * What a policy asks of one mechanism invocation. Plain data; the
 * policy fills in the fields its stage needs and the mechanism ignores
 * the rest (a campaign has no batch).
 */
struct MechanismRequest
{
    /**
     * Byte budget for this invocation. For a batched stop-the-world
     * mechanism the budget is consumed only when a new pass begins —
     * a mid-pass run() resumes the in-progress pass's own budget.
     */
    size_t budgetBytes = 0;
    /** Max bytes moved inside any single barrier (SIZE_MAX = unbatched). */
    size_t batchBytes = SIZE_MAX;
    /** Per-shard fairness cap on the pass budget (SIZE_MAX = none). */
    size_t shardCapBytes = SIZE_MAX;
    /**
     * Stop-the-world only: drain the whole budget in this call (a
     * fallback remainder) instead of running one barrier and leaving
     * the pass resumable for the next tick.
     */
    bool runToCompletion = false;
    /** Charge modeled time instead of measured wall time. */
    bool useModeledTime = false;
};

/**
 * Uniform outcome of one mechanism invocation. The stats are this
 * mechanism's alone — per-mechanism attribution is the point of the
 * report — and the cost/pause split is already charged in the
 * requested time base (model or measured).
 */
struct MechanismReport
{
    MechanismKind kind = MechanismKind::Stw;
    /** This invocation's stats (one mechanism, never folded). */
    DefragStats stats;
    /** Work time charged against the overhead budget, seconds. */
    double costSec = 0;
    /** Mutator-visible stop-the-world time, seconds (0 when the
     *  mechanism never stops the world). */
    double pauseSec = 0;
    /** Stop-the-world: the logical pass reached its end state (always
     *  true for one-shot mechanisms). */
    bool ranToCompletion = true;
    /** The mechanism found nothing left to do (its own emptiness
     *  test: totals for a finished pass, bytes moved). */
    bool noProgress = false;
};

/**
 * One pluggable defrag actuator. Policies own their mechanisms and
 * call run() per tick/stage; the interface is deliberately small so
 * unit tests can drive policies against stub mechanisms.
 */
class DefragMechanism
{
  public:
    virtual ~DefragMechanism() = default;

    /** Which actuator this is (stable; used for attribution). */
    virtual MechanismKind kind() const = 0;

    /** The kind's stable snake_case name. */
    const char *
    name() const
    {
        return mechanismName(kind());
    }

    /** Do one invocation's worth of work (see MechanismRequest). */
    virtual MechanismReport run(const MechanismRequest &request) = 0;

    /** True while a resumable pass is in progress (stop-the-world
     *  batching); one-shot mechanisms are never mid-pass. */
    virtual bool midPass() const { return false; }

    /** Drop an in-progress pass's remainder (no-op when not mid-pass
     *  or one-shot). The next run() starts fresh. */
    virtual void abandon() {}

    /**
     * True if mutators must run the Scoped translation discipline
     * while this mechanism may act (concurrent campaigns); false for
     * mechanisms that never change translation under a running
     * mutator (stop-the-world).
     */
    virtual bool requiresScopedDiscipline() const = 0;
};

/** Batched stop-the-world compaction over beginBatchedDefrag/step. */
std::unique_ptr<DefragMechanism>
makeStwMechanism(AnchorageService &service);

/** Concurrent relocation campaigns over relocateCampaign. */
std::unique_ptr<DefragMechanism>
makeCampaignMechanism(AnchorageService &service);

} // namespace alaska::anchorage

#endif // ALASKA_ANCHORAGE_MECHANISM_H
