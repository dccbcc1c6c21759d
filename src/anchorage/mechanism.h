/**
 * @file
 * Per-mechanism attribution for the defrag pipeline.
 *
 * Anchorage turns fragmentation into free memory two ways: batched
 * stop-the-world compaction, or concurrent relocation campaigns over
 * the epoch/grace pipeline. A controller tick (control.h) reports each
 * mechanism it invoked in its own MechanismReport, so the
 * controller/daemon/bench stack can attribute recovered bytes, CPU
 * time, and mutator pauses to the mechanism that earned them — never
 * folded together across mechanisms.
 */

#ifndef ALASKA_ANCHORAGE_MECHANISM_H
#define ALASKA_ANCHORAGE_MECHANISM_H

#include <cstddef>
#include <cstdint>

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
 * Outcome of one mechanism invocation within a controller tick. The
 * stats are this mechanism's alone — per-mechanism attribution is the
 * point of the report — and the cost/pause split is already charged in
 * the controller's time base (model or measured).
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
};

} // namespace alaska::anchorage

#endif // ALASKA_ANCHORAGE_MECHANISM_H
