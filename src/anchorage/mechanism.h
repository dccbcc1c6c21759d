/**
 * @file
 * The two defrag mechanisms, named once for attribution.
 *
 * Anchorage turns fragmentation into free memory two ways: batched
 * stop-the-world compaction, or concurrent relocation campaigns over
 * the epoch/grace pipeline. Each controller mode (control.h) runs
 * exactly one of them; the daemon's totalsFor(), SloTracker's
 * violated-window attribution and the benches' report columns are
 * keyed by MechanismKind, so recovered bytes, CPU time and mutator
 * pauses are attributed to the mechanism that earned them.
 */

#ifndef ALASKA_ANCHORAGE_MECHANISM_H
#define ALASKA_ANCHORAGE_MECHANISM_H

#include <cstddef>
#include <cstdint>

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

} // namespace alaska::anchorage

#endif // ALASKA_ANCHORAGE_MECHANISM_H
