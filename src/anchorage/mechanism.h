/**
 * @file
 * The two defrag mechanisms, named for repobench/ only.
 *
 * Anchorage turns fragmentation into free memory two ways: batched
 * stop-the-world compaction, or concurrent relocation campaigns over
 * the epoch/grace pipeline. Each controller mode (control.h) runs
 * exactly one of them, so DefragMode is the one name the library's
 * code and reports use. This enum is kept only because repobench/
 * still calls ConcurrentRelocDaemon::totalsFor() with it; delete both
 * when a benchmark change reads ConcurrentRelocDaemon::totals()
 * instead.
 */

#ifndef ALASKA_ANCHORAGE_MECHANISM_H
#define ALASKA_ANCHORAGE_MECHANISM_H

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
};

} // namespace alaska::anchorage

#endif // ALASKA_ANCHORAGE_MECHANISM_H
