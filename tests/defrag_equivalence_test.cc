/**
 * @file
 * Differential defrag-equivalence harness: one seeded
 * alloc/free/mutate trace replayed through each defragmentation
 * mechanism — stop-the-world passes and concurrent relocation
 * campaigns — with a quiesce point every few thousand operations where
 * the mechanism runs and the whole heap is snapshotted. Whatever the
 * mechanism moved under the hood, the mutator-visible heap must be
 * *identical* across mechanisms at every quiesce point: the same
 * slots live, with bit-identical contents (per-object FNV-1a
 * checksums through translate()), and live-byte accounting matching
 * the per-block ground truth (usableSize summed over every live
 * object). Cross-mechanism activeBytes equality is deliberately NOT
 * asserted: a mover may legitimately claim a slightly larger
 * coalesced hole for a destination, so accounting equivalence is
 * each mechanism against its own blocks, not byte totals against
 * each other.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "base/rng.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

enum class Mechanism
{
    StopTheWorld,
    Concurrent,
};

constexpr uint64_t kTraceSeed = 0x5eede001;
constexpr int kSlots = 1000;
constexpr int kOps = 12000;
constexpr int kQuiesceEvery = 1500;

uint64_t
fnv1a(const unsigned char *p, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The mutator-visible heap at one quiesce point. */
struct Snapshot
{
    /** Per-slot content checksum; 0 for dead slots. */
    std::vector<uint64_t> checksums;
    size_t liveSlots = 0;

    bool
    operator==(const Snapshot &other) const
    {
        return liveSlots == other.liveSlots &&
               checksums == other.checksums;
    }
};

struct RunResult
{
    std::vector<Snapshot> snapshots;
    DefragStats totals;
    size_t finalActive = 0;
    size_t finalRss = 0;
};

RunResult
runTrace(Mechanism mech)
{
    RealAddressSpace space;
    AnchorageService service(
        space, AnchorageConfig{.subHeapBytes = 1 << 20});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);

    struct Slot
    {
        void *h = nullptr;
        size_t size = 0;
        uint32_t version = 0;
    };
    std::vector<Slot> slots(kSlots);

    // Contents are a pure function of (slot, version, offset), so a
    // corrupted byte can never masquerade as another slot's data.
    auto fill = [](const Slot &slot, int idx) {
        auto *p = static_cast<unsigned char *>(translate(slot.h));
        for (size_t j = 0; j < slot.size; j++) {
            p[j] = static_cast<unsigned char>(
                static_cast<uint32_t>(idx) * 31 + slot.version * 7 + j);
        }
    };

    Rng rng(kTraceSeed);
    RunResult result;
    for (int op = 1; op <= kOps; op++) {
        const int idx = static_cast<int>(rng.below(kSlots));
        Slot &slot = slots[idx];
        const uint64_t action = rng.below(10);
        if (slot.h == nullptr) {
            slot.size = 16 + rng.below(497);
            slot.version = 0;
            slot.h = runtime.halloc(slot.size);
            fill(slot, idx);
        } else if (action < 4) {
            runtime.hfree(slot.h);
            slot.h = nullptr;
        } else {
            slot.version++;
            fill(slot, idx);
        }

        if (op % kQuiesceEvery != 0)
            continue;

        switch (mech) {
          case Mechanism::StopTheWorld:
            result.totals.accumulate(service.defrag(1 << 22));
            break;
          case Mechanism::Concurrent:
            result.totals.accumulate(
                service.relocateCampaign(1 << 22));
            break;
        }

        Snapshot snap;
        snap.checksums.resize(kSlots, 0);
        size_t block_truth_bytes = 0;
        for (int i = 0; i < kSlots; i++) {
            if (slots[i].h == nullptr)
                continue;
            const auto *p = static_cast<const unsigned char *>(
                translate(slots[i].h));
            snap.checksums[static_cast<size_t>(i)] =
                fnv1a(p, slots[i].size);
            snap.liveSlots++;
            block_truth_bytes += service.usableSize(p);
            // Residency never undercounts: a live object's page must
            // be resident.
            EXPECT_TRUE(space.pages().isResident(
                reinterpret_cast<uint64_t>(p)));
        }
        // Live-byte accounting vs per-block ground truth, every
        // quiesce point, whatever the mechanism moved.
        EXPECT_EQ(service.activeBytes(), block_truth_bytes);
        result.snapshots.push_back(std::move(snap));
    }

    for (auto &slot : slots) {
        if (slot.h != nullptr) {
            runtime.hfree(slot.h);
            slot.h = nullptr;
        }
    }
    result.finalActive = service.activeBytes();
    result.finalRss = service.rss();
    return result;
}

TEST(DefragEquivalence, AllMechanismsSeeTheSameHeap)
{
    const RunResult stw = runTrace(Mechanism::StopTheWorld);
    const RunResult conc = runTrace(Mechanism::Concurrent);

    ASSERT_EQ(stw.snapshots.size(), conc.snapshots.size());
    for (size_t q = 0; q < stw.snapshots.size(); q++) {
        EXPECT_EQ(stw.snapshots[q], conc.snapshots[q])
            << "stw vs concurrent diverged at quiesce point " << q;
    }

    // Every mechanism drains to an empty heap.
    EXPECT_EQ(stw.finalActive, 0u);
    EXPECT_EQ(conc.finalActive, 0u);

    // Each mechanism actually ran.
    EXPECT_GT(stw.totals.movedObjects, 0u);
    EXPECT_GT(conc.totals.committed, 0u);
}

TEST(DefragEquivalence, TraceIsDeterministicPerMechanism)
{
    // The harness itself must be noise-free, or the differential
    // comparison above could mask a real divergence behind trace
    // nondeterminism: two identical runs produce identical snapshots
    // *and* identical mechanism stats.
    const RunResult a = runTrace(Mechanism::Concurrent);
    const RunResult b = runTrace(Mechanism::Concurrent);
    ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
    for (size_t q = 0; q < a.snapshots.size(); q++)
        EXPECT_EQ(a.snapshots[q], b.snapshots[q]);
    EXPECT_EQ(a.totals.committed, b.totals.committed);
    EXPECT_EQ(a.totals.movedBytes, b.totals.movedBytes);
    EXPECT_EQ(a.finalRss, b.finalRss);
}

} // namespace
