/**
 * @file
 * Placement-trace golden tests. The first runs one seeded halloc/hfree
 * trace over a single-shard phantom heap, interleaved with the three
 * ways the runtime moves objects — a batched stop-the-world pass
 * stepped between mutator operations, one monolithic defrag() and one
 * concurrent relocateCampaign(). At every quiesce point the live
 * (handle -> address) list, sorted by handle, is folded into one
 * FNV-1a checksum. The second runs a trace over four heap shards, one
 * worker thread homed on each, and pins where concurrent campaigns put
 * objects when a sparse shard evacuates into denser shards' heaps.
 *
 * The checksum pins *placement*, not just the mutator-visible heap
 * (defrag_equivalence_test covers that): any change to where the
 * allocator, the barrier's destination search or the campaign puts an
 * object changes it. A refactor or speed-up of those paths that is
 * meant to keep placement must keep kGoldenChecksum; a change that
 * means to move objects elsewhere must re-record it and say why.
 *
 * A phantom address space hands out the same synthetic addresses in
 * every process (no mmap), and shards = 1 puts every allocation in
 * one chain whatever the thread's ordinal, so the trace is a pure
 * function of the code. The sharded trace picks its workers by
 * homeShardIndex() and runs them one at a time; it folds slot ->
 * address in slot order, because handle IDs depend on the thread's
 * handle-ID shard, so its checksum does not depend on thread
 * ordinals either.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
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

constexpr uint64_t kTraceSeed = 0x9ace7ace5eedull;
constexpr int kSlots = 3000;
constexpr int kOps = 40000;

/** Trace points (operation counts) where the movers run. */
constexpr int kBatchedStart = 12000;
constexpr int kStepEvery = 150;
constexpr size_t kStepBytes = 16 << 10;
constexpr int kMonolithicAt = 24000;
constexpr int kCampaignAt = 34000;

/** The trace's checksum, as recorded when the test was introduced. */
constexpr uint64_t kGoldenChecksum = 0xc3c8de662267af19ull;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t
fnv1a(uint64_t h, uint64_t word)
{
    for (int i = 0; i < 8; i++) {
        h ^= (word >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct TraceResult
{
    uint64_t checksum = kFnvOffset;
    size_t quiescePoints = 0;
    DefragStats batched;
    DefragStats monolithic;
    DefragStats campaign;
};

TraceResult
runTrace()
{
    PhantomAddressSpace space;
    AnchorageService service(
        space, AnchorageConfig{.subHeapBytes = 1 << 20, .shards = 1});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);

    std::vector<void *> slots(kSlots, nullptr);
    TraceResult result;

    auto quiesce = [&] {
        std::vector<std::pair<uint64_t, uint64_t>> live;
        for (void *h : slots) {
            if (h != nullptr) {
                live.emplace_back(reinterpret_cast<uint64_t>(h),
                                  reinterpret_cast<uint64_t>(translate(h)));
            }
        }
        std::sort(live.begin(), live.end());
        for (const auto &[handle, addr] : live) {
            result.checksum = fnv1a(result.checksum, handle);
            result.checksum = fnv1a(result.checksum, addr);
        }
        result.quiescePoints++;
    };

    Rng rng(kTraceSeed);
    std::optional<AnchorageService::BatchedPass> pass;
    for (int op = 1; op <= kOps; op++) {
        void *&h = slots[rng.below(kSlots)];
        if (h == nullptr) {
            // Mostly small objects, with a tail of larger ones so the
            // size classes and the bump frontier all see traffic.
            const size_t size = rng.below(8) == 0 ? 512 + rng.below(3585)
                                                  : 16 + rng.below(497);
            h = runtime.halloc(size);
        } else if (rng.below(10) < 5) {
            runtime.hfree(h);
            h = nullptr;
        }

        if (op == kBatchedStart)
            pass = service.beginBatchedDefrag(SIZE_MAX);
        if (pass && !pass->done() && op % kStepEvery == 0) {
            result.batched.accumulate(pass->step(kStepBytes));
            quiesce();
        }
        if (op == kMonolithicAt) {
            result.monolithic = service.defrag(SIZE_MAX);
            quiesce();
        }
        if (op == kCampaignAt) {
            result.campaign = service.relocateCampaign(SIZE_MAX);
            quiesce();
        }
    }
    quiesce();

    for (void *&h : slots) {
        if (h != nullptr) {
            runtime.hfree(h);
            h = nullptr;
        }
    }
    return result;
}

// --- the sharded trace ------------------------------------------------------

constexpr uint64_t kShardedSeed = 0x5aa4d0ce5eedull;
constexpr size_t kShards = 4;
constexpr int kSlotsPerShard = 800;
constexpr int kOpsPerTurn = 400;
constexpr int kRounds = 22;
/** Rounds in which shards 2 and 3, then shards 0 and 1, only free:
 *  their heaps go sparse, and the campaign run after the last of those
 *  rounds must evacuate them into the other pair's heaps. */
constexpr int kThinHighFrom = 12, kFirstCampaignAfter = 13;
constexpr int kThinLowFrom = 19, kSecondCampaignAfter = 20;

/** The sharded trace's checksum, as recorded when it was introduced. */
constexpr uint64_t kShardedGoldenChecksum = 0x776e3a95277e16dfull;

struct ShardedTraceResult
{
    uint64_t checksum = kFnvOffset;
    DefragStats campaigns;
    /** Live bytes the campaigns moved from one shard into another. */
    size_t crossShardBytes = 0;
};

/** Run fn on a fresh registered thread homed on heap shard `shard`. */
void
onShard(Runtime &runtime, const AnchorageService &service, size_t shard,
        const std::function<void()> &fn)
{
    // Ordinals are handed out round-robin, so a few spawns reach every
    // residue mod the shard count.
    for (int attempt = 0; attempt < 64; attempt++) {
        bool ran = false;
        std::thread t([&] {
            ThreadRegistration reg(runtime);
            if (service.homeShardIndex() == shard) {
                ran = true;
                fn();
            }
        });
        t.join();
        if (ran)
            return;
    }
    ADD_FAILURE() << "could not land a thread on shard " << shard;
}

ShardedTraceResult
runShardedTrace()
{
    PhantomAddressSpace space;
    AnchorageService service(
        space, AnchorageConfig{.subHeapBytes = 64 << 10, .shards = kShards});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);

    std::vector<void *> slots(kShards * kSlotsPerShard, nullptr);
    ShardedTraceResult result;

    auto quiesce = [&] {
        for (size_t i = 0; i < slots.size(); i++) {
            if (slots[i] != nullptr) {
                result.checksum = fnv1a(result.checksum, i);
                result.checksum = fnv1a(
                    result.checksum,
                    reinterpret_cast<uint64_t>(translate(slots[i])));
            }
        }
    };
    auto campaign = [&] {
        std::vector<size_t> before(kShards);
        for (size_t s = 0; s < kShards; s++)
            before[s] = service.shardStats(s).liveBytes;
        result.campaigns.accumulate(service.relocateCampaign(SIZE_MAX));
        // Nothing else runs, so live bytes a shard gained came from
        // another shard's heaps.
        for (size_t s = 0; s < kShards; s++) {
            const size_t after = service.shardStats(s).liveBytes;
            if (after > before[s])
                result.crossShardBytes += after - before[s];
        }
        quiesce();
    };

    Rng rng(kShardedSeed);
    for (int round = 0; round < kRounds; round++) {
        for (size_t s = 0; s < kShards; s++) {
            const bool thin =
                (s >= 2 && round >= kThinHighFrom &&
                 round <= kFirstCampaignAfter) ||
                (s < 2 && round >= kThinLowFrom &&
                 round <= kSecondCampaignAfter);
            onShard(runtime, service, s, [&] {
                for (int op = 0; op < kOpsPerTurn; op++) {
                    void *&h = slots[s * kSlotsPerShard +
                                     rng.below(kSlotsPerShard)];
                    if (h == nullptr) {
                        const size_t size =
                            rng.below(8) == 0 ? 512 + rng.below(3585)
                                              : 16 + rng.below(497);
                        if (!thin)
                            h = runtime.halloc(size);
                    } else if (rng.below(10) < (thin ? 7u : 5u)) {
                        runtime.hfree(h);
                        h = nullptr;
                    }
                }
            });
        }
        if (round == kFirstCampaignAfter || round == kSecondCampaignAfter)
            campaign();
    }
    quiesce();

    for (void *&h : slots) {
        if (h != nullptr) {
            runtime.hfree(h);
            h = nullptr;
        }
    }
    return result;
}

TEST(PlacementTrace, TraceExercisesEveryMover)
{
    const TraceResult r = runTrace();
    // The batched pass really was split across mutator operations, and
    // each mover found something to move — otherwise the checksum
    // would pin only the allocator.
    EXPECT_GT(r.batched.barriers, 1u);
    EXPECT_GT(r.batched.movedObjects, 0u);
    EXPECT_GT(r.monolithic.movedObjects, 0u);
    EXPECT_GT(r.campaign.committed, 0u);
    EXPECT_GT(r.quiescePoints, 3u);
}

TEST(PlacementTrace, ChecksumIsDeterministicAndMatchesGolden)
{
    const TraceResult a = runTrace();
    const TraceResult b = runTrace();
    ASSERT_EQ(a.checksum, b.checksum)
        << "the trace itself is nondeterministic";
    EXPECT_EQ(a.quiescePoints, b.quiescePoints);
    EXPECT_EQ(a.checksum, kGoldenChecksum)
        << std::hex << "placement changed: checksum 0x" << a.checksum
        << ", golden 0x" << kGoldenChecksum;
}

TEST(PlacementTrace, ShardedCampaignsMoveAcrossShards)
{
    const ShardedTraceResult r = runShardedTrace();
    EXPECT_GT(r.campaigns.committed, 0u);
    EXPECT_GT(r.crossShardBytes, 0u);
}

TEST(PlacementTrace, ShardedChecksumIsDeterministicAndMatchesGolden)
{
    const ShardedTraceResult a = runShardedTrace();
    const ShardedTraceResult b = runShardedTrace();
    ASSERT_EQ(a.checksum, b.checksum)
        << "the sharded trace itself is nondeterministic";
    EXPECT_EQ(a.checksum, kShardedGoldenChecksum)
        << std::hex << "placement changed: checksum 0x" << a.checksum
        << ", golden 0x" << kShardedGoldenChecksum;
}

} // namespace
