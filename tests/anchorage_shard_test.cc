/**
 * @file
 * Tests for sharded Anchorage allocation: thread-to-shard affinity,
 * per-shard vs aggregate accounting, cross-shard frees and the
 * remote-free inbox they go through, and — the important part —
 * defragmentation as a cross-shard stealer, in both the stop-the-world
 * and the concurrent-campaign execution models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "anchorage/anchorage_service.h"
#include "core/runtime.h"
#include "core/translate.h"
#include "services/concurrent_reloc.h"
#include "services/concurrent_reloc_daemon.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;
using namespace alaska::anchorage;

class AnchorageShardTest : public ::testing::Test
{
  protected:
    AnchorageShardTest()
        : service_(space_, AnchorageConfig{.subHeapBytes = 1 << 20,
                                           .shards = 8}),
          runtime_(RuntimeConfig{.tableCapacity = 1u << 18}),
          registration_(runtime_)
    {
        runtime_.attachService(&service_);
    }

    /**
     * Run fn on a fresh registered thread whose home shard is NOT
     * `avoid` (SIZE_MAX accepts any shard). Thread ordinals are
     * round-robin, so a handful of spawns always reaches a different
     * residue mod the shard count; each probe thread is registered, so
     * skipped ordinals leak nothing.
     * @return the shard the worker ran on.
     */
    size_t
    onOtherShard(size_t avoid, const std::function<void()> &fn)
    {
        for (int attempt = 0; attempt < 64; attempt++) {
            size_t shard = SIZE_MAX;
            bool ran = false;
            std::thread t([&] {
                ThreadRegistration reg(runtime_);
                shard = service_.homeShardIndex();
                if (shard != avoid) {
                    ran = true;
                    fn();
                }
            });
            t.join();
            if (ran)
                return shard;
        }
        ADD_FAILURE() << "could not land a thread off shard " << avoid;
        return SIZE_MAX;
    }

    /** Sum shardStats over every shard. */
    AnchorageService::ShardStats
    sumShards()
    {
        AnchorageService::ShardStats sum;
        for (size_t s = 0; s < service_.shardCount(); s++) {
            const auto stats = service_.shardStats(s);
            sum.subHeaps += stats.subHeaps;
            sum.extent += stats.extent;
            sum.liveBytes += stats.liveBytes;
            sum.freeBytes += stats.freeBytes;
        }
        return sum;
    }

    // Declaration order matters: the service must outlive the runtime.
    RealAddressSpace space_;
    AnchorageService service_;
    Runtime runtime_;
    ThreadRegistration registration_;
};

TEST_F(AnchorageShardTest, ShardCountIsNormalized)
{
    EXPECT_EQ(service_.shardCount(), 8u);
    RealAddressSpace space;
    AnchorageService one(space, AnchorageConfig{.shards = 1});
    EXPECT_EQ(one.shardCount(), 1u);
    AnchorageService rounded(space, AnchorageConfig{.shards = 5});
    EXPECT_EQ(rounded.shardCount(), 8u);
}

TEST_F(AnchorageShardTest, HomeShardIsStableAndThreadsSpread)
{
    const size_t mine = service_.homeShardIndex();
    EXPECT_EQ(service_.homeShardIndex(), mine);
    EXPECT_LT(mine, service_.shardCount());
    // Two freshly spawned threads get consecutive ordinals and land on
    // different shards than each other (8 shards, consecutive residues).
    size_t first = SIZE_MAX, second = SIZE_MAX;
    std::thread a([&] { first = service_.homeShardIndex(); });
    a.join();
    std::thread b([&] { second = service_.homeShardIndex(); });
    b.join();
    EXPECT_NE(first, second);
}

TEST_F(AnchorageShardTest, AllocationsLandInTheHomeShard)
{
    const size_t mine = service_.homeShardIndex();
    const auto before = service_.shardStats(mine);
    std::vector<void *> handles;
    for (int i = 0; i < 100; i++)
        handles.push_back(runtime_.halloc(256));
    const auto after = service_.shardStats(mine);
    EXPECT_EQ(after.liveBytes, before.liveBytes + 100 * 256);
    for (void *h : handles)
        runtime_.hfree(h);
}

TEST_F(AnchorageShardTest, CrossShardFreeFindsTheOwningShard)
{
    const size_t mine = service_.homeShardIndex();
    std::vector<void *> handles;
    const size_t other = onOtherShard(mine, [&] {
        for (int i = 0; i < 64; i++)
            handles.push_back(runtime_.halloc(512));
    });
    ASSERT_NE(other, mine);
    EXPECT_EQ(service_.shardStats(other).liveBytes, 64u * 512);
    // Free from this thread (a different shard): the region registry
    // must route each free to the owning shard.
    for (void *h : handles)
        runtime_.hfree(h);
    EXPECT_EQ(service_.shardStats(other).liveBytes, 0u);
}

TEST_F(AnchorageShardTest, PerShardAndAggregateAccountingAgree)
{
    const size_t mine = service_.homeShardIndex();
    std::vector<void *> local, remote;
    for (int i = 0; i < 300; i++)
        local.push_back(runtime_.halloc(128));
    onOtherShard(mine, [&] {
        for (int i = 0; i < 200; i++)
            remote.push_back(runtime_.halloc(640));
    });

    auto sum = sumShards();
    EXPECT_EQ(sum.liveBytes, service_.activeBytes());
    EXPECT_EQ(sum.extent, service_.heapExtent());
    EXPECT_EQ(sum.subHeaps, service_.subHeapCount());
    EXPECT_EQ(sum.liveBytes, 300u * 128 + 200u * 640);

    for (void *h : local)
        runtime_.hfree(h);
    for (void *h : remote)
        runtime_.hfree(h);
    sum = sumShards();
    EXPECT_EQ(sum.liveBytes, 0u);
    EXPECT_EQ(sum.liveBytes, service_.activeBytes());
}

TEST_F(AnchorageShardTest, OwnerReusesHolesOfRemoteFrees)
{
    std::vector<void *> handles;
    for (int i = 0; i < 256; i++)
        handles.push_back(runtime_.halloc(512));
    const size_t extent = service_.heapExtent();

    // Another shard's thread frees every fourth block: the frees wait
    // in this shard's inbox, untouched by any accessor in between.
    std::vector<void *> freed;
    std::vector<uint64_t> holes;
    for (size_t i = 0; i < handles.size(); i += 4) {
        freed.push_back(handles[i]);
        holes.push_back(reinterpret_cast<uint64_t>(translate(handles[i])));
    }
    ASSERT_EQ(freed.size(), 64u);
    onOtherShard(service_.homeShardIndex(), [&] {
        for (void *h : freed)
            runtime_.hfree(h);
    });

    // The owner's next same-size allocations apply the inbox when they
    // take the shard lock and reuse exactly those holes: no bump.
    std::vector<uint64_t> reused;
    std::vector<void *> fresh;
    for (size_t i = 0; i < freed.size(); i++) {
        fresh.push_back(runtime_.halloc(512));
        reused.push_back(reinterpret_cast<uint64_t>(translate(fresh.back())));
    }
    EXPECT_EQ(service_.heapExtent(), extent);
    std::sort(holes.begin(), holes.end());
    std::sort(reused.begin(), reused.end());
    EXPECT_EQ(reused, holes);

    for (size_t i = 0; i < handles.size(); i++) {
        if (i % 4 != 0)
            runtime_.hfree(handles[i]);
    }
    for (void *h : fresh)
        runtime_.hfree(h);
    EXPECT_EQ(service_.activeBytes(), 0u);
}

TEST_F(AnchorageShardTest, BarrierAppliesPendingRemoteFreesBeforeRanking)
{
    constexpr size_t kSize = 256;
    std::vector<void *> handles;
    std::vector<std::vector<unsigned char>> shadows;
    for (int i = 0; i < 400; i++) {
        handles.push_back(runtime_.halloc(kSize));
        std::vector<unsigned char> shadow(kSize);
        for (size_t b = 0; b < kSize; b++)
            shadow[b] = static_cast<unsigned char>(i * 31 + b);
        std::memcpy(translate(handles.back()), shadow.data(), kSize);
        shadows.push_back(std::move(shadow));
    }

    // Another shard's thread frees the odd blocks of the lower 300 and
    // the whole upper 100, leaving 150 live blocks. Those frees stay in
    // the inbox until the barrier: nothing here takes the shard lock.
    std::vector<void *> live, dead;
    std::vector<std::vector<unsigned char>> live_shadows;
    for (size_t i = 0; i < handles.size(); i++) {
        if (i < 300 && i % 2 == 0) {
            live.push_back(handles[i]);
            live_shadows.push_back(shadows[i]);
        } else {
            dead.push_back(handles[i]);
        }
    }
    onOtherShard(service_.homeShardIndex(), [&] {
        for (void *h : dead)
            runtime_.hfree(h);
    });

    // Only with the inbox applied does the pass see the holes: each
    // live block above one moves down into it, and the freed top trims.
    const DefragStats stats = service_.defrag(SIZE_MAX);
    EXPECT_GT(stats.movedObjects, 0u);
    EXPECT_LE(stats.movedBytes, live.size() * kSize); // no freed block
    for (size_t i = 0; i < live.size(); i++) {
        ASSERT_EQ(std::memcmp(translate(live[i]), live_shadows[i].data(),
                              kSize),
                  0);
    }
    EXPECT_EQ(service_.activeBytes(), live.size() * kSize);
    EXPECT_EQ(service_.heapExtent(), live.size() * kSize);

    for (void *h : live)
        runtime_.hfree(h);
}

/**
 * Build the cross-shard-stealing fixture the issue asks for: one shard
 * holds a sparse chain (a few keepers pinned under a tower of freed
 * filler, so no same-heap hole exists below them), while another shard
 * is dense. Defrag must evacuate the sparse shard's keepers into the
 * dense shard, trim the sparse shard to nothing, and lose no bytes.
 */
struct StealFixture
{
    std::vector<void *> keepers;
    std::vector<std::vector<unsigned char>> shadows;
    size_t fragged = SIZE_MAX; // sparse, idle shard
    size_t dense = SIZE_MAX;   // hot / destination shard
};

class AnchorageShardStealTest : public AnchorageShardTest
{
  protected:
    static constexpr size_t kKeepSize = 256;
    static constexpr int kKeepers = 50;

    StealFixture
    buildFixture()
    {
        StealFixture fix;
        fix.dense = service_.homeShardIndex();
        // Dense shard: a mostly-full chain with bump room left.
        for (int i = 0; i < 1000; i++)
            dense_.push_back(runtime_.halloc(kKeepSize));

        // Sparse shard, built by a worker thread that then goes idle:
        // keepers at the bottom, a tower of filler above them, filler
        // freed. The only holes are *above* the keepers, so same-heap
        // compaction cannot help — evacuation must cross shards.
        fix.fragged = onOtherShard(fix.dense, [&] {
            for (int i = 0; i < kKeepers; i++)
                fix.keepers.push_back(runtime_.halloc(kKeepSize));
            std::vector<void *> filler;
            for (int i = 0; i < 3000; i++)
                filler.push_back(runtime_.halloc(kKeepSize));
            for (void *h : filler)
                runtime_.hfree(h);
        });
        EXPECT_NE(fix.fragged, fix.dense);

        // Stamp keeper contents for the lost-write check.
        for (void *h : fix.keepers) {
            std::vector<unsigned char> shadow(kKeepSize);
            for (auto &byte : shadow)
                byte = static_cast<unsigned char>(nextByte());
            std::memcpy(translate(h), shadow.data(), kKeepSize);
            fix.shadows.push_back(std::move(shadow));
        }
        return fix;
    }

    void
    verifyAndTearDown(StealFixture &fix, size_t moved_bytes)
    {
        EXPECT_GE(moved_bytes, kKeepers * kKeepSize);
        // The sparse shard was evacuated and trimmed...
        const auto fragged = service_.shardStats(fix.fragged);
        EXPECT_EQ(fragged.liveBytes, 0u);
        EXPECT_EQ(fragged.extent, 0u);
        // ...its bytes now live in the dense shard...
        EXPECT_EQ(service_.shardStats(fix.dense).liveBytes,
                  dense_.size() * kKeepSize + kKeepers * kKeepSize);
        // ...aggregate accounting is conserved and consistent...
        const auto sum = sumShards();
        EXPECT_EQ(sum.liveBytes, service_.activeBytes());
        EXPECT_EQ(sum.liveBytes,
                  (dense_.size() + fix.keepers.size()) * kKeepSize);
        // ...and no write was lost: every keeper is intact bit for bit.
        for (size_t i = 0; i < fix.keepers.size(); i++) {
            ASSERT_EQ(std::memcmp(translate(fix.keepers[i]),
                                  fix.shadows[i].data(), kKeepSize),
                      0);
        }
        for (void *h : fix.keepers)
            runtime_.hfree(h);
        for (void *h : dense_)
            runtime_.hfree(h);
    }

    uint32_t
    nextByte()
    {
        seed_ = seed_ * 1664525u + 1013904223u;
        return seed_ >> 24;
    }

    std::vector<void *> dense_;
    uint32_t seed_ = 1;
};

TEST_F(AnchorageShardStealTest, StopTheWorldDefragStealsAcrossShards)
{
    StealFixture fix = buildFixture();
    const DefragStats stats = service_.defragFully();
    verifyAndTearDown(fix, stats.movedBytes);
}

TEST_F(AnchorageShardStealTest, ConcurrentCampaignStealsAcrossShards)
{
    StealFixture fix = buildFixture();
    DefragStats stats;
    for (;;) {
        const DefragStats pass = service_.relocateCampaign(SIZE_MAX);
        stats.accumulate(pass);
        if (pass.movedBytes == 0 && pass.reclaimedBytes == 0)
            break;
    }
    EXPECT_EQ(runtime_.stats().barriers, 0u);
    verifyAndTearDown(fix, stats.movedBytes);
}

TEST_F(AnchorageShardStealTest,
       ConcurrentCampaignStealsWhileAnotherShardAllocatesHot)
{
    StealFixture fix = buildFixture();

    // A hot mutator churns allocations on a shard other than the
    // fragmented source while campaigns evacuate the idle fragmented
    // shard. Ordinals are round-robin, so respawning until the worker
    // lands off the fragmented shard terminates quickly.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> hot_ops{0};
    std::thread hot;
    for (int attempt = 0; attempt < 64; attempt++) {
        std::atomic<int> landed{-1};
        hot = std::thread([&] {
            ThreadRegistration reg(runtime_);
            const size_t mine = service_.homeShardIndex();
            landed.store(static_cast<int>(mine),
                         std::memory_order_release);
            if (mine == fix.fragged)
                return; // unlucky residue: sit this attempt out
            std::vector<void *> window(64, nullptr);
            uint64_t i = 0;
            while (!stop.load(std::memory_order_acquire)) {
                const size_t slot = i++ % window.size();
                if (window[slot] != nullptr)
                    runtime_.hfree(window[slot]);
                window[slot] = runtime_.halloc(kKeepSize);
                {
                    // Stores take the pin handshake, not the scope.
                    ConcurrentPin pin(window[slot]);
                    std::memset(pin.get(), 0x5a, kKeepSize);
                }
                hot_ops.fetch_add(1, std::memory_order_relaxed);
                poll();
            }
            for (void *h : window) {
                if (h != nullptr)
                    runtime_.hfree(h);
            }
        });
        while (landed.load(std::memory_order_acquire) < 0)
            std::this_thread::yield();
        if (static_cast<size_t>(landed.load()) != fix.fragged)
            break;
        hot.join(); // landed on the fragmented shard; try again
    }
    ASSERT_TRUE(hot.joinable());

    DefragStats stats;
    // Campaign until the fragmented shard is empty (the hot shard's
    // churn can keep *its own* chain busy indefinitely; the idle
    // source drains in a bounded number of campaigns).
    for (int i = 0; i < 200; i++) {
        stats.accumulate(service_.relocateCampaign(SIZE_MAX));
        if (service_.shardStats(fix.fragged).liveBytes == 0)
            break;
    }
    stop.store(true, std::memory_order_release);
    hot.join();

    EXPECT_GT(hot_ops.load(), 0u);
    EXPECT_GT(stats.committed, 0u);
    EXPECT_EQ(stats.attempts,
              stats.committed + stats.aborted + stats.noSpace);
    EXPECT_EQ(runtime_.stats().barriers, 0u);

    EXPECT_EQ(service_.shardStats(fix.fragged).liveBytes, 0u);
    // No lost writes in the moved keepers.
    for (size_t i = 0; i < fix.keepers.size(); i++) {
        ASSERT_EQ(std::memcmp(translate(fix.keepers[i]),
                              fix.shadows[i].data(), kKeepSize),
                  0);
    }
    // Per-shard and aggregate accounting agree at quiescence.
    const auto sum = sumShards();
    EXPECT_EQ(sum.liveBytes, service_.activeBytes());
    EXPECT_EQ(sum.liveBytes,
              (dense_.size() + fix.keepers.size()) * kKeepSize);
    for (void *h : fix.keepers)
        runtime_.hfree(h);
    for (void *h : dense_)
        runtime_.hfree(h);
}


namespace stress
{

/** One queued object: its handle and what its bytes must read. */
struct Item
{
    void *handle;
    uint32_t size;
    uint32_t seed;
    int owner;
};

unsigned char
stampByte(uint32_t seed, size_t i)
{
    return static_cast<unsigned char>(seed * 131u + i * 7u);
}

void
stamp(const Item &item)
{
    auto *bytes = static_cast<unsigned char *>(translate(item.handle));
    for (size_t i = 0; i < item.size; i++)
        bytes[i] = stampByte(item.seed, i);
}

bool
intact(const Item &item)
{
    const auto *bytes =
        static_cast<const unsigned char *>(translate(item.handle));
    for (size_t i = 0; i < item.size; i++) {
        if (bytes[i] != stampByte(item.seed, i))
            return false;
    }
    return true;
}

} // namespace stress

TEST(AnchorageInboxStressTest, RemoteFreesRaceStopTheWorldDaemon)
{
    RealAddressSpace space;
    AnchorageService service(space, AnchorageConfig{.subHeapBytes = 1 << 20,
                                                    .shards = 4});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 18});
    runtime.attachService(&service);
    ControlParams params{.mode = DefragMode::StopTheWorld};
    params.pollInterval = 0.001;
    params.alpha = 1.0;
    params.batchBytes = 64 << 10;
    ConcurrentRelocDaemon daemon(runtime, service, params);

    // Four mutators pass objects around a ring through one shared,
    // mutex-guarded queue: each allocates and stamps objects for its
    // successor and frees the oldest object its predecessor passed it,
    // checking the stamp first. The object sits in its allocator's
    // shard (unless a barrier moved it), so most frees cross shards.
    // Growing and shrinking phases leave the heap fragmented enough
    // that the daemon keeps running barriers, which must apply the
    // inboxes before they rank.
    constexpr int kThreads = 4;
    constexpr int kPhase = 1500;
    std::mutex queue_mutex;
    std::deque<stress::Item> queue[kThreads]; // indexed by recipient
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> torn{0}, frees{0}, remote_frees{0};
    std::atomic<int> home[kThreads]; // each worker's home shard

    auto worker = [&](int owner) {
        ThreadRegistration reg(runtime);
        home[owner].store(static_cast<int>(service.homeShardIndex()));
        const int next = (owner + 1) % kThreads;
        uint32_t rng = 0x9e3779b9u * static_cast<uint32_t>(owner + 1);
        uint32_t seed = static_cast<uint32_t>(owner) << 24;
        for (int round = 0; !stop.load(std::memory_order_acquire);
             round++) {
            const bool growing = round % 2 == 0;
            for (int i = 0; i < kPhase; i++) {
                const int pushes = growing ? 2 : 1;
                for (int p = 0; p < pushes; p++) {
                    rng = rng * 1664525u + 1013904223u;
                    const uint32_t size = 16u << ((rng >> 24) % 7);
                    stress::Item item{runtime.halloc(size), size, seed++,
                                      owner};
                    stress::stamp(item);
                    std::lock_guard<std::mutex> guard(queue_mutex);
                    queue[next].push_back(item);
                }
                const int pops = growing ? 1 : 2;
                for (int p = 0; p < pops; p++) {
                    stress::Item item{};
                    {
                        std::lock_guard<std::mutex> guard(queue_mutex);
                        if (queue[owner].empty())
                            break;
                        item = queue[owner].front();
                        queue[owner].pop_front();
                    }
                    if (!stress::intact(item))
                        torn.fetch_add(1, std::memory_order_relaxed);
                    frees.fetch_add(1, std::memory_order_relaxed);
                    if (home[item.owner].load() != home[owner].load())
                        remote_frees.fetch_add(1,
                                               std::memory_order_relaxed);
                    runtime.hfree(item.handle);
                }
                poll();
            }
        }
    };

    daemon.start();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++)
        threads.emplace_back(worker, t);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (daemon.barriers() < 20 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stop.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    daemon.stop();

    EXPECT_GT(daemon.barriers(), 0u);
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(remote_frees.load() * 2, frees.load());

    ThreadRegistration reg(runtime);
    size_t live_bytes = 0;
    for (const auto &inbound : queue) {
        for (const stress::Item &item : inbound) {
            EXPECT_TRUE(stress::intact(item));
            live_bytes += service.usableSize(translate(item.handle));
        }
    }
    // Every pending remote free was applied: the live set is all the
    // heap holds, shard by shard and in aggregate.
    size_t shard_live = 0;
    for (size_t s = 0; s < service.shardCount(); s++)
        shard_live += service.shardStats(s).liveBytes;
    EXPECT_EQ(service.activeBytes(), live_bytes);
    EXPECT_EQ(shard_live, live_bytes);

    for (const auto &inbound : queue) {
        for (const stress::Item &item : inbound)
            runtime.hfree(item.handle);
    }
    EXPECT_EQ(service.activeBytes(), 0u);
}

} // namespace
