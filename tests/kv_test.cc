/**
 * @file
 * Tests for sds, the incremental-rehash dict, and MiniKv across both
 * allocator policies — including Redis-transparency under
 * Alaska: the exact same data-structure code runs on handles and
 * survives full defragmentation with zero cooperation.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "anchorage/anchorage_service.h"
#include "base/rng.h"
#include "core/runtime.h"
#include "kv/alloc_policy.h"
#include "kv/dict.h"
#include "kv/minikv.h"
#include "kv/sds.h"
#include "sim/address_space.h"

namespace
{

using namespace alaska;
using namespace alaska::kv;

TEST(Sds, RoundTripOnLibc)
{
    LibcAlloc alloc;
    Sds s = sdsNew(alloc, "hello alaska");
    EXPECT_EQ(sdsLen<LibcAlloc>(s), 12u);
    EXPECT_TRUE(sdsEquals<LibcAlloc>(s, "hello alaska"));
    EXPECT_FALSE(sdsEquals<LibcAlloc>(s, "hello alask"));
    EXPECT_EQ(sdsToString<LibcAlloc>(s), "hello alaska");
    sdsFree(alloc, s);
}

TEST(Sds, HashMatchesBytesHash)
{
    LibcAlloc alloc;
    Sds s = sdsNew(alloc, "key:12345");
    EXPECT_EQ(sdsHash<LibcAlloc>(s), bytesHash("key:12345"));
    sdsFree(alloc, s);
}

TEST(Dict, InsertFindRemove)
{
    LibcAlloc alloc;
    Dict<LibcAlloc> dict(alloc);
    DictEntry *e = dict.insert("alpha");
    LibcAlloc::deref(e)->value = nullptr;
    EXPECT_EQ(dict.find("alpha"), e);
    EXPECT_EQ(dict.find("beta"), nullptr);
    EXPECT_EQ(dict.used(), 1u);

    DictEntry *removed = dict.remove("alpha");
    EXPECT_EQ(removed, e);
    EXPECT_EQ(dict.find("alpha"), nullptr);
    // Owner cleanup.
    sdsFree(alloc, LibcAlloc::deref(removed)->key);
    alloc.free(removed);
}

TEST(Dict, IncrementalRehashPreservesAllKeys)
{
    LibcAlloc alloc;
    Dict<LibcAlloc> dict(alloc);
    constexpr int n = 5000; // forces many rehashes from size 16
    for (int i = 0; i < n; i++) {
        DictEntry *e = dict.insert("key:" + std::to_string(i));
        LibcAlloc::deref(e)->value =
            reinterpret_cast<void *>(static_cast<intptr_t>(i));
    }
    EXPECT_EQ(dict.used(), static_cast<size_t>(n));
    for (int i = 0; i < n; i++) {
        DictEntry *e = dict.find("key:" + std::to_string(i));
        ASSERT_NE(e, nullptr) << "lost key " << i;
        EXPECT_EQ(reinterpret_cast<intptr_t>(LibcAlloc::deref(e)->value),
                  i);
    }
    // Empty it out so the dtor's table-only cleanup suffices.
    for (int i = 0; i < n; i++) {
        DictEntry *e = dict.remove("key:" + std::to_string(i));
        ASSERT_NE(e, nullptr);
        sdsFree(alloc, LibcAlloc::deref(e)->key);
        alloc.free(e);
    }
}

template <typename A, typename MakeAlloc>
void
miniKvBasicOps(MakeAlloc make)
{
    auto ctx = make();
    A &alloc = *ctx.alloc;
    {
        MiniKv<A> kv(alloc);
        kv.set("name", "alaska");
        kv.set("venue", "asplos24");
        EXPECT_EQ(kv.get("name").value_or(""), "alaska");
        EXPECT_EQ(kv.get("venue").value_or(""), "asplos24");
        EXPECT_FALSE(kv.get("missing").has_value());

        kv.set("name", "anchorage"); // replace
        EXPECT_EQ(kv.get("name").value_or(""), "anchorage");
        EXPECT_EQ(kv.stats().keys, 2u);

        EXPECT_TRUE(kv.del("venue"));
        EXPECT_FALSE(kv.del("venue"));
        EXPECT_EQ(kv.stats().keys, 1u);
    }
}

TEST(MiniKv, BasicOpsOnLibc)
{
    struct Ctx
    {
        std::unique_ptr<LibcAlloc> alloc = std::make_unique<LibcAlloc>();
    };
    miniKvBasicOps<LibcAlloc>([] { return Ctx{}; });
}

TEST(MiniKv, LruEvictionUnderMaxmemory)
{
    LibcAlloc alloc;
    MiniKv<LibcAlloc> kv(alloc, 64 << 10);
    const std::string value(500, 'v');
    for (int i = 0; i < 500; i++)
        kv.set("key:" + std::to_string(i), value);
    EXPECT_LE(kv.usedMemory(), 64u << 10);
    EXPECT_GT(kv.stats().evictions, 0u);
    // The most recent keys survive; the oldest are gone.
    EXPECT_TRUE(kv.get("key:499").has_value());
    EXPECT_FALSE(kv.get("key:0").has_value());
}

TEST(MiniKv, GetRefreshesLruOrder)
{
    LibcAlloc alloc;
    // Room for about three records.
    MiniKv<LibcAlloc> kv(alloc, 2200);
    kv.set("a", std::string(500, 'a'));
    kv.set("b", std::string(500, 'b'));
    kv.set("c", std::string(500, 'c'));
    // Touch "a" so "b" is now the coldest.
    EXPECT_TRUE(kv.get("a").has_value());
    kv.set("d", std::string(500, 'd'));
    EXPECT_TRUE(kv.get("a").has_value());
    EXPECT_FALSE(kv.get("b").has_value());
}

TEST(MiniKv, RunsUnmodifiedOnAlaska)
{
    // "make CC=alaska": the identical templates over handles.
    RealAddressSpace space;
    anchorage::AnchorageService service(
        space, anchorage::AnchorageConfig{.subHeapBytes = 1 << 20});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 16});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);
    AlaskaAlloc alloc(runtime);
    {
        MiniKv<AlaskaAlloc> kv(alloc);
        Rng rng(12);
        std::unordered_map<std::string, std::string> shadow;
        for (int i = 0; i < 3000; i++) {
            const std::string key =
                "key:" + std::to_string(rng.below(800));
            if (rng.chance(0.7)) {
                const std::string value(
                    32 + rng.below(300),
                    static_cast<char>('a' + rng.below(26)));
                kv.set(key, value);
                shadow[key] = value;
            } else {
                EXPECT_EQ(kv.del(key), shadow.erase(key) > 0);
            }
        }
        for (auto &[key, value] : shadow)
            EXPECT_EQ(kv.get(key).value_or("<miss>"), value);
        EXPECT_EQ(kv.stats().keys, shadow.size());
    }
    EXPECT_EQ(runtime.table().liveCount(), 0u) << "leaked handles";
}

TEST(MiniKv, SurvivesFullDefragWithZeroCooperation)
{
    // The paper's headline property (§5.5): Anchorage defragments the
    // store without any application changes — the KV code has no idea
    // its pointers moved.
    RealAddressSpace space;
    anchorage::AnchorageService service(
        space, anchorage::AnchorageConfig{.subHeapBytes = 1 << 20});
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 16});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);
    AlaskaAlloc alloc(runtime);
    {
        MiniKv<AlaskaAlloc> kv(alloc);
        for (int i = 0; i < 2000; i++) {
            kv.set("key:" + std::to_string(i),
                   "value:" + std::to_string(i * 17));
        }
        // Create holes, then compact everything.
        for (int i = 0; i < 2000; i += 2)
            kv.del("key:" + std::to_string(i));
        const auto stats = service.defragFully();
        EXPECT_GT(stats.movedObjects, 0u);
        for (int i = 1; i < 2000; i += 2) {
            EXPECT_EQ(kv.get("key:" + std::to_string(i)).value_or(""),
                      "value:" + std::to_string(i * 17));
        }
    }
    EXPECT_EQ(runtime.table().liveCount(), 0u);
}

} // namespace
