/**
 * @file
 * MiniKv: an in-memory key-value cache with the allocation behaviour
 * of Redis — sds keys/values, a chained dict with incremental rehash,
 * and exact LRU eviction under a maxmemory limit.
 *
 * Under AlaskaAlloc every stored pointer is a handle, and Anchorage
 * defragments the store with no cooperation from this code. The
 * activedefrag comparison (the bespoke, allocator-hint-driven pointer
 * surgery the paper contrasts with Anchorage in §5.5) lives in
 * kv::CacheWorkload.
 */

#ifndef ALASKA_KV_MINIKV_H
#define ALASKA_KV_MINIKV_H

#include <optional>
#include <string>
#include <string_view>

#include "kv/dict.h"
#include "kv/sds.h"

namespace alaska::kv
{

/** Store statistics. */
struct KvStats
{
    size_t keys = 0;
    size_t usedMemory = 0;
    size_t evictions = 0;
};

/** The cache. */
template <typename A>
class MiniKv
{
  public:
    /**
     * @param alloc allocator policy
     * @param maxmemory eviction threshold in (self-accounted) bytes;
     *        0 disables eviction
     */
    explicit MiniKv(A &alloc, size_t maxmemory = 0)
        : alloc_(alloc), dict_(alloc), maxMemory_(maxmemory)
    {
    }

    ~MiniKv() { clear(); }

    /** Set key to value, inserting or replacing; evicts LRU if over. */
    void
    set(std::string_view key, std::string_view value)
    {
        DictEntry *e = dict_.find(key);
        if (e) {
            DictEntry *raw = A::template deref<DictEntry>(e);
            usedMemory_ -= sdsAllocSize(sdsLen<A>(raw->value));
            sdsFree(alloc_, raw->value);
            Sds fresh = sdsNew(alloc_, value);
            A::template write<DictEntry>(e)->value = fresh;
            usedMemory_ += sdsAllocSize(value.size());
            lruTouch(e);
        } else {
            e = dict_.insert(key);
            Sds fresh = sdsNew(alloc_, value);
            A::template write<DictEntry>(e)->value = fresh;
            usedMemory_ += Dict<A>::entryOverhead(key) +
                           sdsAllocSize(value.size());
            lruPushFront(e);
        }
        evictIfNeeded();
    }

    /** Get a copy of the value; nullopt on miss. Touches LRU. */
    std::optional<std::string>
    get(std::string_view key)
    {
        DictEntry *e = dict_.find(key);
        if (!e)
            return std::nullopt;
        lruTouch(e);
        return sdsToString<A>(
            A::template deref<DictEntry>(e)->value);
    }

    /** Delete a key. @return true if it existed. */
    bool
    del(std::string_view key)
    {
        DictEntry *e = dict_.remove(key);
        if (!e)
            return false;
        lruUnlink(e);
        freeEntry(e);
        return true;
    }

    /** Drop everything. */
    void
    clear()
    {
        while (lruTail_) {
            DictEntry *e = lruTail_;
            DictEntry *raw = A::template deref<DictEntry>(e);
            dict_.remove(viewOfKey(raw));
            lruUnlink(e);
            freeEntry(e);
        }
    }

    KvStats
    stats() const
    {
        KvStats s;
        s.keys = dict_.used();
        s.usedMemory = usedMemory_;
        s.evictions = evictions_;
        return s;
    }

    size_t usedMemory() const { return usedMemory_; }

  private:
    std::string_view
    viewOfKey(DictEntry *raw)
    {
        auto *hdr = A::template deref<SdsHeader>(
            static_cast<SdsHeader *>(raw->key));
        return {hdr->data, hdr->len};
    }

    void
    freeEntry(DictEntry *e)
    {
        DictEntry *raw = A::template deref<DictEntry>(e);
        usedMemory_ -= sdsAllocSize(sdsLen<A>(raw->key)) +
                       sdsAllocSize(sdsLen<A>(raw->value)) +
                       sizeof(DictEntry);
        sdsFree(alloc_, raw->key);
        sdsFree(alloc_, raw->value);
        alloc_.free(e);
    }

    // --- exact LRU (intrusive list over entries) -----------------------
    void
    lruPushFront(DictEntry *e)
    {
        auto raw = A::template write<DictEntry>(e);
        raw->lruPrev = nullptr;
        raw->lruNext = lruHead_;
        if (lruHead_)
            A::template write<DictEntry>(lruHead_)->lruPrev = e;
        lruHead_ = e;
        if (!lruTail_)
            lruTail_ = e;
    }

    void
    lruUnlink(DictEntry *e)
    {
        auto raw = A::template write<DictEntry>(e);
        if (raw->lruPrev) {
            A::template write<DictEntry>(raw->lruPrev)->lruNext =
                raw->lruNext;
        } else {
            lruHead_ = raw->lruNext;
        }
        if (raw->lruNext) {
            A::template write<DictEntry>(raw->lruNext)->lruPrev =
                raw->lruPrev;
        } else {
            lruTail_ = raw->lruPrev;
        }
        raw->lruPrev = raw->lruNext = nullptr;
    }

    void
    lruTouch(DictEntry *e)
    {
        if (lruHead_ == e)
            return;
        lruUnlink(e);
        lruPushFront(e);
    }

    void
    evictIfNeeded()
    {
        if (maxMemory_ == 0)
            return;
        while (usedMemory_ > maxMemory_ && lruTail_) {
            DictEntry *victim = lruTail_;
            DictEntry *raw = A::template deref<DictEntry>(victim);
            dict_.remove(viewOfKey(raw));
            lruUnlink(victim);
            freeEntry(victim);
            evictions_++;
        }
    }

    A &alloc_;
    Dict<A> dict_;
    size_t maxMemory_;
    size_t usedMemory_ = 0;
    size_t evictions_ = 0;
    DictEntry *lruHead_ = nullptr;
    DictEntry *lruTail_ = nullptr;
};

} // namespace alaska::kv

#endif // ALASKA_KV_MINIKV_H
