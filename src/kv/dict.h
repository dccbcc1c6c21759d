/**
 * @file
 * A chained hash dictionary with incremental rehash, modeled on
 * Redis's dict: two tables, with buckets migrated a few at a time on
 * every operation while a resize is in progress. All stored pointers
 * (bucket arrays, entries, keys) are maybe-handles under AlaskaAlloc.
 * Chain walks and key compares read through the policy's deref();
 * every pointer store (bucket slots, next links, entry init) goes
 * through its write() guard, which is what keeps the stores ordered
 * against a concurrent relocation campaign.
 */

#ifndef ALASKA_KV_DICT_H
#define ALASKA_KV_DICT_H

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "kv/sds.h"

namespace alaska::kv
{

/** One chained entry. key is an Sds; value is owner-defined. */
struct DictEntry
{
    Sds key;
    void *value;
    DictEntry *next;
    /** Intrusive LRU hooks (used by MiniKv). */
    DictEntry *lruPrev;
    DictEntry *lruNext;
};

/** The dictionary. */
template <typename A>
class Dict
{
  public:
    explicit Dict(A &alloc) : alloc_(alloc)
    {
        ht_[0] = newTable(initialSize);
        size_[0] = initialSize;
        ht_[1] = nullptr;
        size_[1] = 0;
    }

    ~Dict()
    {
        // The owner must have emptied the dict (it owns keys/values).
        for (int t = 0; t < 2; t++) {
            if (ht_[t])
                alloc_.free(ht_[t]);
        }
    }

    Dict(const Dict &) = delete;
    Dict &operator=(const Dict &) = delete;

    /**
     * Find the entry for key; nullptr if absent. Advances incremental
     * rehash by a step, as Redis does on every access.
     */
    DictEntry *
    find(std::string_view key)
    {
        rehashStep();
        const uint64_t h = bytesHash(key);
        for (int t = 0; t < 2; t++) {
            if (!ht_[t])
                continue;
            DictEntry **buckets = derefBuckets(t);
            DictEntry *e = buckets[h & (size_[t] - 1)];
            while (e) {
                DictEntry *raw = A::template deref<DictEntry>(e);
                if (sdsEquals<A>(raw->key, key))
                    return e;
                e = raw->next;
            }
        }
        return nullptr;
    }

    /**
     * Insert a fresh entry (key must not exist). The entry and the key
     * sds are allocated here; the caller sets value afterwards via
     * deref. @return the (maybe-handle) entry pointer.
     */
    DictEntry *
    insert(std::string_view key)
    {
        rehashStep();
        if (!rehashing() && used_ >= size_[0])
            startRehash(size_[0] * 2);

        const int t = rehashing() ? 1 : 0;
        const uint64_t h = bytesHash(key);
        auto *entry = static_cast<DictEntry *>(
            alloc_.alloc(sizeof(DictEntry)));
        Sds key_sds = sdsNew(alloc_, key);
        const size_t idx = h & (size_[t] - 1);
        DictEntry *raw_head = derefBuckets(t)[idx];
        {
            auto raw = A::template write<DictEntry>(entry);
            raw->key = key_sds;
            raw->value = nullptr;
            raw->next = raw_head;
            raw->lruPrev = nullptr;
            raw->lruNext = nullptr;
        }
        writeBuckets(t)[idx] = entry;
        used_++;
        return entry;
    }

    /**
     * Unlink and return the entry for key (caller frees key/value and
     * the entry itself); nullptr if absent.
     */
    DictEntry *
    remove(std::string_view key)
    {
        rehashStep();
        const uint64_t h = bytesHash(key);
        for (int t = 0; t < 2; t++) {
            if (!ht_[t])
                continue;
            DictEntry **buckets = derefBuckets(t);
            const size_t idx = h & (size_[t] - 1);
            DictEntry *e = buckets[idx];
            DictEntry *prev = nullptr;
            while (e) {
                DictEntry *raw = A::template deref<DictEntry>(e);
                if (sdsEquals<A>(raw->key, key)) {
                    if (prev) {
                        A::template write<DictEntry>(prev)->next =
                            raw->next;
                    } else {
                        writeBuckets(t)[idx] = raw->next;
                    }
                    used_--;
                    return e;
                }
                prev = e;
                e = raw->next;
            }
        }
        return nullptr;
    }

    size_t used() const { return used_; }
    bool rehashing() const { return ht_[1] != nullptr; }
    /** Total bucket slots across both tables. */
    size_t bucketCount() const { return size_[0] + size_[1]; }

    /** Bytes charged for an entry + its key (accounting helper). */
    static size_t
    entryOverhead(std::string_view key)
    {
        return sizeof(DictEntry) + sdsAllocSize(key.size());
    }

  private:
    static constexpr size_t initialSize = 16;
    static constexpr int rehashBatch = 4;

    void *
    newTable(size_t size)
    {
        void *table = alloc_.alloc(size * sizeof(DictEntry *));
        auto raw = A::template write<DictEntry *>(
            static_cast<DictEntry **>(table));
        for (size_t i = 0; i < size; i++)
            raw[i] = nullptr;
        return table;
    }

    DictEntry **
    derefBuckets(int t)
    {
        return A::template deref<DictEntry *>(
            static_cast<DictEntry **>(ht_[t]));
    }

    /** Store guard over a whole bucket array (one slot assignment). */
    auto
    writeBuckets(int t)
    {
        return A::template write<DictEntry *>(
            static_cast<DictEntry **>(ht_[t]));
    }

    void
    startRehash(size_t new_size)
    {
        ht_[1] = newTable(new_size);
        size_[1] = new_size;
        rehashIdx_ = 0;
    }

    /** Migrate a few buckets from ht0 to ht1 (Redis's dictRehash). */
    void
    rehashStep()
    {
        if (!rehashing())
            return;
        for (int n = 0; n < rehashBatch && rehashIdx_ < size_[0];
             rehashIdx_++) {
            DictEntry *e = derefBuckets(0)[rehashIdx_];
            while (e) {
                auto raw = A::template write<DictEntry>(e);
                DictEntry *next = raw->next;
                const uint64_t h = sdsHash<A>(raw->key);
                const size_t idx = h & (size_[1] - 1);
                raw->next = derefBuckets(1)[idx];
                writeBuckets(1)[idx] = e;
                e = next;
            }
            writeBuckets(0)[rehashIdx_] = nullptr;
            n++;
        }
        if (rehashIdx_ >= size_[0]) {
            // ht1 becomes ht0.
            alloc_.free(ht_[0]);
            ht_[0] = ht_[1];
            size_[0] = size_[1];
            ht_[1] = nullptr;
            size_[1] = 0;
            rehashIdx_ = 0;
        }
    }

    A &alloc_;
    void *ht_[2];
    size_t size_[2];
    size_t rehashIdx_ = 0;
    size_t used_ = 0;
};

} // namespace alaska::kv

#endif // ALASKA_KV_DICT_H
