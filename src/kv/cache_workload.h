/**
 * @file
 * The Redis-cache allocation workload of Figures 1, 9, 10 and 11.
 *
 * "Configuring Redis this way is very common when it is used as a
 * cache": a maxmemory limit, a stream of inserts, and sampled-LRU
 * eviction once the limit is hit. What matters for fragmentation is
 * the resulting allocation trace — interleaved dict entries, key sds,
 * value sds and growing bucket arrays, with evictions scattered across
 * the heap by Redis's *sampled* LRU. This driver reproduces exactly
 * that trace against any AllocModel (glibc model, jemalloc model,
 * Mesh, or Anchorage via its adapter), with Redis-style used-memory
 * accounting, plus the activedefrag reallocation cycle for allocators
 * that provide hints.
 */

#ifndef ALASKA_KV_CACHE_WORKLOAD_H
#define ALASKA_KV_CACHE_WORKLOAD_H

#include <cstdint>
#include <vector>

#include "alloc_sim/alloc_model.h"
#include "base/rng.h"

namespace alaska::kv
{

/** Workload parameters (defaults follow the paper's Figure 9 setup). */
struct CacheWorkloadConfig
{
    /** Eviction threshold on self-accounted used memory. */
    size_t maxMemory = 100 << 20;
    /** Base value payload size ("inserts 100 GiB of data, 500 bytes
     *  at a time" in Figure 11). */
    size_t valueSize = 500;
    /** Key length in bytes. */
    size_t keyLen = 16;
    /** Eviction sampling width (Redis's maxmemory-samples). */
    int evictionSamples = 5;
    /**
     * Slow drift of the value-size mix over time. Real cache request
     * mixes drift, and drift is what defeats slab allocators: slots
     * freed in yesterday's size class cannot serve today's requests.
     * Without it, size-class-balanced churn lets non-moving allocator
     * *models* reuse slots too perfectly to reproduce the paper's
     * measured fragmentation ratios (see EXPERIMENTS.md).
     */
    bool sizeDrift = true;
    /** Inserts per drift phase. */
    uint64_t driftPeriod = 50000;
    uint64_t seed = 42;
};

/** Drives an allocator with the cache allocation trace. */
class CacheWorkload
{
  public:
    CacheWorkload(AllocModel &model, CacheWorkloadConfig config = {});
    ~CacheWorkload();

    /** Insert one record (dict entry + key + value), evicting under
     *  pressure and growing the bucket array as Redis's dict would. */
    void insertOne();

    /** Insert a batch. */
    void
    insert(size_t count)
    {
        for (size_t i = 0; i < count; i++)
            insertOne();
    }

    /**
     * One activedefrag cycle: scan up to budget live allocations and
     * reallocate those the allocator flags. No-op for allocators
     * without hints.
     * @return moves performed.
     */
    size_t defragCycle(size_t budget);

    /** Redis-style used_memory (what maxmemory compares against). */
    size_t usedMemory() const { return usedMemory_; }
    size_t liveRecords() const { return live_.size(); }
    size_t evictions() const { return evictions_; }

    /** Release everything (for leak-checking tests). */
    void drain();

  private:
    struct Record
    {
        uint64_t entry;
        uint64_t key;
        uint64_t value;
        uint32_t valueSize;
        uint64_t seq; ///< insertion sequence, for sampled LRU
    };

    /** Value size for the record inserted at sequence seq. */
    size_t valueSizeFor(uint64_t seq) const;
    void evictIfNeeded();
    void freeRecord(const Record &record);
    void growBucketsIfNeeded();

    AllocModel &model_;
    CacheWorkloadConfig config_;
    Rng rng_;
    std::vector<Record> live_;
    uint64_t buckets_ = 0;
    size_t bucketSlots_ = 0;
    size_t usedMemory_ = 0;
    uint64_t nextSeq_ = 0;
    size_t evictions_ = 0;
    /** Rotating defrag scan cursor. */
    size_t defragCursor_ = 0;
};

} // namespace alaska::kv

#endif // ALASKA_KV_CACHE_WORKLOAD_H
