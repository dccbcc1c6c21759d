#include "kv/cache_workload.h"

namespace alaska::kv
{

namespace
{

/** Redis dictEntry + robj headers, roughly. */
constexpr size_t entryBytes = 48;
/** sds header + nul. */
constexpr size_t sdsOverhead = 9;
/** Key length in bytes. */
constexpr size_t keyLen = 16;
/** Eviction sampling width (Redis's maxmemory-samples). */
constexpr int evictionSamples = 5;

} // anonymous namespace

CacheWorkload::CacheWorkload(AllocModel &model,
                             CacheWorkloadConfig config)
    : model_(model), config_(config), rng_(config.seed)
{
    bucketSlots_ = 16;
    buckets_ = model_.alloc(bucketSlots_ * 8);
    usedMemory_ += bucketSlots_ * 8;
}

CacheWorkload::~CacheWorkload()
{
    // Leave teardown to the owner via drain(); harnesses often want
    // the final heap intact for a last RSS sample.
}

size_t
CacheWorkload::valueSizeFor(uint64_t seq) const
{
    // The mix cycles through size scales one phase at a time.
    static constexpr double scales[] = {1.0,  0.6, 1.4, 0.8,
                                        1.8, 1.2, 0.5, 1.6};
    const uint64_t phase = (seq / config_.driftPeriod) % 8;
    return static_cast<size_t>(
        static_cast<double>(config_.valueSize) * scales[phase]);
}

void
CacheWorkload::insertOne()
{
    Record record;
    const size_t value_size = valueSizeFor(nextSeq_);
    record.entry = model_.alloc(entryBytes);
    record.key = model_.alloc(keyLen + sdsOverhead);
    record.value = model_.alloc(value_size + sdsOverhead);
    record.valueSize = static_cast<uint32_t>(value_size);
    record.seq = nextSeq_++;
    live_.push_back(record);
    usedMemory_ += entryBytes + keyLen + sdsOverhead +
                   value_size + sdsOverhead;
    growBucketsIfNeeded();
    evictIfNeeded();
}

void
CacheWorkload::growBucketsIfNeeded()
{
    if (live_.size() < bucketSlots_)
        return;
    // Redis's dict doubles and (incrementally) migrates; the trace
    // effect is one new array allocation and one free of the old.
    usedMemory_ -= bucketSlots_ * 8;
    model_.free(buckets_);
    bucketSlots_ *= 2;
    buckets_ = model_.alloc(bucketSlots_ * 8);
    usedMemory_ += bucketSlots_ * 8;
}

void
CacheWorkload::freeRecord(const Record &record)
{
    model_.free(record.entry);
    model_.free(record.key);
    model_.free(record.value);
    usedMemory_ -= entryBytes + keyLen + sdsOverhead +
                   record.valueSize + sdsOverhead;
}

void
CacheWorkload::evictIfNeeded()
{
    while (usedMemory_ > config_.maxMemory && !live_.empty()) {
        // Sampled LRU: pick the oldest of a few random candidates.
        // This scatters frees across the heap, which is what makes
        // the trace fragment (exact LRU would free in allocation
        // order and let slab allocators off the hook).
        size_t victim = rng_.below(live_.size());
        for (int s = 1; s < evictionSamples; s++) {
            const size_t cand = rng_.below(live_.size());
            if (live_[cand].seq < live_[victim].seq)
                victim = cand;
        }
        freeRecord(live_[victim]);
        live_[victim] = live_.back();
        live_.pop_back();
        evictions_++;
    }
}

size_t
CacheWorkload::defragCycle(size_t budget)
{
    if (live_.empty())
        return 0;
    size_t moved = 0;
    auto maybe_move = [&](uint64_t &token, size_t size) {
        if (!model_.shouldMove(token))
            return;
        model_.free(token);
        token = model_.alloc(size);
        moved++;
    };
    for (size_t n = 0; n < budget; n++) {
        defragCursor_ = (defragCursor_ + 1) % live_.size();
        Record &record = live_[defragCursor_];
        maybe_move(record.entry, entryBytes);
        maybe_move(record.key, keyLen + sdsOverhead);
        maybe_move(record.value, record.valueSize + sdsOverhead);
    }
    if (model_.shouldMove(buckets_)) {
        model_.free(buckets_);
        buckets_ = model_.alloc(bucketSlots_ * 8);
        moved++;
    }
    return moved;
}

void
CacheWorkload::drain()
{
    for (const Record &record : live_)
        freeRecord(record);
    live_.clear();
    model_.free(buckets_);
    usedMemory_ -= bucketSlots_ * 8;
}

} // namespace alaska::kv
