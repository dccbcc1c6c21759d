/**
 * @file
 * A memcached-like multithreaded KV server simulation (paper §5.6,
 * Figure 12): a sharded hash table served by N worker threads, driven
 * by an in-process closed-loop load generator (the paper's loopback
 * network replaced by function calls — it only added noise, as §5.6
 * notes). Each worker records per-request latency; an Anchorage pause
 * thread relocates ~1 MiB at a configurable interval, and the
 * experiment measures how pause frequency and thread count move the
 * latency distribution.
 */

#ifndef ALASKA_KV_MEMCACHED_SIM_H
#define ALASKA_KV_MEMCACHED_SIM_H

#include <memory>
#include <mutex>
#include <vector>

#include "kv/minikv.h"
#include "ycsb/ycsb.h"

namespace alaska::kv
{

/**
 * Sharded KV served by worker threads.
 *
 * The allocator policy decides what the store runs on; with
 * AlaskaAlloc, workers register with the runtime and poll safepoints
 * between requests, so stop-the-world pauses park them exactly as
 * compiled code would.
 */
template <typename A>
class MemcachedSim
{
  public:
    MemcachedSim(A &alloc, int shards)
        : alloc_(alloc)
    {
        for (int i = 0; i < shards; i++) {
            shards_.push_back(std::make_unique<Shard>(alloc));
        }
    }

    /** Preload records from a workload definition. */
    void
    load(const ycsb::Workload &workload)
    {
        for (uint64_t id = 0; id < workload.records(); id++) {
            const std::string key = ycsb::Workload::keyFor(id);
            shardFor(key).set(key, workload.valueFor(id));
        }
    }

    /** Serve one request (thread-safe via shard locks). */
    void
    serve(const ycsb::Request &request, const ycsb::Workload &workload)
    {
        const std::string key = ycsb::Workload::keyFor(request.key);
        Shard &shard = shardFor(key);
        switch (request.op) {
          case ycsb::OpType::Read:
            shard.get(key);
            break;
          case ycsb::OpType::Update:
          case ycsb::OpType::Insert:
            shard.set(key, workload.valueFor(request.key));
            break;
          case ycsb::OpType::ReadModifyWrite: {
            auto value = shard.get(key);
            std::string modified =
                value.value_or(std::string(workload.valueSize(), 'x'));
            if (!modified.empty())
                modified[0] ^= 1;
            shard.set(key, modified);
            break;
          }
        }
    }

    size_t
    keyCount() const
    {
        size_t n = 0;
        for (const auto &shard : shards_)
            n += shard->kv.stats().keys;
        return n;
    }

  private:
    struct Shard
    {
        explicit Shard(A &alloc) : kv(alloc) {}

        std::optional<std::string>
        get(const std::string &key)
        {
            std::lock_guard<std::mutex> guard(mutex);
            return kv.get(key);
        }

        void
        set(const std::string &key, const std::string &value)
        {
            std::lock_guard<std::mutex> guard(mutex);
            kv.set(key, value);
        }

        std::mutex mutex;
        MiniKv<A> kv;
    };

    Shard &
    shardFor(const std::string &key)
    {
        return *shards_[bytesHash(key) % shards_.size()];
    }

    A &alloc_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace alaska::kv

#endif // ALASKA_KV_MEMCACHED_SIM_H
