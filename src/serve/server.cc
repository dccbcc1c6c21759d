#include "serve/server.h"

#include <chrono>

#include "api/api.h"
#include "core/translate.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace alaska::serve
{

namespace
{

/** Mixes a record id into a balanced shard hash (splitmix64 finish —
 *  consecutive ids must not all land on one shard). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Brackets a blocking wait in external mode iff the calling thread is
 * registered, so a submitter parked on backpressure can never stall a
 * stop-the-world barrier (the same idiom as the daemon's sleep).
 */
class ExternalGuard
{
  public:
    explicit ExternalGuard(Runtime &runtime)
        : runtime_(runtime),
          active_(runtime.currentThreadStateOrNull() != nullptr)
    {
        if (active_)
            runtime_.enterExternal();
    }

    ~ExternalGuard()
    {
        if (active_)
            runtime_.leaveExternal();
    }

    ExternalGuard(const ExternalGuard &) = delete;
    ExternalGuard &operator=(const ExternalGuard &) = delete;

  private:
    Runtime &runtime_;
    bool active_;
};

} // namespace

const char *
opName(OpKind op)
{
    switch (op) {
    case OpKind::Get: return "get";
    case OpKind::Set: return "set";
    case OpKind::Rmw: return "rmw";
    }
    return "unknown";
}

Server::Server(Runtime &runtime, ServerConfig config)
    : runtime_(runtime), config_(config), alloc_(runtime),
      valueGen_(ycsb::WorkloadKind::A, 1, 3, config.valueSize)
{
    if (config_.workers < 1)
        config_.workers = 1;
    if (config_.queueCapacity < 1)
        config_.queueCapacity = 1;
    for (int i = 0; i < config_.workers; i++) {
        queues_.push_back(std::make_unique<WorkerQueue>());
        auto shard = std::make_unique<Shard>();
        shard->store =
            std::make_unique<Store>(alloc_, config_.maxMemoryPerShard);
        shards_.push_back(std::move(shard));
    }
}

Server::~Server()
{
    stop();
    clearStores();
}

void
Server::setCompletionHandler(CompletionFn fn)
{
    completion_ = std::move(fn);
}

void
Server::start()
{
    if (started_.load(std::memory_order_acquire))
        return;
    stopping_.store(false, std::memory_order_release);
    started_.store(true, std::memory_order_release);
    for (size_t i = 0; i < queues_.size(); i++)
        threads_.emplace_back([this, i] { workerMain(i); });
}

void
Server::stop()
{
    stopping_.store(true, std::memory_order_seq_cst);
    for (auto &q : queues_) {
        {
            // Pairs with the predicate checks under the queue mutex:
            // a waiter between its check and its wait must see the
            // notify.
            std::lock_guard<std::mutex> lock(q->mutex);
        }
        q->notEmpty.notify_all();
        q->notFull.notify_all();
    }
    for (auto &t : threads_)
        if (t.joinable())
            t.join();
    threads_.clear();
    started_.store(false, std::memory_order_release);
}

bool
Server::submit(const Request &request)
{
    if (stopping_.load(std::memory_order_acquire))
        return false;
    WorkerQueue &q = *queues_[shardOf(request.key)];
    bool accepted = false;
    {
        ExternalGuard external(runtime_);
        std::unique_lock<std::mutex> lock(q.mutex);
        if (q.queue.size() >= config_.queueCapacity) {
            backpressure_.fetch_add(1, std::memory_order_relaxed);
            telemetry::count(telemetry::Counter::ServeBackpressure);
            q.notFull.wait(lock, [&] {
                return q.queue.size() < config_.queueCapacity ||
                       stopping_.load(std::memory_order_relaxed);
            });
        }
        if (!stopping_.load(std::memory_order_relaxed)) {
            q.queue.push_back(request);
            accepted = true;
            const size_t depth =
                totalQueued_.fetch_add(1, std::memory_order_relaxed) + 1;
            telemetry::setGauge(telemetry::Gauge::ServeQueueDepth, depth);
        }
    }
    if (accepted) {
        submitted_.fetch_add(1, std::memory_order_relaxed);
        q.notEmpty.notify_one();
    }
    return accepted;
}

uint64_t
Server::submitted() const
{
    return submitted_.load(std::memory_order_acquire);
}

uint64_t
Server::completed() const
{
    return completed_.load(std::memory_order_acquire);
}

size_t
Server::queueDepth() const
{
    return totalQueued_.load(std::memory_order_acquire);
}

uint64_t
Server::steals() const
{
    return steals_.load(std::memory_order_acquire);
}

uint64_t
Server::backpressureWaits() const
{
    return backpressure_.load(std::memory_order_acquire);
}

size_t
Server::shardOf(uint64_t key) const
{
    return static_cast<size_t>(mix64(key) % shards_.size());
}

kv::KvStats
Server::storeStats() const
{
    kv::KvStats total;
    for (const auto &shard : shards_) {
        const kv::KvStats s = shard->store->stats();
        total.keys += s.keys;
        total.usedMemory += s.usedMemory;
        total.evictions += s.evictions;
    }
    return total;
}

std::string
Server::valueFor(uint64_t id) const
{
    return valueGen_.valueFor(id);
}

void
Server::populate(uint64_t records)
{
    for (uint64_t id = 0; id < records; id++) {
        shard(shardOf(id)).set(ycsb::Workload::keyFor(id),
                               valueFor(id));
    }
}

void
Server::fragmentEvenKeys(uint64_t records)
{
    for (uint64_t id = 0; id < records; id += 2)
        shard(shardOf(id)).del(ycsb::Workload::keyFor(id));
}

void
Server::clearStores()
{
    for (auto &shard : shards_)
        shard->store->clear();
}

void
Server::workerMain(size_t index)
{
    ThreadRegistration registration(runtime_);
    WorkerQueue &own = *queues_[index];
    for (;;) {
        poll();
        Request request;
        if (popFrom(index, request, /*stolen=*/false)) {
            execute(request);
            continue;
        }
        bool stole = false;
        for (size_t i = 1; i < queues_.size() && !stole; i++)
            stole = popFrom((index + i) % queues_.size(), request,
                            /*stolen=*/true);
        if (stole) {
            execute(request);
            continue;
        }
        if (stopping_.load(std::memory_order_acquire) &&
            totalQueued_.load(std::memory_order_acquire) == 0)
            break;
        // Idle: nap on the own-queue cv in external mode (a parked
        // worker must not hold up a barrier), waking early for new
        // work or shutdown; the timeout bounds how long a steal-only
        // opportunity can sit unnoticed.
        runtime_.enterExternal();
        {
            std::unique_lock<std::mutex> lock(own.mutex);
            own.notEmpty.wait_for(
                lock, std::chrono::microseconds(200), [&] {
                    return !own.queue.empty() ||
                           stopping_.load(std::memory_order_relaxed);
                });
        }
        runtime_.leaveExternal();
    }
}

bool
Server::popFrom(size_t index, Request &out, bool stolen)
{
    WorkerQueue &q = *queues_[index];
    std::unique_lock<std::mutex> lock(q.mutex, std::defer_lock);
    if (stolen) {
        // A thief never waits on a busy queue — it has its own.
        if (!lock.try_lock())
            return false;
    } else {
        lock.lock();
    }
    if (q.queue.empty())
        return false;
    out = q.queue.front();
    q.queue.pop_front();
    const size_t depth =
        totalQueued_.fetch_sub(1, std::memory_order_relaxed) - 1;
    telemetry::setGauge(telemetry::Gauge::ServeQueueDepth, depth);
    lock.unlock();
    q.notFull.notify_one();
    if (stolen) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(telemetry::Counter::ServeSteal);
    }
    return true;
}

void
Server::execute(const Request &request)
{
    telemetry::TraceSpan span("request");
    Shard &shard = *shards_[shardOf(request.key)];
    const std::string key = ycsb::Workload::keyFor(request.key);
    bool hit = true;
    {
        // The shard lock admits thieves; nearly always uncontended
        // (requests route to the owning worker). The access_scope is
        // the typed layer's request bracket: two loads under pure
        // stop-the-world defrag, a real ConcurrentAccessScope while a
        // daemon declares campaigns.
        std::lock_guard<std::mutex> lock(shard.mutex);
        access_scope scope;
        switch (request.op) {
        case OpKind::Get:
            hit = shard.store->get(key).has_value();
            break;
        case OpKind::Set:
            shard.store->set(key, valueFor(request.key));
            break;
        case OpKind::Rmw: {
            auto value = shard.store->get(key);
            hit = value.has_value();
            std::string modified =
                value.value_or(std::string(config_.valueSize, 'x'));
            modified[0] = static_cast<char>(modified[0] ^ 1);
            shard.store->set(key, modified);
            break;
        }
        }
    }
    Response response;
    response.id = request.id;
    response.op = request.op;
    response.hit = hit;
    const uint64_t now = nowNs();
    response.latencyNs =
        now > request.intendedNs ? now - request.intendedNs : 0;
    if (completion_)
        completion_(response);
    completed_.fetch_add(1, std::memory_order_release);
}

} // namespace alaska::serve
