/**
 * @file
 * The per-layer record every workload reports. Every field is emitted
 * on every workload, so one list of names covers all three; a layer a
 * workload does not exercise reads 0 there (e.g. serve.* on
 * cache-churn, campaign.* on cache-churn, stw.* on the kv workloads).
 * README.md maps each field to the end-to-end metric it should move.
 */

#ifndef REPOBENCH_LAYERS_H
#define REPOBENCH_LAYERS_H

#include <vector>

#include "anchorage/anchorage_service.h"
#include "common.h"
#include "core/runtime.h"
#include "services/concurrent_reloc_daemon.h"

namespace repobench
{

struct Layers
{
    // serve (kv-*): the request path as the benchmark sees it.
    double submitUsP50 = 0, submitUsP99 = 0, queueDepthMax = 0;
    double steals = 0, backpressure = 0;
    double lateUsP99 = 0, lateUsMax = 0;
    // serve tails (kv-*): diagnostic only, with their sample count.
    double getP99 = 0, getP999 = 0, setP99 = 0, setP999 = 0;
    double requests = 0;
    // kv (cache-churn): sampled MiniKv::set wall times.
    double insertP99 = 0, insertP999 = 0, insertsSampled = 0;
    double evictions = 0;
    // core
    double hallocsPerOp = 0, hfreesPerOp = 0, barriers = 0;
    double magazineRefills = 0, idShardSteals = 0;
    // anchorage allocation
    double missDepthP99 = 0, crossShardFrees = 0, holeSteals = 0;
    // anchorage campaign (kv-defrag)
    double recoverS = 0, campaignMovedMb = 0, commitRatio = 0;
    double noSpace = 0, campaignBusyS = 0, campaignCopyGbps = 0;
    double graceWaits = 0, graceAgeUsP99 = 0, limboStalls = 0;
    // anchorage stop-the-world (cache-churn)
    double stwBarriers = 0, stwPauseMs = 0, stwPauseUsP99 = 0;
    double stwPauseUsMax = 0, stwMovedMb = 0, stwReclaimedPerMoved = 0;
    double stwCopyGbps = 0;
    // policy / daemon
    double passes = 0, fallbacks = 0, batchBytes = 0;
    // sim: the allocator's own model of the heap
    double modelRssMb = 0, liveMb = 0, extentMb = 0, fragEnd = 0;
    // host
    double stealS = 0, cpuS = 0, memcpyGbps = 0;

    /**
     * Fill core, allocation, campaign, STW, policy, sim and roofline
     * fields from the program's own exports over the measured phase:
     * Runtime::stats() (against stats0, taken at its start),
     * Runtime::telemetrySnapshot() (telemetry was reset at its start),
     * the daemon's per-mechanism totals and barrier pauses, and the
     * service's accounting. ops is the phase's completed operations.
     */
    void collect(alaska::Runtime &runtime,
                 alaska::anchorage::AnchorageService &service,
                 const alaska::ConcurrentRelocDaemon &daemon,
                 const alaska::RuntimeStats &stats0, double ops,
                 const std::vector<double> &modelRssMbSamples);

    /** Append every field to r.layers under its reported name. */
    void emit(Result &r) const;
};

} // namespace repobench

#endif // REPOBENCH_LAYERS_H
