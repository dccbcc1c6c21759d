#include "layers.h"

#include <algorithm>

#include "anchorage/mechanism.h"
#include "telemetry/telemetry.h"

namespace repobench
{

namespace
{

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** A log2 histogram's percentile interpolates inside its bucket, so it
 *  can overshoot the exact maximum; clamp it there. */
double
histPercentile(const alaska::telemetry::Histogram &h, double p)
{
    return std::min(h.percentile(p), static_cast<double>(h.max()));
}

} // namespace

void
Layers::collect(alaska::Runtime &runtime,
                alaska::anchorage::AnchorageService &service,
                const alaska::ConcurrentRelocDaemon &daemon,
                const alaska::RuntimeStats &stats0, double ops,
                const std::vector<double> &modelRssMbSamples)
{
    using alaska::telemetry::Counter;
    using alaska::telemetry::Hist;
    namespace an = alaska::anchorage;

    const alaska::RuntimeStats stats = runtime.stats();
    hallocsPerOp = ratio(static_cast<double>(stats.hallocs - stats0.hallocs),
                         ops);
    hfreesPerOp =
        ratio(static_cast<double>(stats.hfrees - stats0.hfrees), ops);
    barriers = static_cast<double>(stats.barriers - stats0.barriers);

    const alaska::telemetry::Snapshot snap = runtime.telemetrySnapshot();
    auto counter = [&](Counter c) {
        return static_cast<double>(snap.counter(c));
    };
    magazineRefills = counter(Counter::MagazineRefill);
    idShardSteals = counter(Counter::IdShardSteal);
    missDepthP99 = histPercentile(snap.histogram(Hist::AllocMissDepth), 99);
    crossShardFrees = counter(Counter::CrossShardFree);
    holeSteals = counter(Counter::ShardHoleSteal);

    const an::DefragStats camp = daemon.totalsFor(an::MechanismKind::Campaign);
    campaignMovedMb = static_cast<double>(camp.movedBytes) / 1e6;
    commitRatio = ratio(static_cast<double>(camp.committed),
                        static_cast<double>(camp.attempts));
    noSpace = static_cast<double>(camp.noSpace);
    campaignBusyS = camp.measuredSec;
    const double copyNs =
        static_cast<double>(snap.histogram(Hist::CampaignCopyNs).sum());
    campaignCopyGbps = ratio(static_cast<double>(camp.movedBytes), copyNs);
    graceWaits = static_cast<double>(camp.graceWaits);
    graceAgeUsP99 = histPercentile(snap.histogram(Hist::GraceAgeNs), 99) / 1e3;
    limboStalls = counter(Counter::LimboStall);

    const an::DefragStats stw = daemon.totalsFor(an::MechanismKind::Stw);
    const alaska::telemetry::Histogram pauses = daemon.barrierPauses();
    stwBarriers = static_cast<double>(pauses.count());
    stwPauseMs = static_cast<double>(pauses.sum()) / 1e6;
    stwPauseUsP99 = histPercentile(pauses, 99) / 1e3;
    stwPauseUsMax = static_cast<double>(pauses.max()) / 1e3;
    stwMovedMb = static_cast<double>(stw.movedBytes) / 1e6;
    stwReclaimedPerMoved = ratio(static_cast<double>(stw.reclaimedBytes),
                                 static_cast<double>(stw.movedBytes));
    stwCopyGbps = ratio(static_cast<double>(stw.movedBytes),
                        static_cast<double>(pauses.sum()));

    passes = static_cast<double>(daemon.passes());
    fallbacks = static_cast<double>(daemon.fallbacks());
    batchBytes = static_cast<double>(daemon.batchBytesCurrent());

    modelRssMb = mean(modelRssMbSamples);
    liveMb = static_cast<double>(service.activeBytes()) / 1e6;
    extentMb = static_cast<double>(service.heapExtent()) / 1e6;
    fragEnd = service.fragmentation();

    memcpyGbps =
        repobench::memcpyGbps(std::max(camp.movedBytes, stw.movedBytes));
}

void
Layers::emit(Result &r) const
{
    auto add = [&r](const char *name, double value, const char *unit) {
        r.layers.push_back(Metric{name, value, unit});
    };
    add("serve.submit_us_p50", submitUsP50, "us");
    add("serve.submit_us_p99", submitUsP99, "us");
    add("serve.queue_depth_max", queueDepthMax, "count");
    add("serve.steals", steals, "count");
    add("serve.backpressure", backpressure, "count");
    add("gen.late_us_p99", lateUsP99, "us");
    add("gen.late_us_max", lateUsMax, "us");
    add("get_p99_us", getP99, "us");
    add("get_p999_us", getP999, "us");
    add("set_p99_us", setP99, "us");
    add("set_p999_us", setP999, "us");
    add("requests", requests, "count");
    add("kv.insert_p99_us", insertP99, "us");
    add("kv.insert_p999_us", insertP999, "us");
    add("kv.inserts_sampled", insertsSampled, "count");
    add("kv.evictions", evictions, "count");
    add("core.hallocs_per_op", hallocsPerOp, "count");
    add("core.hfrees_per_op", hfreesPerOp, "count");
    add("core.barriers", barriers, "count");
    add("core.magazine_refills", magazineRefills, "count");
    add("core.id_shard_steals", idShardSteals, "count");
    add("alloc.miss_depth_p99", missDepthP99, "count");
    add("alloc.cross_shard_frees", crossShardFrees, "count");
    add("alloc.hole_steals", holeSteals, "count");
    add("campaign.recover_s", recoverS, "s");
    add("campaign.moved_mb", campaignMovedMb, "MB");
    add("campaign.commit_ratio", commitRatio, "ratio");
    add("campaign.no_space", noSpace, "count");
    add("campaign.busy_s", campaignBusyS, "s");
    add("campaign.copy_gbps", campaignCopyGbps, "GB/s");
    add("campaign.copy_roofline", ratio(campaignCopyGbps, memcpyGbps),
        "ratio");
    add("grace.waits", graceWaits, "count");
    add("grace.age_us_p99", graceAgeUsP99, "us");
    add("limbo.stalls", limboStalls, "count");
    add("stw.barriers", stwBarriers, "count");
    add("stw.pause_ms", stwPauseMs, "ms");
    add("stw.pause_us_p99", stwPauseUsP99, "us");
    add("stw.pause_us_max", stwPauseUsMax, "us");
    add("stw.moved_mb", stwMovedMb, "MB");
    add("stw.reclaimed_per_moved", stwReclaimedPerMoved, "ratio");
    add("stw.copy_gbps", stwCopyGbps, "GB/s");
    add("stw.copy_roofline", ratio(stwCopyGbps, memcpyGbps), "ratio");
    add("policy.passes", passes, "count");
    add("policy.fallbacks", fallbacks, "count");
    add("policy.batch_bytes", batchBytes, "bytes");
    add("sim.model_rss_mb", modelRssMb, "MB");
    add("sim.live_mb", liveMb, "MB");
    add("sim.extent_mb", extentMb, "MB");
    add("sim.frag_end", fragEnd, "ratio");
    add("host.steal_s", stealS, "s");
    add("host.cpu_s", cpuS, "s");
    add("host.memcpy_gbps", memcpyGbps, "GB/s");
}

} // namespace repobench
