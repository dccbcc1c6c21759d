/**
 * @file
 * Figure 10: the envelope of control — the same Figure 9 workload
 * under Anchorage with a sweep of controller parameter sets
 * ([F_lb,F_ub], O_ub, alpha). Each parameter set traces a
 * different RSS curve; the envelope between the most and least
 * aggressive shows the operator's tradeoff space between overhead and
 * fragmentation.
 */

#include <algorithm>
#include <cstdio>

#include "anchorage/alloc_model_adapter.h"
#include "bench/frag_harness.h"
#include "sim/address_space.h"

int
main(int argc, char **argv)
{
    using namespace alaska;
    using namespace alaska::bench;

    if (argc > 1) {
        std::fprintf(stderr, "usage: %s\n", argv[0]);
        return 2;
    }

    std::printf("=== Figure 10: Anchorage's envelope of control ===\n");
    std::printf("Figure 9 workload; each curve is one controller "
                "parameter set\n\n");

    kv::CacheWorkloadConfig workload_config;
    workload_config.maxMemory = 100 << 20;
    workload_config.driftPeriod = 150000;

    FragTimeline timeline;
    timeline.seconds = 10.0;
    timeline.tickSec = 0.1;
    timeline.totalInserts = 1200000;

    struct Sweep
    {
        const char *label;
        anchorage::ControlParams params;
    };
    std::vector<Sweep> sweeps;
    for (double alpha : {0.05, 0.25, 1.0}) {
        for (double oub : {0.01, 0.05, 0.25}) {
            anchorage::ControlParams params;
            params.alpha = alpha;
            params.oUb = oub;
            params.fLb = 1.10;
            params.fUb = 1.30;
            params.useModeledTime = true;
            // Monolithic passes: the envelope sweeps alpha, and the
            // 10 Hz maintain() hook would clip batched passes to one
            // small barrier per tick, flattening exactly the knob
            // this figure sweeps (see fig09 for the same reasoning).
            params.batchBytes = 0;
            static char labels[9][64];
            static int next = 0;
            std::snprintf(labels[next], sizeof(labels[next]),
                          "a%.2f_o%.2f", alpha, oub);
            sweeps.push_back({labels[next++], params});
        }
    }

    std::vector<FragCurve> curves;
    std::vector<double> overhead_fraction;
    for (const auto &sweep : sweeps) {
        VirtualClock clock;
        PhantomAddressSpace space;
        anchorage::AnchorageAllocModel model(space, clock,
                                             sweep.params);
        curves.push_back(runFragConfig(
            sweep.label, model, workload_config, timeline, clock,
            [&model](kv::CacheWorkload &) { model.maintain(); }));
        overhead_fraction.push_back(model.controller().totalDefragSec() /
                                    timeline.seconds);
    }

    printCurves(curves, timeline.tickSec);

    // The envelope: per-tick min and max across parameter sets.
    std::printf("\nenvelope (dashed curves in the paper):\n");
    std::printf("time_s,envelope_lo_mb,envelope_hi_mb\n");
    for (size_t t = 0; t < curves.front().rssMb.size(); t += 5) {
        double lo = curves[0].rssMb[t], hi = lo;
        for (const auto &curve : curves) {
            lo = std::min(lo, curve.rssMb[t]);
            hi = std::max(hi, curve.rssMb[t]);
        }
        std::printf("%.1f,%.1f,%.1f\n",
                    static_cast<double>(t + 1) * timeline.tickSec, lo,
                    hi);
    }

    std::printf("\nsummary: parameter set -> final RSS, defrag duty "
                "cycle (must stay at or below O_ub)\n");
    for (size_t i = 0; i < sweeps.size(); i++) {
        std::printf("  %-13s %7.1f MB   duty %.3f (O_ub %.2f)%s\n",
                    sweeps[i].label, curves[i].rssMb.back(),
                    overhead_fraction[i], sweeps[i].params.oUb,
                    overhead_fraction[i] <=
                            sweeps[i].params.oUb * 1.05
                        ? ""
                        : "  <-- BOUND VIOLATED");
    }
    std::printf("\npaper: a large envelope — aggressive settings reach "
                "low RSS quickly, conservative ones defragment\n"
                "slowly but within tight overhead bounds.\n");
    return 0;
}
