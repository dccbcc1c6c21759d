#!/usr/bin/env sh
# Tier-1 verify: configure, build (with -Wall -Wextra), and run every
# registered test suite, then smoke the bench binaries so they cannot
# bit-rot. Developers run this locally; CI runs the same steps
# (.github/workflows/ci.yml).
set -eu

cd "$(dirname "$0")/.."

# TSAN mode (`scripts/check.sh --tsan`): build the concurrency suites
# under ThreadSanitizer in a separate tree and run just them — the
# suites that drive the epoch-scope / pin-handshake /
# grace-deferred-reclaim protocol, barriers (which read HTE pin
# counts while other threads pin and unpin), the
# lock-free page-residency bitmap and the per-thread allocation
# counters end to end (the full suite under TSAN is slow and mostly
# single-threaded).
# The intentional mark-window copy race is whitelisted in
# base/speculative_copy.h; anything else TSAN reports is a real
# protocol bug.
if [ "${1:-}" = "--tsan" ]; then
    suites="concurrent_reloc_daemon_test handle_shard_stress_test
            epoch_grace_test telemetry_test defrag_equivalence_test
            policy_test serve_test barrier_test
            pin_test batched_defrag_test anchorage_test page_model_test
            runtime_test"
    targets=""
    for t in $suites; do
        targets="$targets --target $t"
    done
    cmake -B build-tsan -S . -DALASKA_TSAN=ON
    cmake --build build-tsan -j "$(nproc)" $targets
    for t in $suites; do
        ./build-tsan/"$t"
    done
    echo "tsan OK"
    exit 0
fi

# ASan+UBSan lane (`scripts/check.sh --asan`): build the whole tree
# with AddressSanitizer, UndefinedBehaviorSanitizer (no recovery) and
# libstdc++ assertions in a separate tree, and run the whole test
# suite. Leaks fail their test too (LeakSanitizer rides along).
if [ "${1:-}" = "--asan" ]; then
    cmake -B build-asan -S . -DALASKA_ASAN=ON
    cmake --build build-asan -j "$(nproc)"
    (cd build-asan && ctest --output-on-failure -j "$(nproc)")
    echo "asan OK"
    exit 0
fi

# Telemetry level-0 lane (`scripts/check.sh --telemetry0`): build the
# whole tree with every count()/setGauge()/record() site compiled out
# and run the test suite — proof that level 0 really is zero-cost and
# that no code path grew a functional dependency on a telemetry side
# effect (the counter-delta tests GTEST_SKIP themselves).
if [ "${1:-}" = "--telemetry0" ]; then
    cmake -B build-tel0 -S . -DALASKA_TELEMETRY_LEVEL=0
    cmake --build build-tel0 -j "$(nproc)"
    (cd build-tel0 && ctest --output-on-failure -j "$(nproc)")
    echo "telemetry0 OK"
    exit 0
fi

# Docs gate: public headers in src/core/, src/api/, src/anchorage/ and
# src/services/ must document every public class (the raw and typed
# API contracts and the locking/shard-affinity contracts live there;
# see docs/ARCHITECTURE.md and docs/API.md).
sh scripts/check_header_docs.sh

# Telemetry catalogue gate: every counter, gauge, histogram and trace
# event the source emits has a row in docs/OBSERVABILITY.md, and every
# row names something the source still emits.
if command -v python3 > /dev/null 2>&1; then
    python3 scripts/check_observability_docs.py
else
    echo "check_observability_docs skipped (no python3)"
fi

cmake -B build -S .
cmake --build build -j "$(nproc)"
cd build
ctest --output-on-failure -j "$(nproc)"

# Bench smoke: tiny iteration counts, output discarded — this only
# proves the harnesses still run end to end (the multi-threaded YCSB
# smoke covers the concurrent-relocation daemon path). The YCSB smoke
# runs once sharded (shards=8) and once with the single-shard
# configuration so neither allocation path can bit-rot. The fig12
# smoke additionally asserts the batched-defrag invariant: no single
# barrier of a batched pass moves more than its batch budget.
./handle_alloc_bench --out=bench_handle_alloc.json > /dev/null
./translate_baseline_bench --out=bench_translate.json > /dev/null
./tab_ycsb_latency --smoke --shards=8 --telemetry \
    --trace=bench_trace.json --out=bench_ycsb.json > /dev/null
./tab_ycsb_latency --smoke --multi-only --shards=1 > /dev/null
# Adaptive-barrier smoke: the pause-SLO run must complete and adapt
# (its value claim — bounded pauses vs the fixed run — is shown in the
# printed table; run unasserted here since pause tails are wall-clock).
./tab_ycsb_latency --smoke --target-pause-us=200 > /dev/null
./fig09_redis_defrag --smoke --out=bench_fig09.json > /dev/null
./fig11_large_workload --smoke --out=bench_fig11.json > /dev/null
./fig12_memcached_pauses --smoke > /dev/null
# Serving smoke: open-loop load over all three defrag modes plus the
# adaptive-vs-fixed pause head-to-head. The binary asserts its own
# invariants — zero lost responses in every mode, adaptive p999 inside
# the noise envelope over fixed — and exits nonzero on violation.
./serve_bench --smoke --trace=serve_trace.json \
    --out=bench_serve.json > /dev/null
# An unknown --mode= must be rejected with exit 2, not run no mode and
# pass the smoke.
rc=0
./serve_bench --smoke --mode=bogus > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "serve_bench --mode=bogus exited $rc, expected 2" >&2
    exit 1
fi
echo "bench smoke OK"

# Trace gates: the telemetry-instrumented YCSB smoke must emit a
# parseable Chrome trace with at least one campaign span, one barrier
# span and one policy_decision span (the controller's per-tick
# decision: the mode's mechanism calls, budget split, fallback gate and
# abandonment) — proof the defrag pipeline's tracer stays wired for
# both mechanisms and for the controller above them (see
# docs/OBSERVABILITY.md for the event schema).
if command -v python3 > /dev/null 2>&1; then
    python3 ../scripts/check_trace.py bench_trace.json campaign \
        barrier policy_decision
    # The serving smoke must emit at least one request span — proof
    # every served request is bracketed by the tracer.
    python3 ../scripts/check_trace.py serve_trace.json request
else
    echo "check_trace skipped (no python3)"
fi

# Bench regression gate: each smoke's JSON is diffed against its
# committed baseline — structural changes (metric set, units) always
# fail; numeric drift beyond the per-metric noise band warns, except
# on the promoted metrics below, where it fails:
#   * YCSB: the workload-invariant columns (a concurrent run has zero
#     barriers and zero pause by construction, an STW run zero
#     campaign traffic, and the pre-run fragmentation is set by the
#     deterministic load) — these are correctness claims, not timings;
#   * handle_alloc: the deref/scoped translate costs (multi-sample,
#     low CV); the single-sample alloc throughputs stay advisory;
#   * translate: the whole report (multi-sample medians, low CV);
#   * fig09 and fig11: the whole report, value for value (--band=0):
#     both run on a virtual clock with fixed seeds, so any drift is a
#     behaviour change, not noise.
if command -v python3 > /dev/null 2>&1; then
    python3 ../scripts/diff_bench.py ../BENCH_ycsb.json \
        bench_ycsb.json \
        --strict-metrics='conc.barriers,conc.pause_ms,conc1.barriers,conc1.pause_ms,stw.committed,stw.abort_rate,stw.grace_waits,stw.grace_wait_ms,stw.limbo_parked,stw.frag_before,conc.frag_before,conc1.frag_before'
    python3 ../scripts/diff_bench.py ../BENCH_handle_alloc.json \
        bench_handle_alloc.json --strict-metrics='deref.*,scoped.*'
    python3 ../scripts/diff_bench.py ../BENCH_translate.json \
        bench_translate.json --strict
    python3 ../scripts/diff_bench.py ../BENCH_fig09.json \
        bench_fig09.json --strict --band=0
    python3 ../scripts/diff_bench.py ../BENCH_fig11.json \
        bench_fig11.json --strict --band=0
    #   * serve: the by-construction columns — every offered request
    #     completes (lost == 0 exactly), and the load generator's
    #     offered count is fixed by the deterministic schedule; the
    #     latency percentiles stay advisory (wall-clock).
    python3 ../scripts/diff_bench.py ../BENCH_serve.json \
        bench_serve.json \
        --strict-metrics='*.offered,*.completed,*.lost'
else
    echo "diff_bench skipped (no python3)"
fi

# Example smoke: every example binary must run to completion — the
# examples are the typed-API documentation that compiles, so they may
# not bit-rot either.
./example_quickstart > /dev/null
./example_far_memory > /dev/null
./example_kv_cache_server > /dev/null
./example_compiler_pipeline > /dev/null
echo "example smoke OK"

# Repository benchmark smoke: repobench/ compiles ../src on its own and
# includes control.h, mechanism.h and anchorage_service.h, so a header
# change could break it while every gate above stays green. Build it
# (Release, into .bench_build/) and run each workload for one second;
# run.py exits nonzero when the build or any operation fails.
if command -v python3 > /dev/null 2>&1; then
    cd ..
    for w in kv-serve kv-defrag cache-churn; do
        python3 repobench/run.py --workload "$w" --seed 1 --seconds 1 \
            > /dev/null
    done
    echo "repobench smoke OK"
else
    echo "repobench smoke skipped (no python3)"
fi
