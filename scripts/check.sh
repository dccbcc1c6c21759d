#!/usr/bin/env sh
# Tier-1 verify: configure, build (with -Wall -Wextra), and run every
# registered test suite, then smoke the bench binaries so they cannot
# bit-rot. Developers run this locally, and CI's tier-1 job runs this
# script itself (.github/workflows/ci.yml), so the two cannot drift.
#
# Every gate runs even when an earlier one failed: a failure prints a
# "FAILED:" line at once, and the script ends by listing every failed
# gate, one per line, and exiting 1. Only a failed configure or build
# stops it at once (nothing after it could run). Deterministic gates
# run first; the wall-clock serving smoke runs last.
set -eu

cd "$(dirname "$0")/.."

failed=""

# Record a failed gate: report it now and list it again at the end.
fail() {
    echo "FAILED: $*" >&2
    failed="$failed
$*"
}

# Run a command as a gate; a nonzero exit is recorded, not fatal.
gate() {
    "$@" || fail "$*"
}

# End the run: list the failed gates and exit 1, or print ok_message.
finish() {
    if [ -n "$failed" ]; then
        echo "failed gates:$failed" >&2
        exit 1
    fi
    echo "$1"
    exit 0
}

# TSAN mode (`scripts/check.sh --tsan`): build the concurrency suites
# under ThreadSanitizer in a separate tree and run just them — the
# suites that drive the epoch-scope / pin-handshake /
# grace-deferred-reclaim protocol, barriers (which read HTE pin
# counts while other threads pin and unpin), the
# lock-free page-residency bitmap, the per-thread allocation
# counters, the shards' remote-free inboxes and the campaign's
# unlocked reads of sub-heap fit hints while a mutator grows the
# destination shard's chain (anchorage_shard_test), and a campaign
# thread racing a live access<T> guard and a pinned<T> (api_test's
# ApiCampaignTest) end to end (the full suite under TSAN is slow and
# mostly single-threaded).
# The intentional mark-window copy race is whitelisted in
# base/speculative_copy.h; anything else TSAN reports is a real
# protocol bug.
if [ "${1:-}" = "--tsan" ]; then
    suites="concurrent_reloc_daemon_test handle_shard_stress_test
            epoch_grace_test telemetry_test defrag_equivalence_test
            policy_test serve_test barrier_test
            pin_test batched_defrag_test anchorage_test page_model_test
            runtime_test anchorage_shard_test api_test"
    targets=""
    for t in $suites; do
        targets="$targets --target $t"
    done
    cmake -B build-tsan -S . -DALASKA_TSAN=ON
    cmake --build build-tsan -j "$(nproc)" $targets
    for t in $suites; do
        gate ./build-tsan/"$t"
    done
    finish "tsan OK"
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
# whole tree with every count()/record() site compiled out
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
gate sh scripts/check_header_docs.sh

# Telemetry catalogue gate: every counter, histogram and trace event
# the source emits has a row in docs/OBSERVABILITY.md, and every
# row names something the source still emits.
if command -v python3 > /dev/null 2>&1; then
    gate python3 scripts/check_observability_docs.py
else
    echo "check_observability_docs skipped (no python3)"
fi

cmake -B build -S .
cmake --build build -j "$(nproc)"
cd build
gate ctest --output-on-failure -j "$(nproc)"

# Run one smoke: name it and keep its stdout; on a nonzero exit print
# that output and record the failure — a self-asserting smoke
# (serve_bench's "SMOKE FAIL:") states its reason on stdout.
smoke() {
    echo "smoke: $*"
    rc=0
    out=$("$@") || rc=$?
    if [ "$rc" -ne 0 ]; then
        printf '%s\n' "$out"
        fail "smoke exited $rc: $*"
    fi
}

# A bad flag must be rejected with exit 2 (usage), not run and pass.
usage_error() {
    rc=0
    "$@" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        fail "usage check: $* exited $rc, expected 2"
    fi
}

# Usage checks: a thread count outside [1, 256] (rejected while
# parsing, so the check starts no thread; --threads=100000 would start
# that many), a zero shard count, a shard count the service would round
# or clamp (its label would name a heap the run does not have), an
# empty keyspace, a zero op count, an unknown
# --mode= and an unknown flag must each be rejected, not crash or run
# and pass. Counts parse signed: a -1 that wrapped to 2^64 - 1 ran
# forever (serve_bench --records, its table sizing loop), ran
# unbounded (--queue-cap) or was silently clamped
# (--shards=0). serve_bench also rejects more records than its handle
# table can index (records x 4 entries; 10^9 aborted on a table size
# truncated to 0), a rate, window or SLO that is not a positive number
# and a zero queue capacity or value size, which the load generator,
# SLO tracker and server would otherwise hang on, abort on or silently
# clamp (an empty value made workload F write past its end). A flag
# serve_bench no longer has fails like any unknown one, so a script
# still passing it fails loudly. Every bench binary rejects an unknown
# flag before any work: a mistyped --smoke must not start a full run.
usage_error ./tab_ycsb_latency --smoke --bogus
usage_error ./tab_ycsb_latency --smoke --threads=0
usage_error ./tab_ycsb_latency --smoke --threads=257
usage_error ./tab_ycsb_latency --smoke --single-only --records=0
usage_error ./tab_ycsb_latency --smoke --single-only --records=-1
usage_error ./tab_ycsb_latency --smoke --single-only --ops=0
usage_error ./tab_ycsb_latency --smoke --single-only --ops=-1
usage_error ./tab_ycsb_latency --smoke --multi-only --mrecords=0
usage_error ./tab_ycsb_latency --smoke --multi-only --mrecords=1
usage_error ./tab_ycsb_latency --smoke --multi-only --mrecords=-1
usage_error ./tab_ycsb_latency --smoke --multi-only --mops=0
usage_error ./tab_ycsb_latency --smoke --multi-only --mops=-1
usage_error ./tab_ycsb_latency --smoke --multi-only --shards=0
usage_error ./tab_ycsb_latency --smoke --multi-only --shards=3
usage_error ./tab_ycsb_latency --smoke --multi-only --shards=512
usage_error ./serve_bench --smoke --bogus
usage_error ./serve_bench --smoke --mode=bogus
usage_error ./serve_bench --smoke --mode=hybrid
usage_error ./serve_bench --smoke --rate=0
usage_error ./serve_bench --smoke --rate=abc
usage_error ./serve_bench --smoke --records=0
usage_error ./serve_bench --smoke --records=-1
usage_error ./serve_bench --smoke --records=1000000000
usage_error ./serve_bench --smoke --ops=0
usage_error ./serve_bench --smoke --ops=-1
usage_error ./serve_bench --smoke --threads=0
usage_error ./serve_bench --smoke --threads=-1
usage_error ./serve_bench --smoke --threads=257
usage_error ./serve_bench --smoke --queue-cap=0
usage_error ./serve_bench --smoke --queue-cap=-1
usage_error ./serve_bench --smoke --window-ms=0
usage_error ./serve_bench --smoke --slo-us=-5
usage_error ./serve_bench --smoke --target-pause-us=200
usage_error ./serve_bench --smoke --value-size=0
usage_error ./serve_bench --smoke --value-size=-5
usage_error ./serve_bench --smoke --value-size=abc
usage_error ./fig05_translate_cost --bogus
usage_error ./fig07_overhead --bogus
usage_error ./fig08_ablation --bogus
usage_error ./fig09_redis_defrag --bogus
usage_error ./fig10_control_envelope --bogus
usage_error ./fig11_large_workload --bogus
usage_error ./fig12_memcached_pauses --bogus
usage_error ./handle_alloc_bench --bogus
usage_error ./tab_ablations --bogus
usage_error ./tab_code_size --bogus

have_python=0
if command -v python3 > /dev/null 2>&1; then
    have_python=1
else
    echo "check_trace and diff_bench skipped (no python3)"
fi

# Bench regression gate: each smoke's JSON is diffed against its
# committed baseline — structural changes (metric set, units) always
# fail; numeric drift beyond the per-metric noise band warns, except
# on the promoted metrics, where it fails. fig09 and fig11 come first
# and are diffed value for value (--band=0): both run on a virtual
# clock with fixed seeds, so any drift is a behaviour change, not
# noise.
diff_bench() {
    if [ "$have_python" -eq 1 ]; then
        gate python3 ../scripts/diff_bench.py "$@"
    fi
}

smoke ./fig09_redis_defrag --smoke --out=bench_fig09.json
diff_bench ../BENCH_fig09.json bench_fig09.json --strict --band=0
smoke ./fig11_large_workload --smoke --out=bench_fig11.json
diff_bench ../BENCH_fig11.json bench_fig11.json --strict --band=0

# YCSB smoke: tiny iteration counts — this only proves the harness
# still runs end to end (the multi-threaded section covers the
# concurrent-relocation daemon path). It runs once sharded (shards=8)
# and once with the single-shard configuration so neither allocation
# path can bit-rot. Its strict metrics are the workload-invariant
# columns (a concurrent run has zero barriers and zero pause by
# construction, an STW run zero campaign traffic, and the pre-run
# fragmentation is set by the deterministic load) — correctness
# claims, not timings.
smoke ./tab_ycsb_latency --smoke --shards=8 --telemetry \
    --trace=bench_trace.json --out=bench_ycsb.json
smoke ./tab_ycsb_latency --smoke --multi-only --shards=1
diff_bench ../BENCH_ycsb.json bench_ycsb.json \
    --strict-metrics='conc.barriers,conc.pause_ms,conc1.barriers,conc1.pause_ms,stw.committed,stw.abort_rate,stw.grace_waits,stw.grace_wait_ms,stw.limbo_parked,stw.frag_before,conc.frag_before,conc1.frag_before'

# Trace gate: the telemetry-instrumented YCSB smoke must emit a
# parseable Chrome trace with at least one campaign span, one barrier
# span and one policy_decision span (the controller's per-tick
# decision: the alpha budget and the mode's one mechanism call) —
# proof the defrag pipeline's tracer stays wired for both mechanisms
# and for the controller above them (see docs/OBSERVABILITY.md for the
# event schema).
if [ "$have_python" -eq 1 ]; then
    gate python3 ../scripts/check_trace.py bench_trace.json campaign \
        barrier policy_decision
fi

# The fig12 smoke asserts the batched-defrag invariant: no single
# barrier of a batched pass moves more than its batch budget.
smoke ./fig12_memcached_pauses --smoke

# Allocator bench: single-sample throughputs, an advisory diff.
smoke ./handle_alloc_bench --out=bench_handle_alloc.json
diff_bench ../BENCH_handle_alloc.json bench_handle_alloc.json

# Translate costs (fig05): each *_ratio metric is a row's cost over the
# base row of the same round, which cancels the host's speed, so the
# ratios gate strictly at a 20% band (4 CVs where those are wider). The
# gated rows are dependent chases: one extra dependent load in
# translate() moves direct.translate_ratio from ~3.0 to ~5.0, while an
# unmodified tree stays within ~4% run to run. The ns and Mpins/s rows
# stay advisory.
smoke ./fig05_translate_cost --out=bench_translate.json
diff_bench ../BENCH_translate.json bench_translate.json \
    --strict-metrics='*_ratio' --band=0.2

# Whole-program overhead (fig07): base and alaska alternate within each
# round and each kernel reports its median per-round ratio and IQR. A
# smoke only: it must run to completion, and its numbers are advisory.
smoke ./fig07_overhead --rounds=5

# Example smoke: every example binary must run to completion — the
# examples are the typed-API documentation that compiles, so they may
# not bit-rot either. example_kv_cache_server also exits 1 when the
# server lost an offered request, the count its summary prints.
smoke ./example_quickstart
smoke ./example_far_memory
smoke ./example_kv_cache_server
smoke ./example_compiler_pipeline

# Repository benchmark smoke: repobench/ compiles ../src on its own and
# includes control.h, mechanism.h and anchorage_service.h, so a header
# change could break it while every gate above stays green. Build it
# (Release, into .bench_build/) and run each workload for one second;
# run.py exits nonzero when the build or any operation fails.
if [ "$have_python" -eq 1 ]; then
    cd ..
    for w in kv-serve kv-defrag cache-churn; do
        smoke python3 repobench/run.py --workload "$w" --seed 1 \
            --seconds 1
    done
    cd build
else
    echo "repobench smoke skipped (no python3)"
fi

# Serving smoke, last because it runs on the wall clock: open-loop
# load over both defrag modes. The binary asserts one invariant —
# zero lost responses in every run — and exits nonzero on violation,
# after writing its trace and report, so the gates below still judge
# them. It asserts no latency relation: one wall-clock run on a shared
# host cannot tell a regression from noise. Every served
# request must be bracketed by a request span; the by-construction
# columns gate strictly (every offered request completes, lost == 0
# exactly, and the offered count is fixed by the deterministic
# schedule); the latency percentiles stay advisory.
smoke ./serve_bench --smoke --trace=serve_trace.json \
    --out=bench_serve.json
if [ "$have_python" -eq 1 ]; then
    gate python3 ../scripts/check_trace.py serve_trace.json request
fi
diff_bench ../BENCH_serve.json bench_serve.json \
    --strict-metrics='*.offered,*.completed,*.lost'

finish "check OK"
