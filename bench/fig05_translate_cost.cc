/**
 * @file
 * Figure 5 / §3.3: the cost of the handle translation sequence against
 * a raw dereference, and of what surrounds it — the handle-fault check
 * (§7), pin stores and atomic pins (§3.4), safepoint polls (§4.1.3),
 * the typed API (src/api) under both disciplines, and halloc vs
 * malloc. The one harness for these costs.
 *
 * Every row but the allocator pair is a dependent pointer chase around
 * a ring of 64-byte objects, each holding the next one's handle or raw
 * pointer: a step starts only when the previous translation is done,
 * so one more dependent load in translate() shows in full, where a
 * sweep over independent objects would overlap it away. The rows run
 * in interleaved rounds; each round reports every row's best of
 * kPasses passes as ns per op (`*_ns`, advisory) and as a ratio to the
 * base row of the same round (`*_ratio`, gated strictly by
 * scripts/check.sh against BENCH_translate.json).
 *
 * The pin sweep's rates depend on how many cores the run gets
 * (taskset -c 0 collapses it), so they stay advisory.
 *
 * Usage: fig05_translate_cost [--out=FILE]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "base/rng.h"
#include "base/timer.h"
#include "bench/bench_util.h"
#include "core/malloc_service.h"

namespace
{

using namespace alaska;

/** One ring object: the next object's handle or raw pointer. */
struct Node
{
    Node *next;
    int64_t pad[7];
};
static_assert(sizeof(Node) == 64);

// Objects per ring. At 256 (16 KiB) the gated ratios moved ±8% run to
// run, the raw row slowing most, as if a busy hyperthread sibling
// pushed the ring out of L1; at 64 (4 KiB) they hold within ±4%.
constexpr int kRing = 64;
constexpr int kOps = 1 << 16; // chase steps (or alloc pairs) per pass
constexpr int kOpSize = 16;   // derefs per access_scope operation
constexpr int kPasses = 5;    // passes per row per round
constexpr int kRounds = 11;   // recorded rounds, after one warmup
constexpr int kSweepSamples = 5;
constexpr auto kSweepSlice = std::chrono::milliseconds(20);

Node *gRaw;           // ring of malloc'd objects linked by raw pointers
Node *gHandles;       // ring of halloc'd objects linked by handles
void *volatile gSink; // keeps each pass's result live
PinFrame *gFrame;     // the main thread's one-slot pin frame

/**
 * Link objects into one ring in a fixed random order, each reached
 * through names[i]: its handle or its address (translate() passes raw
 * pointers through). @return the name of the ring's first object.
 */
Node *
linkRing(Node *const *names)
{
    int order[kRing];
    for (int i = 0; i < kRing; i++)
        order[i] = i;
    Rng rng;
    for (int i = kRing - 1; i > 0; i--)
        std::swap(order[i], order[rng.below(static_cast<uint64_t>(i) + 1)]);
    for (int i = 0; i < kRing; i++)
        static_cast<Node *>(translate(names[order[i]]))->next =
            names[order[(i + 1) % kRing]];
    return names[order[0]];
}

/** A chase step: reach the object p names, return its next link. */
using Step = Node *(*)(Node *);

Node *
rawStep(Node *p)
{
    return p->next;
}

/** A step through translation function T. */
template <void *(*T)(const void *)>
Node *
via(Node *p)
{
    return static_cast<Node *>(T(p))->next;
}

Node *
pinStoreStep(Node *p)
{
    return gFrame->pin(0, p)->next;
}

Node *
atomicPinStep(Node *p)
{
    ConcurrentPin pin(p);
    return static_cast<Node *>(pin.get())->next;
}

Node *
pollStep(Node *p)
{
    poll();
    return p->next;
}

Node *
derefStep(Node *p)
{
    return api::deref(p)->next;
}

Node *
guardStep(Node *p)
{
    return alaska::access<Node>(p)->next;
}

/** Seconds for kOps chase steps from start; op takes kOpSize steps. */
template <typename Op>
double
timeChase(Node *start, Op op)
{
    Node *p = start;
    Stopwatch watch;
    for (int i = 0; i < kOps; i += kOpSize)
        p = op(p);
    const double sec = watch.elapsedSec();
    gSink = p;
    return sec;
}

/** kOpSize chase steps through S: one operation. */
template <Step S>
Node *
op(Node *p)
{
    for (int i = 0; i < kOpSize; i++)
        p = S(p);
    return p;
}

/** One pass through S around *Ring. */
template <Step S, Node **Ring = &gHandles>
double
chase()
{
    return timeChase(*Ring, op<S>);
}

/** api::deref per step, inside one access_scope spanning the pass. */
double
derefPass()
{
    access_scope pass;
    return chase<derefStep>();
}

/** One access_scope per kOpSize-deref operation, api::deref inside. */
double
scopeDerefPass()
{
    return timeChase(gHandles, [](Node *p) {
        access_scope scope;
        return op<derefStep>(p);
    });
}

/** Seconds for kOps malloc+free pairs of one 64-byte object. */
double
mallocPass()
{
    Stopwatch watch;
    for (int i = 0; i < kOps; i++) {
        gSink = std::malloc(64);
        std::free(gSink);
    }
    return watch.elapsedSec();
}

/** Seconds for kOps halloc+hfree pairs of one 64-byte object. */
double
hallocPass()
{
    Stopwatch watch;
    for (int i = 0; i < kOps; i++) {
        gSink = Runtime::gRuntime->halloc(64);
        Runtime::gRuntime->hfree(gSink);
    }
    return watch.elapsedSec();
}

/** The translation discipline a row runs under. */
enum class Mode
{
    Direct, ///< no concurrent defrag declared
    Scoped, ///< concurrent defrag declared
};
using enum Mode;

/** A timed row; a base row's cost divides the rows after it. */
struct Row
{
    const char *metric;
    Mode mode;
    bool base;
    double (*pass)();
};

const Row kRows[] = {
    {"direct.raw", Direct, true, chase<rawStep, &gRaw>},
    {"direct.translate", Direct, false, chase<via<translate>>},
    {"direct.raw_pointer_path", Direct, false, chase<via<translate>, &gRaw>},
    {"direct.checked", Direct, false, chase<via<translateChecked>>},
    {"direct.pin_store", Direct, false, chase<pinStoreStep>},
    {"direct.atomic_pin", Direct, false, chase<atomicPinStep>},
    {"direct.poll", Direct, false, chase<pollStep, &gRaw>},
    {"direct.api_deref", Direct, false, derefPass},
    {"direct.access_guard", Direct, false, chase<guardStep>},
    {"direct.scope_deref", Direct, false, scopeDerefPass},
    {"scoped.api_deref", Scoped, false, derefPass},
    {"scoped.access_guard", Scoped, false, chase<guardStep>},
    {"scoped.scope_deref", Scoped, false, scopeDerefPass},
    {"alloc.malloc_free", Direct, true, mallocPass},
    {"alloc.halloc_hfree", Direct, false, hallocPass},
};
constexpr size_t kRowCount = std::size(kRows);

/** One round: each row's best of kPasses passes, rows interleaved. */
void
runRound(double *best)
{
    std::fill(best, best + kRowCount, 1e30);
    for (int pass = 0; pass < kPasses; pass++) {
        for (size_t r = 0; r < kRowCount; r++) {
            if (kRows[r].mode == Scoped)
                Runtime::declareConcurrentDefrag();
            best[r] = std::min(best[r], kRows[r].pass());
            if (kRows[r].mode == Scoped)
                Runtime::retireConcurrentDefrag();
        }
    }
}

/**
 * Million pins per second summed over n threads that all pin one hot
 * handle (the handle ring's first): through a stack pin frame (a plain
 * store) or an atomic pin (an RMW pair on the handle's shared entry).
 */
template <bool Atomic>
double
pinRate(Runtime &runtime, int n)
{
    Node *hot = gHandles;
    std::latch ready(n + 1);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> pins{0};
    std::atomic<int64_t> sink{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < n; t++) {
        threads.emplace_back([&] {
            ThreadRegistration reg(runtime);
            ALASKA_PIN_FRAME(frame, 1);
            ready.arrive_and_wait();
            uint64_t local = 0;
            int64_t sum = 0;
            for (; !stop.load(std::memory_order_relaxed); local++) {
                if constexpr (Atomic) {
                    ConcurrentPin pin(hot);
                    sum += static_cast<Node *>(pin.get())->pad[0];
                } else {
                    sum += frame.pin(0, hot)->pad[0];
                }
            }
            pins.fetch_add(local);
            sink.fetch_add(sum);
        });
    }
    ready.arrive_and_wait();
    Stopwatch watch;
    std::this_thread::sleep_for(kSweepSlice);
    stop.store(true);
    const double sec = watch.elapsedSec();
    for (auto &thread : threads)
        thread.join();
    return static_cast<double>(pins.load()) / sec / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_file = nullptr;
    for (int i = 1; i < argc; i++) {
        if (const char *v = alaska::bench::outFileArg(argv[i])) {
            out_file = v; // points into argv, which outlives the loop
        } else {
            std::fprintf(stderr, "usage: %s [--out=FILE]\n", argv[0]);
            return 2;
        }
    }

    MallocService service;
    Runtime runtime(RuntimeConfig{.tableCapacity = 1u << 16});
    runtime.attachService(&service);
    ThreadRegistration reg(runtime);
    ALASKA_PIN_FRAME(frame, 1);
    gFrame = &frame;
    Node *raw[kRing], *handles[kRing];
    for (int i = 0; i < kRing; i++) {
        raw[i] = static_cast<Node *>(std::malloc(sizeof(Node)));
        handles[i] = static_cast<Node *>(runtime.halloc(sizeof(Node)));
    }
    gRaw = linkRing(raw);
    gHandles = linkRing(handles);

    alaska::bench::JsonReport report;
    double best[kRowCount];
    runRound(best); // warmup: fault in the rings, fill the ID magazine
    for (int round = 0; round < kRounds; round++) {
        runRound(best);
        double base = 0.0;
        for (size_t r = 0; r < kRowCount; r++) {
            const std::string metric = kRows[r].metric;
            report.add(metric + "_ns", best[r] / kOps * 1e9, "ns");
            if (kRows[r].base)
                base = best[r];
            else
                report.add(metric + "_ratio", best[r] / base, "x");
        }
    }

    std::printf("=== Figure 5 / par.3.3: translation cost, 1 thread "
                "(median of %d rounds of best-of-%d) ===\n\n",
                kRounds, kPasses);
    std::printf("%-24s %8s %8s\n", "row", "ns/op", "x base");
    for (const Row &row : kRows) {
        const std::string metric = row.metric;
        std::printf("%-24s %8.2f %8.2f\n", row.metric,
                    report.median(metric + "_ns"),
                    row.base ? 1.0 : report.median(metric + "_ratio"));
    }
    const double checked = report.median("direct.checked_ratio");
    const double plain = report.median("direct.translate_ratio");
    std::printf("\nhandle-fault check (par.7): %+.1f%% per chase step "
                "(checked %.2fx vs translate %.2fx raw)\n",
                (checked / plain - 1) * 100, checked, plain);

    std::printf("\n=== par.3.4 pin tracking: all threads pin ONE hot "
                "handle (M pins/s, median of %d) ===\n\n",
                kSweepSamples);
    std::printf("%8s %18s %14s %8s\n", "threads", "stack pin frames",
                "atomic pins", "ratio");
    for (int n : {1, 2, 4, 8}) {
        const std::string t = "sweep.t" + std::to_string(n);
        const std::string stack = t + ".stack_mpins";
        const std::string atomic = t + ".atomic_mpins";
        for (int sample = 0; sample < kSweepSamples; sample++) {
            report.add(stack, pinRate<false>(runtime, n), "Mpins/s");
            report.add(atomic, pinRate<true>(runtime, n), "Mpins/s");
        }
        std::printf("%8d %18.1f %14.1f %7.1fx\n", n, report.median(stack),
                    report.median(atomic),
                    report.median(stack) / report.median(atomic));
    }

    for (int i = 0; i < kRing; i++) {
        runtime.hfree(handles[i]);
        std::free(raw[i]);
    }
    if (out_file != nullptr &&
        !report.writeTo(out_file, "fig05_translate_cost"))
        return 1;
    return 0;
}
