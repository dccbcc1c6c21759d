/**
 * @file
 * Benchmark kernels reproducing the memory-access shapes of the
 * paper's evaluation suites (Embench, GAPBS, NAS, SPEC CPU 2017).
 * Each kernel is templated on a pointer policy P (policy.h) and an
 * array accessor Acc (access.h), runs a deterministic workload sized
 * by `scale`, and returns a checksum so baseline/handle equivalence is
 * testable. EXPERIMENTS.md maps each kernel to the paper benchmark
 * whose behaviour it stands in for.
 */

#ifndef ALASKA_KERNELS_KERNELS_H
#define ALASKA_KERNELS_KERNELS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "kernels/access.h"
#include "kernels/policy.h"

namespace alaska::kernels
{

// ===== Embench-like ========================================================

/** crc32: byte-stream CRC over one buffer (hoistable). */
template <typename P, template <typename, typename> class Acc>
int64_t
crc32Kernel(size_t scale)
{
    const size_t n = 1 << scale;
    typename P::Frame frame;
    void *buf_h = P::alloc(n);
    {
        Acc<P, uint8_t> buf(frame, 0, buf_h);
        for (size_t i = 0; i < n; i++)
            buf.store(i, static_cast<uint8_t>(i * 37 + 11));
        uint32_t crc = 0xffffffff;
        for (int rep = 0; rep < 8; rep++) {
            for (size_t i = 0; i < n; i++) {
                crc ^= buf.load(i);
                for (int k = 0; k < 8; k++)
                    crc = (crc >> 1) ^ (0xedb88320u & (~(crc & 1) + 1));
            }
            P::poll();
        }
        P::release(buf_h);
        return static_cast<int64_t>(crc);
    }
}

/** matmult-int: dense integer matrix multiply (hoistable). */
template <typename P, template <typename, typename> class Acc>
int64_t
matmultIntKernel(size_t scale)
{
    const size_t n = scale; // n x n matrices
    typename P::Frame frame;
    void *a_h = P::alloc(n * n * 8);
    void *b_h = P::alloc(n * n * 8);
    void *c_h = P::alloc(n * n * 8);
    Acc<P, int64_t> a(frame, 0, a_h), b(frame, 1, b_h), c(frame, 2, c_h);
    for (size_t i = 0; i < n * n; i++) {
        a.store(i, static_cast<int64_t>(i % 17));
        b.store(i, static_cast<int64_t>(i % 13));
    }
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j < n; j++) {
            int64_t sum = 0;
            for (size_t k = 0; k < n; k++)
                sum += a.load(i * n + k) * b.load(k * n + j);
            c.store(i * n + j, sum);
        }
        P::poll();
    }
    int64_t checksum = 0;
    for (size_t i = 0; i < n * n; i += 7)
        checksum ^= c.load(i);
    P::release(a_h);
    P::release(b_h);
    P::release(c_h);
    return checksum;
}

/** nbody: gravitational step over struct-of-arrays (hoistable). */
template <typename P, template <typename, typename> class Acc>
int64_t
nbodyKernel(size_t scale)
{
    const size_t n = scale;
    typename P::Frame frame;
    void *x_h = P::alloc(n * 8), *y_h = P::alloc(n * 8);
    void *vx_h = P::alloc(n * 8), *vy_h = P::alloc(n * 8);
    Acc<P, double> x(frame, 0, x_h), y(frame, 1, y_h);
    Acc<P, double> vx(frame, 2, vx_h), vy(frame, 3, vy_h);
    for (size_t i = 0; i < n; i++) {
        x.store(i, static_cast<double>(i % 100) * 0.1);
        y.store(i, static_cast<double>(i % 73) * 0.2);
        vx.store(i, 0);
        vy.store(i, 0);
    }
    for (int step = 0; step < 4; step++) {
        for (size_t i = 0; i < n; i++) {
            double fx = 0, fy = 0;
            for (size_t j = 0; j < n; j++) {
                const double dx = x.load(j) - x.load(i);
                const double dy = y.load(j) - y.load(i);
                const double d2 = dx * dx + dy * dy + 1e-3;
                fx += dx / d2;
                fy += dy / d2;
            }
            vx.store(i, vx.load(i) + fx * 1e-4);
            vy.store(i, vy.load(i) + fy * 1e-4);
            P::poll();
        }
        for (size_t i = 0; i < n; i++) {
            x.store(i, x.load(i) + vx.load(i));
            y.store(i, y.load(i) + vy.load(i));
        }
    }
    double checksum = 0;
    for (size_t i = 0; i < n; i++)
        checksum += x.load(i) + y.load(i);
    P::release(x_h);
    P::release(y_h);
    P::release(vx_h);
    P::release(vy_h);
    return static_cast<int64_t>(checksum * 1000);
}

/** primecount: sieve of Eratosthenes (hoistable, byte array). */
template <typename P, template <typename, typename> class Acc>
int64_t
primecountKernel(size_t scale)
{
    const size_t n = scale;
    typename P::Frame frame;
    void *sieve_h = P::alloc(n);
    Acc<P, uint8_t> sieve(frame, 0, sieve_h);
    for (size_t i = 0; i < n; i++)
        sieve.store(i, 1);
    for (size_t p = 2; p * p < n; p++) {
        if (!sieve.load(p))
            continue;
        for (size_t m = p * p; m < n; m += p)
            sieve.store(m, 0);
        P::poll();
    }
    int64_t count = 0;
    for (size_t i = 2; i < n; i++)
        count += sieve.load(i);
    P::release(sieve_h);
    return count;
}

/** A singly linked node used by the list kernels. */
struct ListNode
{
    int64_t key;
    ListNode *next; ///< maybe-handle
};

/**
 * sglib-listsort: build, merge-sort and traverse a linked list
 * (pointer chasing — every node access translates, like the paper's
 * sglib and st).
 */
template <typename P, template <typename, typename> class Acc>
int64_t
listSortKernel(size_t scale)
{
    const size_t n = scale;
    typename P::Frame frame;
    Rng rng(9);
    ListNode *head = nullptr;
    for (size_t i = 0; i < n; i++) {
        auto *node = static_cast<ListNode *>(P::alloc(sizeof(ListNode)));
        auto *raw = static_cast<ListNode *>(frame.pin(0, node));
        raw->key = static_cast<int64_t>(rng.below(1 << 20));
        raw->next = head;
        head = node;
    }

    // Bottom-up merge sort over maybe-handle links.
    auto merge = [&frame](ListNode *a, ListNode *b) -> ListNode * {
        ListNode *head_out = nullptr, **tail = &head_out;
        while (a && b) {
            auto *ra = static_cast<ListNode *>(frame.pin(0, a));
            auto *rb = static_cast<ListNode *>(frame.pin(1, b));
            if (ra->key <= rb->key) {
                *tail = a;
                tail = &ra->next;
                a = ra->next;
            } else {
                *tail = b;
                tail = &rb->next;
                b = rb->next;
            }
        }
        *tail = a ? a : b;
        return head_out;
    };
    // Split into runs of 1 and merge pairwise.
    for (size_t width = 1; width < n; width *= 2) {
        ListNode *rest = head;
        ListNode *sorted = nullptr, **stail = &sorted;
        while (rest) {
            ListNode *a = rest;
            ListNode *cut = rest;
            for (size_t i = 1; i < width && cut; i++)
                cut = static_cast<ListNode *>(frame.pin(0, cut))->next;
            ListNode *b = nullptr;
            if (cut) {
                auto *rc = static_cast<ListNode *>(frame.pin(0, cut));
                b = rc->next;
                rc->next = nullptr;
            }
            ListNode *bcut = b;
            for (size_t i = 1; i < width && bcut; i++)
                bcut = static_cast<ListNode *>(frame.pin(0, bcut))->next;
            if (bcut) {
                auto *rb = static_cast<ListNode *>(frame.pin(0, bcut));
                rest = rb->next;
                rb->next = nullptr;
            } else {
                rest = nullptr;
            }
            ListNode *merged = merge(a, b);
            *stail = merged;
            while (merged) {
                auto *rm = static_cast<ListNode *>(frame.pin(0, merged));
                if (!rm->next) {
                    stail = &rm->next;
                    break;
                }
                merged = rm->next;
            }
            P::poll();
        }
        head = sorted;
    }

    int64_t checksum = 0, rank = 0;
    ListNode *walk = head;
    while (walk) {
        auto *raw = static_cast<ListNode *>(frame.pin(0, walk));
        checksum += raw->key * (++rank % 7);
        ListNode *next = raw->next;
        P::release(walk);
        walk = next;
    }
    return checksum;
}

/** huffbench: greedy Huffman tree build + encode lengths. */
template <typename P, template <typename, typename> class Acc>
int64_t
huffbenchKernel(size_t scale)
{
    struct HuffNode
    {
        int64_t weight;
        HuffNode *left, *right; ///< maybe-handles
    };
    const size_t symbols = 256;
    const size_t n = scale;
    typename P::Frame frame;

    void *freq_h = P::alloc(symbols * 8);
    Acc<P, int64_t> freq(frame, 2, freq_h);
    Rng rng(31);
    for (size_t i = 0; i < symbols; i++)
        freq.store(i, 1);
    for (size_t i = 0; i < n; i++) {
        const auto s = rng.below(symbols);
        freq.store(s, freq.load(s) + 1);
    }

    // Simple O(k^2) huffman: repeatedly merge two smallest roots.
    std::vector<HuffNode *> roots;
    for (size_t s = 0; s < symbols; s++) {
        auto *node = static_cast<HuffNode *>(P::alloc(sizeof(HuffNode)));
        auto *raw = static_cast<HuffNode *>(frame.pin(0, node));
        raw->weight = freq.load(s);
        raw->left = raw->right = nullptr;
        roots.push_back(node);
    }
    while (roots.size() > 1) {
        size_t lo1 = 0, lo2 = 1;
        auto weight = [&frame](HuffNode *node) {
            return static_cast<HuffNode *>(frame.pin(0, node))->weight;
        };
        if (weight(roots[lo2]) < weight(roots[lo1]))
            std::swap(lo1, lo2);
        for (size_t i = 2; i < roots.size(); i++) {
            const int64_t w = weight(roots[i]);
            if (w < weight(roots[lo1])) {
                lo2 = lo1;
                lo1 = i;
            } else if (w < weight(roots[lo2])) {
                lo2 = i;
            }
        }
        auto *parent =
            static_cast<HuffNode *>(P::alloc(sizeof(HuffNode)));
        auto *raw = static_cast<HuffNode *>(frame.pin(0, parent));
        raw->left = roots[lo1];
        raw->right = roots[lo2];
        raw->weight = weight(roots[lo1]) + weight(roots[lo2]);
        roots[std::min(lo1, lo2)] = parent;
        roots.erase(roots.begin() +
                    static_cast<long>(std::max(lo1, lo2)));
        P::poll();
    }

    // Sum of depth*weight over the tree (recursive chase), then free.
    int64_t checksum = 0;
    struct Walker
    {
        typename P::Frame &frame;
        int64_t &sum;
        void
        visit(HuffNode *node, int depth)
        {
            auto *raw = static_cast<HuffNode *>(frame.pin(3, node));
            HuffNode *left = raw->left, *right = raw->right;
            if (!left && !right)
                sum += raw->weight * depth;
            if (left)
                visit(left, depth + 1);
            if (right)
                visit(right, depth + 1);
            P::release(node);
        }
    } walker{frame, checksum};
    walker.visit(roots[0], 0);
    P::release(freq_h);
    return checksum;
}

// ===== GAP-like (CSR graph kernels) ========================================

/** Deterministic CSR graph built in policy-allocated arrays. */
template <typename P, template <typename, typename> class Acc>
struct CsrGraph
{
    size_t n, m;
    void *row_h, *col_h;

    CsrGraph(typename P::Frame &frame, size_t vertices, size_t degree)
        : n(vertices), m(vertices * degree)
    {
        row_h = P::alloc((n + 1) * 8);
        col_h = P::alloc(m * 8);
        Acc<P, int64_t> row(frame, 0, row_h), col(frame, 1, col_h);
        Rng rng(1234);
        for (size_t v = 0; v <= n; v++)
            row.store(v, static_cast<int64_t>(v * degree));
        for (size_t e = 0; e < m; e++)
            col.store(e, static_cast<int64_t>(rng.below(n)));
    }

    void
    destroy()
    {
        P::release(row_h);
        P::release(col_h);
    }
};

/** bfs: frontier-based breadth-first search. */
template <typename P, template <typename, typename> class Acc>
int64_t
bfsKernel(size_t scale)
{
    typename P::Frame frame;
    CsrGraph<P, Acc> g(frame, scale, 8);
    Acc<P, int64_t> row(frame, 0, g.row_h), col(frame, 1, g.col_h);
    void *depth_h = P::alloc(g.n * 8);
    Acc<P, int64_t> depth(frame, 2, depth_h);
    for (size_t v = 0; v < g.n; v++)
        depth.store(v, -1);

    std::vector<int64_t> frontier{0}, next;
    depth.store(0, 0);
    int64_t level = 0, reached = 1;
    while (!frontier.empty()) {
        level++;
        for (int64_t u : frontier) {
            const int64_t begin = row.load(static_cast<size_t>(u));
            const int64_t end = row.load(static_cast<size_t>(u) + 1);
            for (int64_t e = begin; e < end; e++) {
                const int64_t v = col.load(static_cast<size_t>(e));
                if (depth.load(static_cast<size_t>(v)) < 0) {
                    depth.store(static_cast<size_t>(v), level);
                    next.push_back(v);
                    reached++;
                }
            }
        }
        frontier.swap(next);
        next.clear();
        P::poll();
    }
    int64_t checksum = reached;
    for (size_t v = 0; v < g.n; v += 17)
        checksum += depth.load(v) * 3;
    P::release(depth_h);
    g.destroy();
    return checksum;
}

/** pr: pagerank power iterations (pull direction). */
template <typename P, template <typename, typename> class Acc>
int64_t
pagerankKernel(size_t scale)
{
    typename P::Frame frame;
    CsrGraph<P, Acc> g(frame, scale, 8);
    Acc<P, int64_t> row(frame, 0, g.row_h), col(frame, 1, g.col_h);
    void *rank_h = P::alloc(g.n * 8), *next_h = P::alloc(g.n * 8);
    Acc<P, double> rank(frame, 2, rank_h), next(frame, 3, next_h);
    for (size_t v = 0; v < g.n; v++)
        rank.store(v, 1.0 / static_cast<double>(g.n));
    for (int iter = 0; iter < 10; iter++) {
        for (size_t v = 0; v < g.n; v++) {
            double incoming = 0;
            const auto begin =
                static_cast<size_t>(row.load(v));
            const auto end = static_cast<size_t>(row.load(v + 1));
            for (size_t e = begin; e < end; e++)
                incoming += rank.load(
                    static_cast<size_t>(col.load(e)));
            next.store(v, 0.15 / static_cast<double>(g.n) +
                              0.85 * incoming / 8.0);
        }
        for (size_t v = 0; v < g.n; v++)
            rank.store(v, next.load(v));
        P::poll();
    }
    double checksum = 0;
    for (size_t v = 0; v < g.n; v++)
        checksum += rank.load(v);
    P::release(rank_h);
    P::release(next_h);
    g.destroy();
    return static_cast<int64_t>(checksum * 1e6);
}

/** sssp: Bellman-Ford rounds with implicit weight (v % 16 + 1). */
template <typename P, template <typename, typename> class Acc>
int64_t
ssspKernel(size_t scale)
{
    typename P::Frame frame;
    CsrGraph<P, Acc> g(frame, scale, 8);
    Acc<P, int64_t> row(frame, 0, g.row_h), col(frame, 1, g.col_h);
    void *dist_h = P::alloc(g.n * 8);
    Acc<P, int64_t> dist(frame, 2, dist_h);
    constexpr int64_t inf = 1 << 30;
    for (size_t v = 0; v < g.n; v++)
        dist.store(v, inf);
    dist.store(0, 0);
    for (int round = 0; round < 12; round++) {
        bool changed = false;
        for (size_t u = 0; u < g.n; u++) {
            const int64_t du = dist.load(u);
            if (du >= inf)
                continue;
            const auto begin = static_cast<size_t>(row.load(u));
            const auto end = static_cast<size_t>(row.load(u + 1));
            for (size_t e = begin; e < end; e++) {
                const auto v = static_cast<size_t>(col.load(e));
                const int64_t w = static_cast<int64_t>(v % 16) + 1;
                if (du + w < dist.load(v)) {
                    dist.store(v, du + w);
                    changed = true;
                }
            }
        }
        P::poll();
        if (!changed)
            break;
    }
    int64_t checksum = 0;
    for (size_t v = 0; v < g.n; v++) {
        const int64_t d = dist.load(v);
        checksum += (d < inf) ? d : 0;
    }
    P::release(dist_h);
    g.destroy();
    return checksum;
}

/** cc: connected components by label propagation. */
template <typename P, template <typename, typename> class Acc>
int64_t
ccKernel(size_t scale)
{
    typename P::Frame frame;
    CsrGraph<P, Acc> g(frame, scale, 4);
    Acc<P, int64_t> row(frame, 0, g.row_h), col(frame, 1, g.col_h);
    void *label_h = P::alloc(g.n * 8);
    Acc<P, int64_t> label(frame, 2, label_h);
    for (size_t v = 0; v < g.n; v++)
        label.store(v, static_cast<int64_t>(v));
    for (int round = 0; round < 10; round++) {
        bool changed = false;
        for (size_t u = 0; u < g.n; u++) {
            int64_t best = label.load(u);
            const auto begin = static_cast<size_t>(row.load(u));
            const auto end = static_cast<size_t>(row.load(u + 1));
            for (size_t e = begin; e < end; e++)
                best = std::min(
                    best,
                    label.load(static_cast<size_t>(col.load(e))));
            if (best < label.load(u)) {
                label.store(u, best);
                changed = true;
            }
        }
        P::poll();
        if (!changed)
            break;
    }
    int64_t checksum = 0;
    for (size_t v = 0; v < g.n; v++)
        checksum ^= label.load(v) * 2654435761u;
    P::release(label_h);
    g.destroy();
    return checksum;
}

// ===== NAS-like ============================================================

/** cg: conjugate-gradient-shaped sparse matvec iterations. */
template <typename P, template <typename, typename> class Acc>
int64_t
cgKernel(size_t scale)
{
    typename P::Frame frame;
    CsrGraph<P, Acc> g(frame, scale, 12);
    Acc<P, int64_t> row(frame, 0, g.row_h), col(frame, 1, g.col_h);
    void *x_h = P::alloc(g.n * 8), *y_h = P::alloc(g.n * 8);
    Acc<P, double> x(frame, 2, x_h), y(frame, 3, y_h);
    for (size_t v = 0; v < g.n; v++)
        x.store(v, 1.0 + static_cast<double>(v % 7));
    double norm = 0;
    for (int iter = 0; iter < 8; iter++) {
        norm = 0;
        for (size_t i = 0; i < g.n; i++) {
            double sum = 0;
            const auto begin = static_cast<size_t>(row.load(i));
            const auto end = static_cast<size_t>(row.load(i + 1));
            for (size_t e = begin; e < end; e++) {
                const auto j = static_cast<size_t>(col.load(e));
                sum += x.load(j) * (1.0 / (1.0 + double(j % 9)));
            }
            y.store(i, sum);
            norm += sum * sum;
        }
        const double inv = 1.0 / std::sqrt(norm + 1e-12);
        for (size_t i = 0; i < g.n; i++)
            x.store(i, y.load(i) * inv);
        P::poll();
    }
    P::release(x_h);
    P::release(y_h);
    g.destroy();
    return static_cast<int64_t>(norm * 1e3);
}

/** mg: 3D 7-point stencil smoothing (hoistable grid). */
template <typename P, template <typename, typename> class Acc>
int64_t
mgKernel(size_t scale)
{
    const size_t d = scale; // d^3 grid
    typename P::Frame frame;
    void *grid_h = P::alloc(d * d * d * 8);
    void *out_h = P::alloc(d * d * d * 8);
    Acc<P, double> grid(frame, 0, grid_h), out(frame, 1, out_h);
    auto at = [d](size_t i, size_t j, size_t k) {
        return (i * d + j) * d + k;
    };
    for (size_t i = 0; i < d * d * d; i++) {
        grid.store(i, static_cast<double>(i % 101) * 0.01);
        out.store(i, grid.load(i)); // boundary cells are copied back
    }
    for (int sweep = 0; sweep < 4; sweep++) {
        for (size_t i = 1; i + 1 < d; i++) {
            for (size_t j = 1; j + 1 < d; j++) {
                for (size_t k = 1; k + 1 < d; k++) {
                    const double v =
                        grid.load(at(i, j, k)) * 0.5 +
                        (grid.load(at(i - 1, j, k)) +
                         grid.load(at(i + 1, j, k)) +
                         grid.load(at(i, j - 1, k)) +
                         grid.load(at(i, j + 1, k)) +
                         grid.load(at(i, j, k - 1)) +
                         grid.load(at(i, j, k + 1))) /
                            12.0;
                    out.store(at(i, j, k), v);
                }
            }
            P::poll();
        }
        for (size_t i = 0; i < d * d * d; i++)
            grid.store(i, out.load(i));
    }
    double checksum = 0;
    for (size_t i = 0; i < d * d * d; i += 11)
        checksum += grid.load(i);
    P::release(grid_h);
    P::release(out_h);
    return static_cast<int64_t>(checksum * 1e3);
}

/** ep: embarrassingly parallel random tally (barely touches memory). */
template <typename P, template <typename, typename> class Acc>
int64_t
epKernel(size_t scale)
{
    typename P::Frame frame;
    void *tally_h = P::alloc(16 * 8);
    Acc<P, int64_t> tally(frame, 0, tally_h);
    for (size_t i = 0; i < 16; i++)
        tally.store(i, 0);
    Rng rng(55);
    for (size_t i = 0; i < scale; i++) {
        const double a = rng.real() * 2 - 1;
        const double b = rng.real() * 2 - 1;
        const double t = a * a + b * b;
        if (t <= 1.0) {
            const auto ring = static_cast<size_t>(t * 16.0);
            tally.store(ring, tally.load(ring) + 1);
        }
        if ((i & 0xffff) == 0)
            P::poll();
    }
    int64_t checksum = 0;
    for (size_t i = 0; i < 16; i++)
        checksum += tally.load(i) * static_cast<int64_t>(i + 1);
    P::release(tally_h);
    return checksum;
}

/** is: bucketed integer sort (NAS IS shape). */
template <typename P, template <typename, typename> class Acc>
int64_t
isKernel(size_t scale)
{
    const size_t n = scale;
    const size_t buckets = 1 << 10;
    typename P::Frame frame;
    void *keys_h = P::alloc(n * 8);
    void *count_h = P::alloc(buckets * 8);
    void *out_h = P::alloc(n * 8);
    Acc<P, int64_t> keys(frame, 0, keys_h), count(frame, 1, count_h),
        out(frame, 2, out_h);
    Rng rng(77);
    for (size_t i = 0; i < n; i++)
        keys.store(i, static_cast<int64_t>(rng.below(buckets)));
    for (int rep = 0; rep < 6; rep++) {
        for (size_t b = 0; b < buckets; b++)
            count.store(b, 0);
        for (size_t i = 0; i < n; i++) {
            const auto k = static_cast<size_t>(keys.load(i));
            count.store(k, count.load(k) + 1);
        }
        int64_t pos = 0;
        for (size_t b = 0; b < buckets; b++) {
            const int64_t c = count.load(b);
            count.store(b, pos);
            pos += c;
        }
        for (size_t i = 0; i < n; i++) {
            const auto k = static_cast<size_t>(keys.load(i));
            const int64_t p = count.load(k);
            out.store(static_cast<size_t>(p), keys.load(i));
            count.store(k, p + 1);
        }
        P::poll();
    }
    // Wrapping fold: unsigned, as signed overflow is undefined.
    uint64_t checksum = 0;
    for (size_t i = 0; i < n; i += 97)
        checksum = checksum * 31 + static_cast<uint64_t>(out.load(i));
    P::release(keys_h);
    P::release(count_h);
    P::release(out_h);
    return static_cast<int64_t>(checksum);
}

// ===== SPEC-like ===========================================================

/** mcf: sorting an array of pointers by dereferenced keys — the
 *  paper's "4 translations per comparison" case. */
template <typename P, template <typename, typename> class Acc>
int64_t
mcfSortKernel(size_t scale)
{
    struct Arc
    {
        int64_t cost;
        int64_t flow;
    };
    const size_t n = scale;
    typename P::Frame frame;
    Rng rng(3);
    std::vector<Arc *> arcs(n); // the pointer array lives in the app
    for (size_t i = 0; i < n; i++) {
        auto *arc = static_cast<Arc *>(P::alloc(sizeof(Arc)));
        auto *raw = static_cast<Arc *>(frame.pin(0, arc));
        raw->cost = static_cast<int64_t>(rng.below(1 << 24));
        raw->flow = static_cast<int64_t>(i);
        arcs[i] = arc;
    }
    for (int rep = 0; rep < 6; rep++) {
        // Perturb, then sort by (cost, flow) through the handles.
        for (size_t i = 0; i < n; i += 3) {
            auto *raw = static_cast<Arc *>(frame.pin(0, arcs[i]));
            raw->cost = (raw->cost * 1103515245 + 12345) & ((1 << 24) - 1);
        }
        std::sort(arcs.begin(), arcs.end(),
                  [&frame](Arc *a, Arc *b) {
                      auto *ra = static_cast<Arc *>(frame.pin(0, a));
                      auto *rb = static_cast<Arc *>(frame.pin(1, b));
                      if (ra->cost != rb->cost)
                          return ra->cost < rb->cost;
                      return ra->flow < rb->flow;
                  });
        P::poll();
    }
    int64_t checksum = 0;
    for (size_t i = 0; i < n; i++) {
        auto *raw = static_cast<Arc *>(frame.pin(0, arcs[i]));
        checksum += raw->cost * static_cast<int64_t>(i % 5);
        P::release(arcs[i]);
    }
    return checksum;
}

/** lbm: two-grid stream/collide over a large array (fully hoistable —
 *  the paper's best case). */
template <typename P, template <typename, typename> class Acc>
int64_t
lbmKernel(size_t scale)
{
    const size_t d = scale;
    const size_t cells = d * d;
    typename P::Frame frame;
    void *a_h = P::alloc(cells * 9 * 8);
    void *b_h = P::alloc(cells * 9 * 8);
    {
        Acc<P, double> init(frame, 0, a_h);
        for (size_t i = 0; i < cells * 9; i++)
            init.store(i, 1.0 / 9.0);
    }
    const int dx[9] = {0, 1, -1, 0, 0, 1, -1, 1, -1};
    const int dy[9] = {0, 0, 0, 1, -1, 1, -1, -1, 1};
    for (int step = 0; step < 6; step++) {
        // Translations hoisted to the outermost (time-step) loop.
        Acc<P, double> src(frame, 0, (step % 2 == 0) ? a_h : b_h);
        Acc<P, double> dst(frame, 1, (step % 2 == 0) ? b_h : a_h);
        for (size_t y = 1; y + 1 < d; y++) {
            for (size_t x = 1; x + 1 < d; x++) {
                const size_t cell = y * d + x;
                double rho = 0;
                for (int q = 0; q < 9; q++)
                    rho += src.load(cell * 9 + q);
                for (int q = 0; q < 9; q++) {
                    const size_t to =
                        (y + dy[q]) * d + (x + dx[q]);
                    const double eq = rho / 9.0;
                    dst.store(to * 9 + q,
                              src.load(cell * 9 + q) * 0.4 + eq * 0.6);
                }
            }
            P::poll();
        }
    }
    double checksum = 0;
    {
        Acc<P, double> fin(frame, 0, a_h);
        for (size_t i = 0; i < cells * 9; i += 13)
            checksum += fin.load(i);
    }
    P::release(a_h);
    P::release(b_h);
    return static_cast<int64_t>(checksum);
}

/** xalancbmk: a DOM-ish tree of small nodes walked with per-node
 *  translations (short translation lifetimes, no hoisting). */
template <typename P, template <typename, typename> class Acc>
int64_t
xalancTreeKernel(size_t scale)
{
    struct TreeNode
    {
        int64_t tag;
        TreeNode *child[4]; ///< maybe-handles
    };
    typename P::Frame frame;
    Rng rng(13);
    // Build a random 4-ary tree of `scale` nodes.
    std::vector<TreeNode *> nodes;
    nodes.reserve(scale);
    for (size_t i = 0; i < scale; i++) {
        auto *node =
            static_cast<TreeNode *>(P::alloc(sizeof(TreeNode)));
        auto *raw = static_cast<TreeNode *>(frame.pin(0, node));
        raw->tag = static_cast<int64_t>(rng.below(64));
        for (auto &child : raw->child)
            child = nullptr;
        if (i > 0) {
            TreeNode *parent = nodes[rng.below(i)];
            auto *praw = static_cast<TreeNode *>(frame.pin(1, parent));
            praw->child[rng.below(4)] = node;
        }
        nodes.push_back(node);
    }
    // Repeated DFS with tag-dependent work (virtual-dispatch-ish).
    // Wrapping fold: unsigned, as signed overflow is undefined.
    uint64_t checksum = 0;
    for (int rep = 0; rep < 10; rep++) {
        std::vector<TreeNode *> stack{nodes[0]};
        while (!stack.empty()) {
            TreeNode *node = stack.back();
            stack.pop_back();
            auto *raw = static_cast<TreeNode *>(frame.pin(0, node));
            const auto tag = static_cast<uint64_t>(raw->tag);
            switch (tag & 3) {
              case 0: checksum += tag; break;
              case 1: checksum ^= tag << 3; break;
              case 2: checksum -= tag * 7; break;
              default: checksum = checksum * 31 + tag; break;
            }
            for (TreeNode *child : raw->child) {
                if (child)
                    stack.push_back(child);
            }
        }
        P::poll();
    }
    for (TreeNode *node : nodes)
        P::release(node);
    return static_cast<int64_t>(checksum);
}

/** xz: LZ77-style window matching over one big buffer (hoistable). */
template <typename P, template <typename, typename> class Acc>
int64_t
xzMatchKernel(size_t scale)
{
    const size_t n = scale;
    typename P::Frame frame;
    void *buf_h = P::alloc(n);
    Acc<P, uint8_t> buf(frame, 0, buf_h);
    Rng rng(21);
    for (size_t i = 0; i < n; i++) {
        // Compressible-ish: repeatable runs with noise.
        buf.store(i, static_cast<uint8_t>((i / 64) * 7 +
                                          (rng.below(16) == 0)));
    }
    int64_t total_match = 0;
    const size_t window = 1 << 10;
    for (size_t pos = window; pos < n; pos += 37) {
        size_t best = 0;
        for (size_t back = 1; back < window; back += 13) {
            size_t len = 0;
            while (len < 64 && pos + len < n &&
                   buf.load(pos + len) == buf.load(pos - back + len)) {
                len++;
            }
            best = std::max(best, len);
        }
        total_match += static_cast<int64_t>(best);
        if ((pos & 0x3fff) == 0)
            P::poll();
    }
    P::release(buf_h);
    return total_match;
}

/** deepsjeng: transposition-table probe/store churn (hashed random
 *  access into one table). */
template <typename P, template <typename, typename> class Acc>
int64_t
deepsjengTtKernel(size_t scale)
{
    const size_t entries = 1 << 16;
    typename P::Frame frame;
    void *tt_h = P::alloc(entries * 2 * 8); // key, score pairs
    Acc<P, int64_t> tt(frame, 0, tt_h);
    for (size_t i = 0; i < entries * 2; i++)
        tt.store(i, 0);
    Rng rng(17);
    int64_t hits = 0;
    for (size_t i = 0; i < scale; i++) {
        const auto key = static_cast<int64_t>(rng.next() >> 1);
        const auto slot =
            static_cast<size_t>(key) & (entries - 1);
        if (tt.load(slot * 2) == key) {
            hits += tt.load(slot * 2 + 1);
        } else {
            tt.store(slot * 2, key);
            tt.store(slot * 2 + 1, key % 997);
        }
        if ((i & 0xfff) == 0)
            P::poll();
    }
    P::release(tt_h);
    return hits;
}

/** imagick: 2D 5x5 convolution (hoistable). */
template <typename P, template <typename, typename> class Acc>
int64_t
imagickConvKernel(size_t scale)
{
    const size_t d = scale;
    typename P::Frame frame;
    void *img_h = P::alloc(d * d * 8);
    void *out_h = P::alloc(d * d * 8);
    Acc<P, double> img(frame, 0, img_h), out(frame, 1, out_h);
    for (size_t i = 0; i < d * d; i++) {
        img.store(i, static_cast<double>((i * 131) % 255));
        out.store(i, img.load(i)); // border pixels are copied back
    }
    for (int pass = 0; pass < 3; pass++) {
        for (size_t y = 2; y + 2 < d; y++) {
            for (size_t x = 2; x + 2 < d; x++) {
                double acc = 0;
                for (int ky = -2; ky <= 2; ky++) {
                    for (int kx = -2; kx <= 2; kx++) {
                        acc += img.load((y + ky) * d + (x + kx)) *
                               (1.0 / (1 + std::abs(ky) + std::abs(kx)));
                    }
                }
                out.store(y * d + x, acc / 25.0);
            }
            P::poll();
        }
        for (size_t i = 0; i < d * d; i++)
            img.store(i, out.load(i));
    }
    double checksum = 0;
    for (size_t i = 0; i < d * d; i += 7)
        checksum += img.load(i);
    P::release(img_h);
    P::release(out_h);
    return static_cast<int64_t>(checksum);
}

} // namespace alaska::kernels

#endif // ALASKA_KERNELS_KERNELS_H
