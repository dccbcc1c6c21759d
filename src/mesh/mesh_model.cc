#include "mesh/mesh_model.h"

#include "base/logging.h"

namespace alaska
{

namespace
{

constexpr size_t meshClasses[] = {16, 32, 64, 128, 256, 512, 1024, 2048};
constexpr int nMeshClasses =
    static_cast<int>(sizeof(meshClasses) / sizeof(meshClasses[0]));

bool
bitGet(const std::array<uint64_t, 4> &bits, uint32_t i)
{
    return bits[i >> 6] & (UINT64_C(1) << (i & 63));
}

void
bitSet(std::array<uint64_t, 4> &bits, uint32_t i)
{
    bits[i >> 6] |= (UINT64_C(1) << (i & 63));
}

void
bitClear(std::array<uint64_t, 4> &bits, uint32_t i)
{
    bits[i >> 6] &= ~(UINT64_C(1) << (i & 63));
}

bool
disjoint(const std::array<uint64_t, 4> &a, const std::array<uint64_t, 4> &b)
{
    for (int w = 0; w < 4; w++) {
        if (a[w] & b[w])
            return false;
    }
    return true;
}

} // anonymous namespace

int
MeshModel::classOf(size_t size)
{
    if (size > maxSmall)
        return -1;
    for (int c = 0; c < nMeshClasses; c++) {
        if (meshClasses[c] >= size)
            return c;
    }
    return -1;
}

size_t
MeshModel::classSize(int cls)
{
    return meshClasses[cls];
}

MeshModel::Span *
MeshModel::rootOf(Span *span)
{
    // Path-compressed walk of the mesh chain.
    Span *root = span;
    while (root->meshedInto)
        root = root->meshedInto;
    while (span->meshedInto) {
        Span *next = span->meshedInto;
        span->meshedInto = root;
        span = next;
    }
    return root;
}

uint64_t
MeshModel::allocLarge(size_t size)
{
    const size_t page = space_->pages().pageSize();
    const size_t need = (size + page - 1) / page * page;
    const uint64_t addr = space_->map(need);
    large_.emplace(addr, need);
    active_ += need;
    space_->touch(addr, need);
    return addr;
}

uint64_t
MeshModel::alloc(size_t size)
{
    if (size == 0)
        size = 1;
    const int cls = classOf(size);
    if (cls < 0)
        return allocLarge(size);

    auto &bin = bins_[cls];
    // Mesh's allocation: fill the *attached* span (random slot within
    // it — the randomization that makes meshing probable) until it is
    // full, then attach the densest partial span found by bounded
    // random probing. Dead spans encountered while probing are
    // swap-removed so the bin stays densely allocatable under churn.
    Span *span = attached_[cls];
    if (span && (span->meshedInto || !span->allocatable ||
                 span->full())) {
        span = nullptr;
    }
    if (!span) {
        for (int probe = 0; probe < 16 && !bin.empty(); probe++) {
            const size_t idx = rng_.below(bin.size());
            Span *cand = bin[idx];
            if (cand->meshedInto || !cand->allocatable) {
                bin[idx] = bin.back();
                bin.pop_back();
                continue;
            }
            if (cand->full())
                continue;
            if (!span || cand->liveSlots > span->liveSlots)
                span = cand;
        }
        attached_[cls] = span;
    }
    if (!span) {
        auto fresh = std::make_unique<Span>();
        fresh->base = space_->map(spanBytes);
        fresh->cls = cls;
        fresh->slots = static_cast<uint32_t>(spanBytes / classSize(cls));
        span = fresh.get();
        spans_.emplace(fresh->base, std::move(fresh));
        bin.push_back(span);
        attached_[cls] = span;
    }

    // Random free slot.
    uint32_t slot;
    do {
        slot = static_cast<uint32_t>(rng_.below(span->slots));
    } while (bitGet(span->bitmap, slot));
    bitSet(span->bitmap, slot);
    span->liveSlots++;

    const uint64_t token = span->base + slot * classSize(cls);
    active_ += classSize(cls);
    // Physical write lands on the root's frame if meshed (it is not:
    // allocatable spans are never meshed losers).
    space_->touch(token, classSize(cls));
    return token;
}

void
MeshModel::free(uint64_t token)
{
    auto large_it = large_.find(token);
    if (large_it != large_.end()) {
        active_ -= large_it->second;
        space_->unmap(token, large_it->second);
        large_.erase(large_it);
        return;
    }

    auto it = spans_.upper_bound(token);
    ALASKA_ASSERT(it != spans_.begin(), "free of unknown token");
    --it;
    ALASKA_ASSERT(token < it->first + spanBytes,
                  "free of unknown token");
    Span *span = it->second.get();
    Span *root = rootOf(span);
    const size_t csize = classSize(span->cls);
    const auto slot = static_cast<uint32_t>((token - span->base) / csize);

    // Slots of meshed spans live at the same offsets in the root frame.
    ALASKA_ASSERT(bitGet(root->bitmap, slot), "double free");
    bitClear(root->bitmap, slot);
    root->liveSlots--;
    active_ -= csize;

    if (root->liveSlots == 0) {
        // Frame fully free: release it. Virtual spans stay retired.
        space_->discard(root->base, spanBytes);
        root->allocatable = false;
    }
}

bool
MeshModel::tryMesh(Span *a, Span *b)
{
    if (a == b || a->meshedInto || b->meshedInto)
        return false;
    if (!a->allocatable || !b->allocatable)
        return false;
    if (a->liveSlots == 0 || b->liveSlots == 0)
        return false;
    if (!disjoint(a->bitmap, b->bitmap))
        return false;

    // Mesh b onto a: union the occupancy and release b's frame. b's
    // objects now live in a's frame at the same offsets; the model never
    // allocates from or touches b's virtual span again (its frees go
    // through rootOf()), so releasing the frame is the whole RSS effect
    // of the remap.
    for (int w = 0; w < 4; w++)
        a->bitmap[w] |= b->bitmap[w];
    a->liveSlots += b->liveSlots;
    b->liveSlots = 0;
    b->meshedInto = a;
    b->allocatable = false;
    space_->discard(b->base, spanBytes);
    meshes_++;
    return true;
}

void
MeshModel::meshPass()
{
    for (int cls = 0; cls < nMeshClasses; cls++) {
        auto &bin = bins_[cls];
        // Compact the bin (dropping dead/meshed spans) while gathering
        // mesh candidates.
        std::vector<Span *> keep;
        std::vector<Span *> candidates;
        keep.reserve(bin.size());
        candidates.reserve(bin.size());
        for (Span *span : bin) {
            if (span->meshedInto || !span->allocatable)
                continue;
            keep.push_back(span);
            if (span->liveSlots > 0 && !span->full())
                candidates.push_back(span);
        }
        bin.swap(keep);
        if (candidates.size() < 2)
            continue;
        // Randomized pair probing, as in Mesh's SplitMesher.
        for (int probe = 0; probe < probeBudget_; probe++) {
            Span *a = candidates[rng_.below(candidates.size())];
            Span *b = candidates[rng_.below(candidates.size())];
            tryMesh(a, b);
        }
    }
}

} // namespace alaska
