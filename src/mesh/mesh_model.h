/**
 * @file
 * A model of Mesh (Powers et al., PLDI 2019), the paper's strongest
 * non-mobile baseline.
 *
 * Mesh places same-size-class objects at *randomized* slot offsets
 * within page-sized spans. A background pass probes random span pairs;
 * when two spans' occupied slots are disjoint, their virtual pages are
 * "meshed" onto one physical frame, halving their residency without
 * moving any virtual address. Objects never move in virtual space —
 * which is also why Mesh cannot beat handle-based compaction when
 * occupancy is high or object sizes are skewed (Figure 11).
 *
 * This model reproduces the allocation policy, the randomized meshing
 * pass, and the page accounting: a mesh releases the losing span's
 * frame (AddressSpace::discard), since the model never touches a
 * meshed-away span again. It does not reproduce the kernel remapping
 * machinery, which only affects how, not whether, frames are shared.
 */

#ifndef ALASKA_MESH_MESH_MODEL_H
#define ALASKA_MESH_MESH_MODEL_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "alloc_sim/alloc_model.h"
#include "base/rng.h"
#include "sim/address_space.h"

namespace alaska
{

/** Mesh-like meshing allocator model. */
class MeshModel : public AllocModel
{
  public:
    /** Span size: one page, as in Mesh's MiniHeaps. */
    static constexpr size_t spanBytes = 4096;
    /** Largest size served from spans. */
    static constexpr size_t maxSmall = 2048;

    explicit MeshModel(uint64_t seed = Rng::defaultSeed,
                       AddressSpace *space = nullptr)
        : rng_(seed)
    {
        if (space) {
            space_ = space;
        } else {
            owned_ = std::make_unique<PhantomAddressSpace>();
            space_ = owned_.get();
        }
    }

    uint64_t alloc(size_t size) override;
    void free(uint64_t token) override;
    size_t rss() const override { return space_->rss(); }
    size_t activeBytes() const override { return active_; }
    const char *name() const override { return "mesh"; }

    /** One randomized meshing pass (the background thread's beat). */
    void maintain() override { meshPass(); }

    /** Number of successful meshes so far. */
    size_t meshCount() const { return meshes_; }

    /** Pairs probed per class per maintain() call. */
    void setProbeBudget(int probes) { probeBudget_ = probes; }

  private:
    struct Span
    {
        uint64_t base = 0;
        int cls = 0;
        uint32_t slots = 0;
        uint32_t liveSlots = 0;
        /** Occupancy bitmap; 4096/16 = 256 slots max -> 4 words. */
        std::array<uint64_t, 4> bitmap{};
        /** If meshed away, the span now holding our slots. */
        Span *meshedInto = nullptr;
        bool allocatable = true;

        bool full() const { return liveSlots == slots; }
    };

    static int classOf(size_t size);
    static size_t classSize(int cls);

    Span *rootOf(Span *span);
    uint64_t allocLarge(size_t size);
    void meshPass();
    /** Try to mesh spans a and b; true on success. */
    bool tryMesh(Span *a, Span *b);

    AddressSpace *space_ = nullptr;
    std::unique_ptr<PhantomAddressSpace> owned_;
    Rng rng_;
    /** Per class: all allocatable spans (may contain full ones). */
    std::vector<std::vector<Span *>> bins_ =
        std::vector<std::vector<Span *>>(8);
    /** Per class: the span currently being filled (Mesh "attaches" a
     *  MiniHeap and fills it before moving on). */
    std::vector<Span *> attached_ = std::vector<Span *>(8, nullptr);
    /** Span lookup by base address (ordered: interior lookups). */
    std::map<uint64_t, std::unique_ptr<Span>> spans_;
    std::unordered_map<uint64_t, size_t> large_;
    size_t active_ = 0;
    size_t meshes_ = 0;
    int probeBudget_ = 64;
};

} // namespace alaska

#endif // ALASKA_MESH_MESH_MODEL_H
