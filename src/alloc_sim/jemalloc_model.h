/**
 * @file
 * A jemalloc-like slab allocator model with the defrag-hint API that
 * Redis's activedefrag is built on.
 *
 * Small allocations live in fixed-size-class slabs (16 KiB runs); a
 * fully-empty slab is returned to the kernel. The model exposes
 * shouldMove(): true when a token sits in a sparse slab and denser
 * slabs of the same class could absorb it — the application (the
 * activedefrag port in kv::CacheWorkload) then reallocates the object,
 * which this model serves densest-slab-first so the sparse slab drains
 * and its pages are released. This is the mechanism behind the paper's
 * "activedefrag" curve in Figures 9 and 11.
 */

#ifndef ALASKA_ALLOC_SIM_JEMALLOC_MODEL_H
#define ALASKA_ALLOC_SIM_JEMALLOC_MODEL_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "alloc_sim/alloc_model.h"
#include "sim/address_space.h"

namespace alaska
{

/** jemalloc-like allocator model with defrag hints. */
class JemallocModel : public AllocModel
{
  public:
    /** Slab size (one jemalloc "run"). */
    static constexpr size_t slabBytes = 16384;
    /** Largest size served from slabs; bigger goes to page runs. */
    static constexpr size_t maxSmall = 3584;

    /**
     * @param space where slabs live. Over a RealAddressSpace the
     * tokens are usable memory (the real minikv runs on it); default
     * is an owned phantom space (accounting only).
     */
    explicit JemallocModel(AddressSpace *space = nullptr)
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
    const char *name() const override { return "jemalloc"; }

    /** Defrag hint (see file comment). */
    bool shouldMove(uint64_t token) const override;

    /** Size class index for a small request; -1 if large. */
    static int classOf(size_t size);
    /** Byte size of class c. */
    static size_t classSize(int cls);
    /** Number of small size classes. */
    static int numClasses();

  private:
    struct Slab
    {
        uint64_t base = 0;
        int cls = 0;
        uint32_t slots = 0;
        uint32_t liveSlots = 0;
        /** Current occupancy decile (0..9), for bin bucketing. */
        int decile = 0;
        std::vector<uint64_t> bitmap;

        bool full() const { return liveSlots == slots; }
        bool empty() const { return liveSlots == 0; }
        double
        occupancy() const
        {
            return static_cast<double>(liveSlots) /
                   static_cast<double>(slots);
        }
    };

    /** Per-class bin: non-full slabs bucketed by occupancy decile. */
    struct Bin
    {
        /** Buckets hold possibly-stale slab base addresses (the slab
         *  may have been released or rebucketed); validated on pop. */
        std::array<std::vector<uint64_t>, 10> buckets;
        /** Exact count of non-full slabs per decile. */
        std::array<int, 10> counts{};
        /** Non-full slab count and their live-slot sum, for the
         *  bin-average occupancy the defrag hint compares against. */
        int nonFull = 0;
        int64_t liveInNonFull = 0;
    };

    uint64_t allocSmall(int cls);
    uint64_t allocLarge(size_t size);
    Slab *slabOf(uint64_t token) const;
    void rebucket(Slab *slab, bool was_full);
    static int decileOf(const Slab &slab);

    AddressSpace *space_ = nullptr;
    std::unique_ptr<PhantomAddressSpace> owned_;
    std::vector<Bin> bins_ = std::vector<Bin>(numClasses());
    /** Slab lookup by base address (ordered: interior lookups). */
    std::map<uint64_t, std::unique_ptr<Slab>> slabs_;
    /** Live large allocations (token -> page-aligned size). */
    std::unordered_map<uint64_t, size_t> large_;
    size_t active_ = 0;
};

} // namespace alaska

#endif // ALASKA_ALLOC_SIM_JEMALLOC_MODEL_H
