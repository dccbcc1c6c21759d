#include "sim/page_model.h"

#include <algorithm>
#include <bit>
#include <iterator>

#include "base/logging.h"

namespace alaska
{

namespace
{

/** A mask of the low n bits. */
constexpr uint64_t lowBits(unsigned n)
{
    return (uint64_t{1} << n) - 1;
}

/**
 * The node in slot, creating it if absent: a racing creator that loses
 * the install CAS deletes its copy and uses the winner's.
 */
template <typename Node>
Node &
childFor(std::atomic<Node *> &slot)
{
    Node *node = slot.load(std::memory_order_acquire);
    if (__builtin_expect(node != nullptr, 1))
        return *node;
    auto *fresh = new Node{};
    if (slot.compare_exchange_strong(node, fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
        return *fresh;
    delete fresh;
    return *node;
}

} // anonymous namespace

PageModel::~PageModel()
{
    for (auto &top : top_) {
        Mid *mid = top.load(std::memory_order_relaxed);
        if (mid == nullptr)
            continue;
        for (auto &leaf : mid->leaves)
            delete leaf.load(std::memory_order_relaxed);
        delete mid;
    }
}

PageModel::Leaf *
PageModel::findLeaf(uint64_t page) const
{
    const uint64_t top = page >> (leafBits + midBits);
    if (top >= std::size(top_))
        return nullptr;
    Mid *mid = top_[top].load(std::memory_order_acquire);
    if (mid == nullptr)
        return nullptr;
    return mid->leaves[(page >> leafBits) & lowBits(midBits)].load(
        std::memory_order_acquire);
}

PageModel::Leaf &
PageModel::leafFor(uint64_t page)
{
    const uint64_t top = page >> (leafBits + midBits);
    if (top >= std::size(top_))
        fatal("PageModel: address %#llx is beyond the modelled range",
              static_cast<unsigned long long>(page * pageSize_));
    Mid &mid = childFor(top_[top]);
    return childFor(mid.leaves[(page >> leafBits) & lowBits(midBits)]);
}

void
PageModel::markPages(uint64_t begin, uint64_t end, bool resident)
{
    // Leaves hold a whole number of words, so no word straddles two.
    while (begin < end) {
        const uint64_t shift = begin & 63;
        const uint64_t n = std::min<uint64_t>(64 - shift, end - begin);
        const uint64_t mask =
            (n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1) << shift;
        Leaf *leaf = resident ? &leafFor(begin) : findLeaf(begin);
        const size_t index = (begin & lowBits(leafBits)) / 64;
        begin += n;
        if (leaf == nullptr)
            continue;
        std::atomic<uint64_t> &word = leaf->words[index];
        // Already in the wanted state (the common re-touch): one load,
        // no write.
        const uint64_t seen = word.load(std::memory_order_relaxed) & mask;
        if (seen == (resident ? mask : 0))
            continue;
        if (resident) {
            const uint64_t old =
                word.fetch_or(mask, std::memory_order_relaxed);
            if (const int flipped = std::popcount(mask & ~old))
                resident_.fetch_add(flipped, std::memory_order_relaxed);
        } else {
            const uint64_t old =
                word.fetch_and(~mask, std::memory_order_relaxed);
            if (const int flipped = std::popcount(mask & old))
                resident_.fetch_sub(flipped, std::memory_order_relaxed);
        }
    }
}

void
PageModel::touch(uint64_t addr, size_t len)
{
    if (len == 0)
        return;
    markPages(addr / pageSize_, (addr + len - 1) / pageSize_ + 1, true);
}

void
PageModel::discard(uint64_t addr, size_t len)
{
    if (len < pageSize_)
        return;
    // Only pages fully inside the range are released.
    markPages((addr + pageSize_ - 1) / pageSize_, (addr + len) / pageSize_,
              false);
}

size_t
PageModel::residentPages() const
{
    const int64_t n = resident_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<size_t>(n) : 0;
}

bool
PageModel::isResident(uint64_t addr) const
{
    const uint64_t page = addr / pageSize_;
    const Leaf *leaf = findLeaf(page);
    if (leaf == nullptr)
        return false;
    const uint64_t word =
        leaf->words[(page & lowBits(leafBits)) / 64].load(
            std::memory_order_relaxed);
    return (word >> (page & 63)) & 1;
}

} // namespace alaska
