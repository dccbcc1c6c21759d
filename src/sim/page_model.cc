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
PageModel::findLeaf(uint64_t frame) const
{
    const uint64_t top = frame >> (leafBits + midBits);
    if (top >= std::size(top_))
        return nullptr;
    Mid *mid = top_[top].load(std::memory_order_acquire);
    if (mid == nullptr)
        return nullptr;
    return mid->leaves[(frame >> leafBits) & lowBits(midBits)].load(
        std::memory_order_acquire);
}

PageModel::Leaf &
PageModel::leafFor(uint64_t frame)
{
    const uint64_t top = frame >> (leafBits + midBits);
    if (top >= std::size(top_))
        fatal("PageModel: address %#llx is beyond the modelled range",
              static_cast<unsigned long long>(frame * pageSize_));
    Mid &mid = childFor(top_[top]);
    return childFor(mid.leaves[(frame >> leafBits) & lowBits(midBits)]);
}

void
PageModel::markFrames(uint64_t begin, uint64_t end, bool resident)
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

uint64_t
PageModel::frameOf(uint64_t vpage) const
{
    if (__builtin_expect(
            aliasCount_.load(std::memory_order_acquire) == 0, 1))
        return vpage;
    std::lock_guard<std::mutex> guard(aliasMutex_);
    auto it = aliases_.find(vpage);
    return it == aliases_.end() ? vpage : it->second;
}

void
PageModel::markPages(uint64_t begin, uint64_t end, bool resident)
{
    if (__builtin_expect(
            aliasCount_.load(std::memory_order_acquire) == 0, 1)) {
        markFrames(begin, end, resident);
        return;
    }
    for (uint64_t p = begin; p < end; p++) {
        const uint64_t frame = frameOf(p);
        markFrames(frame, frame + 1, resident);
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

void
PageModel::alias(uint64_t vpage_addr, uint64_t target_page_addr)
{
    std::lock_guard<std::mutex> alias_guard(aliasMutex_);
    const uint64_t vpage = vpage_addr / pageSize_;
    // Resolve the target under the lock so chained aliases collapse to
    // the root frame at insertion time.
    auto target_it = aliases_.find(target_page_addr / pageSize_);
    const uint64_t target = target_it == aliases_.end()
                                ? target_page_addr / pageSize_
                                : target_it->second;
    auto vpage_it = aliases_.find(vpage);
    const uint64_t old_frame =
        vpage_it == aliases_.end() ? vpage : vpage_it->second;
    if (old_frame == target)
        return;
    // Publish the mapping before releasing the old frame: a touch
    // racing this call then lands on the shared frame (or, pre-publish,
    // transiently re-sets the bit we are about to clear — an
    // overcount, never an undercount).
    aliases_[vpage] = target;
    aliasCount_.store(aliases_.size(), std::memory_order_release);
    markFrames(old_frame, old_frame + 1, false);
}

void
PageModel::unalias(uint64_t vpage_addr)
{
    std::lock_guard<std::mutex> alias_guard(aliasMutex_);
    const uint64_t vpage = vpage_addr / pageSize_;
    if (aliases_.erase(vpage) == 0)
        return;
    aliasCount_.store(aliases_.size(), std::memory_order_release);
    // The split fault's private copy is resident from birth.
    markFrames(vpage, vpage + 1, true);
}

size_t
PageModel::aliasedPages() const
{
    return aliasCount_.load(std::memory_order_acquire);
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
    const uint64_t frame = frameOf(addr / pageSize_);
    const Leaf *leaf = findLeaf(frame);
    if (leaf == nullptr)
        return false;
    const uint64_t word =
        leaf->words[(frame & lowBits(leafBits)) / 64].load(
            std::memory_order_relaxed);
    return (word >> (frame & 63)) & 1;
}

} // namespace alaska
