#include "trace/lru_stack.hh"

#include <algorithm>

namespace mlc {
namespace trace {

LruStack::LruStack(std::uint64_t n)
{
    if (n > kMaxValue + 1)
        mlc_panic("LruStack: ", n,
                  " elements exceed the 32-bit id limit");
    const auto count = static_cast<std::size_t>(n);
    values_.reserve(std::max(2 * count, kMinSlots) + 1);
    for (std::size_t g = 0; g < count; ++g)
        values_.push_back(static_cast<std::uint32_t>(g));
    now_ = count;
    live_ = count;
    resizeSlots(2 * count);
}

void
LruStack::compact()
{
    // Slide the live values down over the dead slots; recency order
    // is timestamp order, so it survives the renumbering.
    std::size_t w = 0;
    for (std::size_t t = 1; t <= now_; ++t)
        if (values_[t] != kDead)
            values_[++w] = values_[t];
    now_ = w;
    resizeSlots(2 * (live_ + 1));
}

void
LruStack::resizeSlots(std::size_t slots)
{
    slots = std::max(slots, kMinSlots);
    // Reserve exactly, so a growth step never over-allocates.
    values_.reserve(slots + 1);
    values_.resize(slots + 1);
    std::fill(values_.begin() + static_cast<std::ptrdiff_t>(now_) + 1,
              values_.end(), kDead);

    // Node i covers timestamps (i - lowbit(i), i]; with marks at
    // exactly 1..now_ its count has a closed form.
    fenwick_.reserve(slots + 1);
    fenwick_.resize(slots + 1);
    fenwick_[0] = 0;
    for (std::size_t i = 1; i <= slots; ++i) {
        const std::size_t first = i - lowbit(i);
        fenwick_[i] = static_cast<std::uint32_t>(
            now_ > first ? std::min(lowbit(i), now_ - first) : 0);
    }
}

std::vector<std::uint32_t>
LruStack::toVector() const
{
    std::vector<std::uint32_t> out;
    out.reserve(live_);
    for (std::size_t t = now_; t > 0; --t)
        if (values_[t] != kDead)
            out.push_back(values_[t]);
    return out;
}

} // namespace trace
} // namespace mlc
