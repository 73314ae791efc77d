/**
 * @file
 * A bounded move-to-front sequence: the LRU stack behind the
 * synthetic data generators.
 *
 * Index 0 is the most recently used element. The generators need
 * exactly two operations — push a fresh granule on top, and
 * "reference the granule at depth d", which moves it to the top —
 * so this is not a general positional sequence.
 *
 * Representation: every element carries the timestamp of its last
 * move to the top; a Fenwick tree over timestamps holds one live
 * mark per element (the technique StackDistanceAnalyzer uses to
 * measure distances, run in reverse to realize them). Depth d is
 * the (d + 1)-th mark counting down from the newest timestamp,
 * found by a Fenwick descent that starts at the top end, so the
 * shallow depths the generators mostly draw stay in cache; moving
 * it clears that mark and re-stamps the value at the next
 * timestamp, O(log slots) either way. When the timestamps run out,
 * the live elements are renumbered 1..size in O(slots) and the slot
 * space is re-sized to twice the live count, so memory is at most
 * 2 slots x 8 bytes = 16 bytes per element.
 *
 * Values are 32-bit ids; the all-ones id marks a dead slot, so no
 * separate live array is needed. pushFront() panics on a value
 * beyond kMaxValue.
 */

#ifndef MLC_TRACE_LRU_STACK_HH
#define MLC_TRACE_LRU_STACK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace mlc {
namespace trace {

/** Move-to-front stack of 32-bit ids over a Fenwick tree. */
class LruStack
{
  public:
    /** Largest storable value (the next one is the dead sentinel). */
    static constexpr std::uint64_t kMaxValue = 0xfffffffeULL;

    /**
     * The stack that pushFront(0), pushFront(1), ...,
     * pushFront(n - 1) would leave (n - 1 on top), built in O(n).
     */
    explicit LruStack(std::uint64_t n = 0);

    std::size_t size() const { return live_; }

    /** Put @p value on top. Panics above kMaxValue. */
    void
    pushFront(std::uint64_t value)
    {
        if (value > kMaxValue)
            mlc_panic("LruStack: value ", value,
                      " exceeds the 32-bit id limit");
        stamp(static_cast<std::uint32_t>(value));
    }

    /**
     * Move the element at @p depth (0 = top) to the top and return
     * it; the same sequence as pushFront(removeAt(depth)). Panics
     * unless depth < size().
     */
    std::uint32_t
    moveToFront(std::uint64_t depth)
    {
        if (depth >= live_)
            mlc_panic("LruStack::moveToFront(", depth,
                      ") beyond size ", live_);
        if (depth == 0)
            return values_[now_];
        const std::size_t t =
            findFromTop(static_cast<std::size_t>(depth) + 1);
        const std::uint32_t value = values_[t];
        values_[t] = kDead;
        if (now_ == slots()) {
            // Out of timestamps: compaction rebuilds the tree from
            // values_, so the dead slot needs no Fenwick update.
            --live_;
            stamp(value);
        } else {
            values_[++now_] = value;
            moveMark(t, now_);
        }
        return value;
    }

    /** Contents from the top down; O(slots), for tests and tools. */
    std::vector<std::uint32_t> toVector() const;

    /** Timestamp slots allocated (8 bytes each, <= 2 x size()
     *  once the stack holds more than a handful of elements). */
    std::size_t slots() const { return fenwick_.size() - 1; }

  private:
    static constexpr std::uint32_t kDead = 0xffffffffu;
    static constexpr std::size_t kMinSlots = 16;

    /** Fenwick node @p i covers timestamps (i - lowbit(i), i]. */
    static std::size_t lowbit(std::size_t i) { return i & (~i + 1); }

    /** Write @p value at the next timestamp and mark it live. */
    void
    stamp(std::uint32_t value)
    {
        if (now_ == slots())
            compact();
        values_[++now_] = value;
        for (std::size_t i = now_; i <= slots(); i += lowbit(i))
            ++fenwick_[i];
        ++live_;
    }

    /**
     * Move one live mark from timestamp @p from to @p to (> from).
     * The update paths up from the two slots merge at the lowest
     * node covering both; above it the -1 and +1 cancel, so a
     * shallow move touches O(log(to - from)) nodes, not O(log
     * slots).
     */
    void
    moveMark(std::size_t from, std::size_t to)
    {
        const std::size_t n = slots();
        // Up from `to` until the first node whose range reaches
        // back over `from`: that node is where the paths merge.
        std::size_t k = to;
        for (; k <= n && k - lowbit(k) >= from; k += lowbit(k))
            ++fenwick_[k];
        const std::size_t merge = k <= n ? k : n + 1;
        for (std::size_t i = from; i < merge; i += lowbit(i))
            --fenwick_[i];
    }

    /** Timestamp of the @p need-th live mark counting down from
     *  the top (1 = the top itself). */
    std::size_t
    findFromTop(std::size_t need) const
    {
        const std::uint32_t *fen = fenwick_.data();
        // Fenwick blocks ending at now_ tile (0, now_]; walk them
        // right to left until one holds the target...
        std::size_t i = now_;
        while (fen[i] < need) {
            need -= fen[i];
            i -= lowbit(i);
        }
        // ...then halve that block: node i - half covers its left
        // half, so the right half's count is the difference.
        std::size_t count = fen[i];
        for (std::size_t half = lowbit(i) >> 1; half != 0; half >>= 1) {
            const std::size_t left = fen[i - half];
            const std::size_t right = count - left;
            const bool in_left = need > right;
            need -= in_left ? right : 0;
            i -= in_left ? half : 0;
            count = in_left ? left : right;
        }
        return i;
    }

    /** Renumber the live elements 1..size() and re-size the slot
     *  space to 2 x (size() + 1), making room for one more stamp. */
    void compact();

    /** Give values_[1..now_] (all live) @p slots timestamps and
     *  rebuild the Fenwick tree over them in O(slots). */
    void resizeSlots(std::size_t slots);

    // values_[t] is the element stamped at timestamp t, or kDead;
    // fenwick_ counts live marks. Both are 1-based: index 0 unused.
    std::vector<std::uint32_t> values_{kDead};
    std::vector<std::uint32_t> fenwick_{0};
    std::size_t now_ = 0; //!< latest timestamp: the top element
    std::size_t live_ = 0;
};

} // namespace trace
} // namespace mlc

#endif // MLC_TRACE_LRU_STACK_HH
