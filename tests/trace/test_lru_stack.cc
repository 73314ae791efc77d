/** @file Unit and property tests for the Fenwick LRU stack. */

#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "trace/lru_stack.hh"
#include "util/random.hh"

namespace mlc {
namespace trace {
namespace {

using Ids = std::vector<std::uint32_t>;

/** Reference semantics: moveToFront(d) == pushFront(removeAt(d)). */
std::uint32_t
dequeMoveToFront(std::deque<std::uint32_t> &ref, std::size_t depth)
{
    const std::uint32_t v = ref[depth];
    ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(depth));
    ref.push_front(v);
    return v;
}

TEST(LruStack, StartsEmpty)
{
    LruStack s;
    EXPECT_EQ(s.size(), 0u);
    EXPECT_TRUE(s.toVector().empty());
}

TEST(LruStack, PushFrontOrdering)
{
    LruStack s;
    s.pushFront(1);
    s.pushFront(2);
    s.pushFront(3);
    EXPECT_EQ(s.toVector(), (Ids{3, 2, 1}));
    EXPECT_EQ(s.moveToFront(0), 3u);
}

TEST(LruStack, BulkBuildMatchesPushes)
{
    LruStack pushed;
    for (std::uint64_t g = 0; g < 100; ++g)
        pushed.pushFront(g);
    LruStack built(100);
    EXPECT_EQ(built.size(), 100u);
    EXPECT_EQ(built.toVector(), pushed.toVector());
    EXPECT_EQ(built.toVector().front(), 99u);
    EXPECT_EQ(built.toVector().back(), 0u);
    EXPECT_EQ(LruStack(0).size(), 0u);
}

TEST(LruStack, MoveToFrontReturnsAndShifts)
{
    LruStack s;
    for (std::uint64_t v : {40u, 30u, 20u, 10u})
        s.pushFront(v);
    EXPECT_EQ(s.moveToFront(1), 20u);
    EXPECT_EQ(s.size(), 4u);
    EXPECT_EQ(s.toVector(), (Ids{20, 10, 30, 40}));
}

TEST(LruStack, MoveToFront)
{
    LruStack s;
    for (std::uint64_t v : {5u, 4u, 3u, 2u, 1u})
        s.pushFront(v);
    // Reference the element at depth 3 (value 4), move to front.
    EXPECT_EQ(s.moveToFront(3), 4u);
    EXPECT_EQ(s.toVector(), (Ids{4, 1, 2, 3, 5}));
    // The deepest element, then the top (a no-op).
    EXPECT_EQ(s.moveToFront(4), 5u);
    EXPECT_EQ(s.moveToFront(0), 5u);
    EXPECT_EQ(s.toVector(), (Ids{5, 4, 1, 2, 3}));
}

TEST(LruStack, OutOfRangeDies)
{
    LruStack s;
    EXPECT_DEATH(s.moveToFront(0), "beyond size");
    s.pushFront(1);
    EXPECT_DEATH(s.moveToFront(1), "beyond size");
    EXPECT_DEATH(s.pushFront(LruStack::kMaxValue + 1),
                 "32-bit id limit");
    EXPECT_DEATH(LruStack(LruStack::kMaxValue + 2),
                 "32-bit id limit");
}

/** Property: the stack must agree with std::deque under a random
 *  mix of pushes and moves at uniform depths. */
TEST(LruStack, MatchesReferenceDeque)
{
    LruStack s;
    std::deque<std::uint32_t> ref;
    Rng rng(2024);
    for (int step = 0; step < 20000; ++step) {
        if (ref.empty() || rng.nextDouble() < 0.3) {
            const auto v = static_cast<std::uint32_t>(
                rng.nextBounded(LruStack::kMaxValue + 1));
            s.pushFront(v);
            ref.push_front(v);
        } else {
            const std::size_t d = static_cast<std::size_t>(
                rng.nextBounded(ref.size()));
            ASSERT_EQ(s.moveToFront(d), dequeMoveToFront(ref, d));
        }
        ASSERT_EQ(s.size(), ref.size());
    }
    EXPECT_EQ(s.toVector(), Ids(ref.begin(), ref.end()));
}

/** Edge churn at the two boundaries: grow by pushes, then cycle
 *  every element out of the bottom and back in at the top, with
 *  top no-ops mixed in, where off-by-one rank bugs like to hide. */
TEST(LruStack, BoundaryChurnMatchesDeque)
{
    LruStack s;
    std::deque<std::uint32_t> ref;
    Rng rng(4242);
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 8; ++i) {
            const auto v = static_cast<std::uint32_t>(rng.next());
            s.pushFront(v);
            ref.push_front(v);
        }
        const std::vector<std::uint32_t> before(ref.begin(),
                                                ref.end());
        for (std::size_t i = 0; i < before.size(); ++i) {
            if (rng.nextBool(0.3)) {
                ASSERT_EQ(s.moveToFront(0), ref.front());
            }
            ASSERT_EQ(s.moveToFront(ref.size() - 1),
                      dequeMoveToFront(ref, ref.size() - 1))
                << "round " << round;
        }
        // A full rotation through the bottom restores the order.
        ASSERT_EQ(s.toVector(), before) << "round " << round;
    }
}

/** Property across several compactions: a fixed-size stack under
 *  mostly shallow depths, as the generators draw them, checked
 *  against the deque after every move. */
TEST(LruStack, MatchesDequeAcrossCompactions)
{
    constexpr std::size_t kSize = 512;
    LruStack s(kSize);
    std::deque<std::uint32_t> ref;
    for (std::uint32_t g = 0; g < kSize; ++g)
        ref.push_front(g);
    Rng rng(99);
    std::size_t stamped = 0;
    for (std::size_t step = 0; step < 8 * kSize; ++step) {
        const std::size_t d =
            rng.nextBool(0.8)
                ? static_cast<std::size_t>(rng.nextBounded(8))
                : static_cast<std::size_t>(rng.nextBounded(kSize));
        stamped += d != 0;
        ASSERT_EQ(s.moveToFront(d), dequeMoveToFront(ref, d))
            << "step " << step;
    }
    EXPECT_EQ(s.toVector(), Ids(ref.begin(), ref.end()));
    // Every move below the top takes a fresh timestamp; the warm
    // build leaves kSize free and each compaction kSize + 1, so this
    // many stamps crossed at least three compactions.
    EXPECT_EQ(s.slots(), 2 * kSize);
    EXPECT_GE(stamped, 4 * (kSize + 1));
}

TEST(LruStack, SlotMemoryStaysWithinTwiceLiveCount)
{
    LruStack s;
    Rng rng(5);
    std::size_t violations = 0;
    for (std::uint64_t step = 0; step < 200'000; ++step) {
        if (s.size() == 0 || rng.nextBool(0.01))
            s.pushFront(step);
        else
            s.moveToFront(rng.nextBounded(s.size()));
        if (s.size() >= 8 && s.slots() > 2 * s.size())
            ++violations;
    }
    EXPECT_EQ(violations, 0u);
    // The warm build starts at exactly two slots per element.
    EXPECT_EQ(LruStack(1000).slots(), 2000u);
}

} // namespace
} // namespace trace
} // namespace mlc
