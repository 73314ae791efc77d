/**
 * @file
 * Golden digests of the seeded synthetic streams.
 *
 * Seeded determinism is a contract: every figure, checkpoint key
 * and memoized server answer assumes that a generator re-created
 * with the same (params, seed) emits the same references. These
 * tests pin FNV-1a digests of the paper suite, the profile-driven
 * source and a cold-started data generator, so any change to the
 * generators' data structures must leave their output bit-identical.
 * Lengths are fixed here (not MLC_QUICK-scaled) so the digests do
 * not depend on the environment.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expt/workload_suite.hh"
#include "trace/interleave.hh"
#include "trace/synthetic.hh"
#include "trace/synthetic_source.hh"

namespace mlc {
namespace trace {
namespace {

/** FNV-1a, folded one little-endian field at a time. */
class Fnv
{
  public:
    void
    add(std::uint64_t v, unsigned bytes)
    {
        for (unsigned i = 0; i < bytes; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(const MemRef &r)
    {
        add(r.addr, 8);
        add(static_cast<std::uint64_t>(r.type), 1);
        add(r.size, 1);
        add(r.pid, 2);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
digest(const std::vector<MemRef> &refs)
{
    Fnv f;
    for (const MemRef &r : refs)
        f.add(r);
    return f.value();
}

TEST(GoldenStreams, PaperSuite)
{
    // Long enough that the deepest Pareto draws fold into the capped
    // footprint many times per process.
    constexpr std::uint64_t kRefs = 150'000;
    const std::vector<std::uint64_t> golden = {
        0x2eb821ca621af778ULL, 0xcc7c7acec68f1aefULL,
        0x0a9dca3f0687e772ULL, 0x94ff278e7108327bULL,
        0x9cf7326482dff797ULL, 0xc96c3c83527aac01ULL,
        0xf3a2c12c1e866826ULL, 0x5998dd4358e09a33ULL,
    };
    const auto suite = expt::paperSuite();
    ASSERT_EQ(suite.size(), golden.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const expt::TraceSpec &spec = suite[i];
        auto src = makeMultiprogrammedWorkload(
            spec.processes, spec.switchInterval, spec.variant);
        const auto refs = collect(*src, kRefs);
        ASSERT_EQ(refs.size(), kRefs);
        EXPECT_EQ(digest(refs), golden[i])
            << spec.name << " digest 0x" << std::hex << digest(refs);
    }
}

TEST(GoldenStreams, DefaultSyntheticTraceSource)
{
    SyntheticTraceParams p;
    p.totalRefs = 200'000;
    SyntheticTraceSource src(p, 21);
    const auto refs = collect(src, p.totalRefs);
    ASSERT_EQ(refs.size(), p.totalRefs);
    EXPECT_EQ(digest(refs), 0x70190f61b63671ddULL)
        << "digest 0x" << std::hex << digest(refs);
}

TEST(GoldenStreams, ColdStartStackDataGenerator)
{
    // A small warm stack under a larger cap: deep draws first
    // allocate fresh granules, then fold once the cap is reached.
    DataStreamParams p;
    p.footprintGranules = 1u << 9;
    p.initialFootprintGranules = 1u << 5;
    StackDataGenerator gen(p, 77);
    ASSERT_EQ(gen.footprint(), p.initialFootprintGranules);
    Fnv f;
    std::uint64_t footprint_early = 0;
    for (int i = 0; i < 100'000; ++i) {
        f.add(gen.next(), 8);
        if (i == 20'000)
            footprint_early = gen.footprint();
    }
    // The cap is reached early, so most of the stream folds.
    EXPECT_EQ(footprint_early, p.footprintGranules);
    EXPECT_EQ(f.value(), 0x3c67b0c89967d232ULL)
        << "digest 0x" << std::hex << f.value();
}

} // namespace
} // namespace trace
} // namespace mlc
