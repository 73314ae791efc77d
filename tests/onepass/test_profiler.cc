/** @file onepass::Profiler, the one profile pipeline: the in-line
 *  and two-phase routes must agree bit for bit at both depths, a
 *  streamed feed must equal a materialized one, and the pipeline
 *  must refuse the inputs it cannot honour. */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "onepass/profiler.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"
#include "trace/stack_distance.hh"

namespace mlc {
namespace onepass {
namespace {

using ExactProfiler =
    Profiler<GhostTagForest, trace::StackDistanceAnalyzer>;

std::vector<trace::MemRef>
workload(std::uint64_t refs)
{
    auto gen = trace::makeMultiprogrammedWorkload(4, 6000, 3);
    return trace::collect(*gen, refs);
}

/** The base machine's L2 over a 1MB 2-way L3. */
hier::HierarchyParams
threeLevelBase()
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    p.levels[0].geometry.sizeBytes = 64 << 10;
    cache::CacheParams l3;
    l3.name = "l3";
    l3.geometry.sizeBytes = 1 << 20;
    l3.geometry.blockBytes = 32;
    l3.geometry.assoc = 2;
    l3.cycleNs = 50.0;
    p.levels.push_back(l3);
    p.busWidthWords = {4, 4, 4};
    return p;
}

const std::vector<GhostCacheSpec> kPivots = {{16 << 10, 1, 32},
                                             {64 << 10, 2, 64}};
const std::vector<GhostCacheSpec> kMembers = {
    {256 << 10, 1, 64}, {1 << 20, 2, 64}, {2 << 20, 4, 128}};

bool
sameProfile(const TraceProfile &a, const TraceProfile &b)
{
    if (a.instructions != b.instructions || a.stores != b.stores ||
        a.l1ReadMisses != b.l1ReadMisses ||
        a.configs.size() != b.configs.size() ||
        a.pivotChain.size() != b.pivotChain.size())
        return false;
    for (std::size_t k = 0; k < a.pivotChain.size(); ++k)
        if (!(a.pivotChain[k].spec == b.pivotChain[k].spec) ||
            !(a.pivotChain[k].counts == b.pivotChain[k].counts) ||
            !(a.pivotChain[k].solo == b.pivotChain[k].solo))
            return false;
    for (std::size_t m = 0; m < a.configs.size(); ++m) {
        const ConfigProfile &x = a.configs[m];
        const ConfigProfile &y = b.configs[m];
        if (!(x.spec == y.spec) || !(x.filtered == y.filtered) ||
            !(x.solo == y.solo) || x.faMissRatio != y.faMissRatio ||
            x.faCompulsory != y.faCompulsory)
            return false;
    }
    return true;
}

TEST(Profiler, InlineAndTwoPhaseRoutesAgreeAtBothDepths)
{
    const std::vector<trace::MemRef> refs = workload(60000);
    ProfileOptions inline_opts;
    inline_opts.solo = true;
    inline_opts.faBound = true;
    for (const bool cascade : {false, true}) {
        const hier::HierarchyParams base =
            cascade ? threeLevelBase()
                    : hier::HierarchyParams::baseMachine();
        const std::vector<GhostCacheSpec> pivots =
            cascade ? kPivots : std::vector<GhostCacheSpec>{};
        // Warm points inside the stream, at its end and past it.
        for (const std::uint64_t warm : {20000u, 60000u, 90000u}) {
            const auto in_line =
                profileRefs<GhostTagForest, trace::StackDistanceAnalyzer>(
                    base, pivots, kMembers, refs, warm, inline_opts);
            ASSERT_EQ(in_line.size(), cascade ? kPivots.size() : 1u);
            for (const std::size_t shards : {2u, 5u}) {
                ProfileOptions opts = inline_opts;
                opts.shards = shards;
                const auto two_phase = profileRefs<
                    GhostTagForest, trace::StackDistanceAnalyzer>(
                    base, pivots, kMembers, refs, warm, opts);
                ASSERT_EQ(two_phase.size(), in_line.size());
                for (std::size_t k = 0; k < in_line.size(); ++k)
                    EXPECT_TRUE(sameProfile(in_line[k], two_phase[k]))
                        << "cascade=" << cascade << " warm=" << warm
                        << " shards=" << shards << " pivot " << k;
            }
        }
    }
}

TEST(Profiler, StreamedFeedEqualsMaterializedReplay)
{
    const std::vector<trace::MemRef> refs = workload(30000);
    ProfileOptions opts;
    opts.solo = true;
    ExactProfiler streamed(threeLevelBase(), kPivots, kMembers, 10000,
                           opts);
    auto gen = trace::makeMultiprogrammedWorkload(4, 6000, 3);
    trace::MemRef ref;
    for (std::size_t i = 0; i < refs.size() && gen->next(ref); ++i)
        streamed.step(ref);
    const auto a = streamed.finish();
    const auto b =
        profileRefs<GhostTagForest, trace::StackDistanceAnalyzer>(
            threeLevelBase(), kPivots, kMembers, refs, 10000, opts);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k)
        EXPECT_TRUE(sameProfile(a[k], b[k])) << "pivot " << k;
}

TEST(ProfilerDeathTest, TwoPhaseSoloNeedsTheSteppedReferences)
{
    ProfileOptions opts;
    opts.solo = true;
    opts.shards = 2;
    ExactProfiler prof(hier::HierarchyParams::baseMachine(), {},
                       kMembers, 0, opts);
    prof.step(trace::makeLoad(0));
    EXPECT_DEATH(prof.finish(), "needs the 1 references stepped");
}

TEST(ProfilerDeathTest, OneBlockCheckGuardsBothRoutes)
{
    const std::vector<trace::MemRef> refs = {trace::makeLoad(0)};
    const std::vector<GhostCacheSpec> narrow = {{1 << 20, 2, 32}};
    for (const std::size_t shards : {1u, 4u}) {
        ProfileOptions opts;
        opts.shards = shards;
        EXPECT_DEATH(
            (profileRefs<GhostTagForest, trace::StackDistanceAnalyzer>(
                threeLevelBase(), kPivots, narrow, refs, 0, opts)),
            "family member 1MB/2-way/32B has a smaller block than the "
            "widest 64B pivot block");
    }
}

} // namespace
} // namespace onepass
} // namespace mlc
