/** @file The sampled engine's entry points validate their inputs
 *  through the same chain check as the exact engine, so they
 *  reject the same shapes with the same wording. */

#include <vector>

#include <gtest/gtest.h>

#include "mrc/engine.hh"
#include "trace/mem_ref.hh"

namespace mlc {
namespace mrc {
namespace {

/** The base machine's L2 backed by a 1MB 2-way L3. */
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

const std::vector<trace::MemRef> kRefs = {trace::makeLoad(0)};

TEST(MrcValidationDeathTest, ProfileTraceRejectsAnEmptyFamily)
{
    EXPECT_DEATH(mrc::profileTrace(hier::HierarchyParams::baseMachine(),
                                   onepass::FamilySpec{}, kRefs, 0),
                 "empty cache family");
}

TEST(MrcValidationDeathTest, ProfileTraceRejectsAMemberBelowTheL1Block)
{
    onepass::FamilySpec family;
    family.configs.push_back({64 << 10, 1, 8});
    EXPECT_DEATH(mrc::profileTrace(hier::HierarchyParams::baseMachine(),
                                   family, kRefs, 0),
                 "smaller block than the 16B first-level block");
}

TEST(MrcValidationDeathTest, ProfileTraceRejectsAMachineWithoutAnL2)
{
    hier::HierarchyParams base = hier::HierarchyParams::baseMachine();
    base.levels.clear();
    base.busWidthWords = {4};
    onepass::FamilySpec family;
    family.configs.push_back({64 << 10, 1, 32});
    EXPECT_DEATH(mrc::profileTrace(base, family, kRefs, 0),
                 "one downstream level");
}

TEST(MrcValidationDeathTest, CascadeRejectsEmptyPivotOrMemberFamilies)
{
    onepass::CascadeFamilySpec no_pivots;
    no_pivots.l3.configs.push_back({1 << 20, 2, 32});
    EXPECT_DEATH(mrc::profileCascadeTrace(threeLevelBase(), no_pivots,
                                          kRefs, 0),
                 "empty pivot family");

    onepass::CascadeFamilySpec no_members;
    no_members.pivots.push_back({64 << 10, 1, 32});
    EXPECT_DEATH(mrc::profileCascadeTrace(threeLevelBase(), no_members,
                                          kRefs, 0),
                 "empty cache family");
}

TEST(MrcValidationDeathTest, CascadeRejectsAPivotBelowTheL1Block)
{
    onepass::CascadeFamilySpec family;
    family.pivots.push_back({64 << 10, 1, 8});
    family.l3.configs.push_back({1 << 20, 2, 32});
    EXPECT_DEATH(mrc::profileCascadeTrace(threeLevelBase(), family,
                                          kRefs, 0),
                 "pivot 64KB/1-way/8B has a smaller block than the "
                 "16B first-level block");
}

TEST(MrcValidationDeathTest, CascadeRejectsAMemberBelowThePivotBlock)
{
    onepass::CascadeFamilySpec family;
    family.pivots.push_back({64 << 10, 1, 64});
    family.l3.configs.push_back({1 << 20, 2, 32});
    EXPECT_DEATH(mrc::profileCascadeTrace(threeLevelBase(), family,
                                          kRefs, 0),
                 "smaller block than the widest 64B pivot block");
}

TEST(MrcValidationDeathTest, CascadeRejectsATwoLevelMachine)
{
    onepass::CascadeFamilySpec family;
    family.pivots.push_back({64 << 10, 1, 32});
    family.l3.configs.push_back({1 << 20, 1, 32});
    EXPECT_DEATH(
        mrc::profileCascadeTrace(hier::HierarchyParams::baseMachine(),
                                 family, kRefs, 0),
                 "two downstream levels");
}

} // namespace
} // namespace mrc
} // namespace mlc
