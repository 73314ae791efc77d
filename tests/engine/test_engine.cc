/** @file
 * Tests for the engine layer: the one engine-name parser, the
 * shared flag parser, and the one cell -> machine mapping every
 * engine prices.
 */

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.hh"
#include "expt/runner.hh"
#include "mrc/engine.hh"
#include "onepass/engine.hh"
#include "onepass/model_timing.hh"
#include "sample/engine.hh"

namespace mlc {
namespace engine {
namespace {

TEST(EngineLayer, ParsesEveryNameAndNothingElse)
{
    for (const Kind kind : {Kind::Timing, Kind::OnePass,
                            Kind::Sampled, Kind::Mrc}) {
        Kind parsed = Kind::Timing;
        ASSERT_TRUE(parseKind(kindName(kind), parsed))
            << kindName(kind);
        EXPECT_EQ(parsed, kind);
    }
    Kind untouched = Kind::Mrc;
    for (const char *bad : {"", "Timing", "one-pass", "onepass ",
                            "cascade", "bogus"})
        EXPECT_FALSE(parseKind(bad, untouched)) << bad;
    EXPECT_EQ(untouched, Kind::Mrc);
}

TEST(EngineLayer, TraitsSayWhatEachEnginePrices)
{
    EXPECT_TRUE(traits(Kind::OnePass).profiled);
    EXPECT_TRUE(traits(Kind::Mrc).profiled);
    EXPECT_FALSE(traits(Kind::Timing).profiled);
    EXPECT_FALSE(traits(Kind::Sampled).profiled);
    EXPECT_FALSE(traits(Kind::Sampled).threeLevel);
    EXPECT_FALSE(traits(Kind::Sampled).l2Assoc);
    EXPECT_TRUE(traits(Kind::Timing).threeLevel);
}

TEST(EngineLayer, ParseFlagConsumesEngineFlagsOnly)
{
    Options opts;
    EXPECT_TRUE(parseFlag("--engine=mrc", opts));
    EXPECT_TRUE(parseFlag("--jobs=3", opts));
    EXPECT_TRUE(parseFlag("--shards=2", opts));
    EXPECT_TRUE(parseFlag("--sample-rate=0.25", opts));
    EXPECT_TRUE(parseFlag("--sample-budget=4096", opts));
    EXPECT_EQ(opts.kind, Kind::Mrc);
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.shards, 2u);
    EXPECT_EQ(opts.sampler.rate, 0.25);
    EXPECT_EQ(opts.sampler.budget, 4096u);
    // Not engine flags: the caller decides what they mean.
    EXPECT_FALSE(parseFlag("--engin=onepass", opts));
    EXPECT_FALSE(parseFlag("--paired", opts));
    EXPECT_FALSE(parseFlag("32768", opts));
}

TEST(EngineLayer, ParseFlagRejectsBadValues)
{
    Options opts;
    EXPECT_DEATH(parseFlag("--sample-rate=0.5abc", opts),
                 "bad --sample-rate");
    EXPECT_DEATH(parseFlag("--sample-rate=0", opts),
                 "bad --sample-rate");
    EXPECT_DEATH(parseFlag("--sample-rate=1.5", opts),
                 "bad --sample-rate");
    EXPECT_DEATH(parseFlag("--sample-budget=12x", opts),
                 "bad --sample-budget");
    EXPECT_DEATH(parseFlag("--engine=bogus", opts),
                 "bad --engine");
    EXPECT_DEATH(parseFlag("--jobs=0", opts), "bad --jobs");
    EXPECT_DEATH(parseFlag("--shards=abc", opts), "bad --shards");
}

TEST(EngineLayer, OptionsKeyCarriesResultAffectingKnobsOnly)
{
    Options opts;
    opts.jobs = 7;
    opts.shards = 3;
    EXPECT_EQ(opts.key(), "");
    opts.kind = Kind::OnePass;
    EXPECT_EQ(opts.key(), "");
    opts.kind = Kind::Mrc;
    const std::string mrc_key = opts.key();
    EXPECT_EQ(mrc_key, opts.sampler.key());
    opts.sampler.rate = 0.5;
    EXPECT_NE(opts.key(), mrc_key);
    opts.kind = Kind::Sampled;
    EXPECT_EQ(opts.key(), opts.sampled.key());
}

/** Every engine prices cellMachine(base, s, c): a 2-way base keeps
 *  its associativity in every cell. */
TEST(EngineLayer, EveryEnginePricesTheCellMachineOfATwoWayBase)
{
    ASSERT_EQ(setenv("MLC_QUICK", "32", 1), 0);
    const expt::TraceStore store =
        expt::TraceStore::materialize({expt::gridSuite()[0]});
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine().withL2(512 << 10, 3, 2);
    const std::vector<std::uint64_t> sizes = {16 << 10, 128 << 10};
    const std::vector<std::uint32_t> cycles = {2, 5};
    const auto machine = [&](std::size_t i) {
        return base.withL2(sizes[i / cycles.size()],
                           cycles[i % cycles.size()], 2);
    };
    for (std::size_t i = 0; i < sizes.size() * cycles.size(); ++i)
        EXPECT_EQ(cellMachine(base, sizes[i / cycles.size()],
                              cycles[i % cycles.size()])
                      .summary(),
                  machine(i).summary());

    Options opts;
    opts.jobs = 2;
    opts.sampled.period = store.span(0).size / 20;
    opts.sampled.measureRefs = opts.sampled.period / 5;
    opts.sampled.detailWarmRefs = 500;
    opts.sampled.functionalWarmRefs = opts.sampled.period / 2;

    // The reference for each cell prices that one machine on its
    // own: a full simulation, a one-config sampled run, or a
    // one-member profile priced by its own timing model.
    const auto profiled = [&](Kind kind, std::size_t i) {
        const hier::HierarchyParams m = machine(i);
        const onepass::FamilySpec family = onepass::FamilySpec::l2Grid(
            m, {m.levels[0].geometry.sizeBytes});
        const onepass::TraceProfile prof =
            kind == Kind::OnePass
                ? onepass::profileSuite(m, family, store)[0]
                : mrc::profileSuite(m, family, store, 1,
                                    mrc::MrcOptions{})[0];
        return onepass::EqTimingModel::forMachine(m).relExec(prof, 0);
    };
    for (const Kind kind : {Kind::Timing, Kind::OnePass,
                            Kind::Sampled, Kind::Mrc}) {
        opts.kind = kind;
        const Cells cells =
            priceCells(opts, base, sizes, cycles, store);
        ASSERT_EQ(cells.rel.size(), sizes.size() * cycles.size());
        for (std::size_t i = 0; i < cells.rel.size(); ++i) {
            double want = 0.0;
            switch (kind) {
            case Kind::Timing:
                want = expt::runSuite(machine(i), store).relExecTime;
                break;
            case Kind::Sampled:
                want = sample::runSuiteSampled(machine(i), store,
                                               opts.sampled)
                           .relExecTime;
                break;
            case Kind::OnePass:
            case Kind::Mrc: want = profiled(kind, i); break;
            }
            EXPECT_EQ(cells.rel[i], want)
                << kindName(kind) << " cell " << i;
        }
    }
}

TEST(EngineLayer, SoloColumnFollowsTheFirstCycle)
{
    ASSERT_EQ(setenv("MLC_QUICK", "32", 1), 0);
    const expt::TraceStore store =
        expt::TraceStore::materialize({expt::gridSuite()[0]});
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const std::vector<std::uint64_t> sizes = {16 << 10, 128 << 10};
    const std::vector<std::uint32_t> cycles = {1, 4};
    Options opts;
    opts.kind = Kind::Timing;
    const Cells timing =
        priceCells(opts, base, sizes, cycles, store, nullptr, true);
    opts.kind = Kind::OnePass;
    const Cells onepass =
        priceCells(opts, base, sizes, cycles, store, nullptr, true);
    ASSERT_EQ(timing.solo.size(), sizes.size());
    ASSERT_EQ(onepass.solo.size(), sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        hier::HierarchyParams p = base.withL2(sizes[s], cycles[0]);
        p.measureSolo = true;
        const expt::SuiteResults r = expt::runSuite(p, store);
        EXPECT_EQ(timing.solo[s], r.soloMiss[0]);
        // Solo miss counts are timing-independent, so the exact
        // one-pass profile reproduces the simulator's ratio.
        EXPECT_EQ(onepass.solo[s], r.soloMiss[0]);
    }
    // Asking for solo changes no cell value.
    opts.kind = Kind::Timing;
    EXPECT_EQ(priceCells(opts, base, sizes, cycles, store).rel,
              timing.rel);
}

} // namespace
} // namespace engine
} // namespace mlc
