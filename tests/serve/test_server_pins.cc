/** @file
 * Pins the query server's sweep cells to the library grid builders
 * bit for bit: whatever route Server::evaluateCells takes to price
 * a cell (profile cache, family widening, checkpoint farm), the
 * value must equal what the stand-alone builder computes for the
 * same machine over the same workload.
 */

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/store.hh"
#include "expt/design_space.hh"
#include "expt/workload_suite.hh"
#include "mrc/engine.hh"
#include "onepass/cascade.hh"
#include "onepass/grid.hh"
#include "onepass/model_timing.hh"
#include "sample/sweep.hh"
#include "serve/json.hh"
#include "serve/server.hh"

namespace mlc {
namespace serve {
namespace {

/** Engine runs in tests replay heavily shortened traces. */
void
quickEnv()
{
    ASSERT_EQ(setenv("MLC_QUICK", "32", 1), 0);
}

/** The "grid" workload as the server materializes it. */
expt::TraceStore
gridStore()
{
    return expt::TraceStore::materialize(expt::gridSuite(), 2);
}

std::string
axis(const std::vector<std::uint64_t> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(v[i]);
    }
    return out + "]";
}

std::string
axis(const std::vector<std::uint32_t> &v)
{
    return axis(std::vector<std::uint64_t>(v.begin(), v.end()));
}

/** Run one sweep and return its cells row-major. */
std::vector<double>
sweepCells(Server &server, const std::string &engine,
           const std::vector<std::uint64_t> &sizes,
           const std::vector<std::uint32_t> &cycles,
           const std::string &extra = "")
{
    const std::string resp = server.handleLine(
        "{\"op\":\"sweep\",\"engine\":\"" + engine +
        "\",\"sizes\":" + axis(sizes) + ",\"cycles\":" +
        axis(cycles) + extra + "}");
    Json doc;
    std::string err;
    EXPECT_TRUE(Json::parse(resp, doc, err)) << resp << ": " << err;
    std::vector<double> cells;
    const Json *grid = doc.find("grid");
    EXPECT_NE(grid, nullptr) << resp;
    if (!grid)
        return cells;
    for (const Json &row : grid->asArray())
        for (const Json &v : row.asArray())
            cells.push_back(v.asNumber());
    return cells;
}

std::vector<double>
gridCells(const expt::DesignSpaceGrid &grid)
{
    std::vector<double> cells;
    for (std::size_t s = 0; s < grid.sizes().size(); ++s)
        for (std::size_t c = 0; c < grid.cycles().size(); ++c)
            cells.push_back(grid.at(s, c));
    return cells;
}

void
expectBitIdentical(const std::vector<double> &server,
                   const std::vector<double> &library)
{
    ASSERT_EQ(server.size(), library.size());
    for (std::size_t i = 0; i < server.size(); ++i)
        EXPECT_EQ(server[i], library[i]) << "cell " << i;
}

const hier::HierarchyParams kBase =
    hier::HierarchyParams::baseMachine();

TEST(ServerPins, TimingSweepEqualsParallelBuildGrid)
{
    quickEnv();
    Server server(ServerOptions{});
    const std::vector<std::uint64_t> sizes = {65536, 262144};
    const std::vector<std::uint32_t> cycles = {2, 5};
    const expt::TraceStore store = gridStore();
    const expt::DesignSpaceGrid lib = expt::parallelBuildGrid(
        sizes, cycles, store,
        [](std::uint64_t s, std::uint32_t c) {
            return kBase.withL2(s, c);
        },
        2);
    expectBitIdentical(sweepCells(server, "timing", sizes, cycles),
                       gridCells(lib));
}

TEST(ServerPins, OnePassCanonicalFamilyEqualsBuildGrid)
{
    quickEnv();
    Server server(ServerOptions{});
    // Every size lies on the paper axis: the server profiles the
    // whole canonical family and prices these members out of it.
    const std::vector<std::uint64_t> sizes = {8192, 65536, 1048576};
    const std::vector<std::uint32_t> cycles = {1, 3, 10};
    const expt::TraceStore store = gridStore();
    expectBitIdentical(
        sweepCells(server, "onepass", sizes, cycles),
        gridCells(onepass::buildGrid(kBase, sizes, cycles, store,
                                     2)));
}

TEST(ServerPins, OnePassExoticFamilyEqualsBuildGrid)
{
    quickEnv();
    Server server(ServerOptions{});
    // 2KB and 8MB are off the paper axis: the family is profiled
    // exactly as asked.
    const std::vector<std::uint64_t> sizes = {2048, 65536, 8388608};
    const std::vector<std::uint32_t> cycles = {2, 7};
    const expt::TraceStore store = gridStore();
    expectBitIdentical(
        sweepCells(server, "onepass", sizes, cycles),
        gridCells(onepass::buildGrid(kBase, sizes, cycles, store,
                                     2)));
}

TEST(ServerPins, SampledFarmSweepEqualsBuildGridCheckpointed)
{
    quickEnv();
    const std::string dir = std::string(::testing::TempDir()) +
                            "mlc_serve_pin_farm";
    std::filesystem::remove_all(dir);
    ServerOptions opts;
    opts.checkpointDir = dir;
    const std::vector<std::uint64_t> sizes = {65536, 262144};
    const std::vector<std::uint32_t> cycles = {2, 5};

    sample::SampledOptions so = opts.sampled;
    so.seed = 1;
    const expt::TraceStore store = gridStore();
    const std::vector<double> lib = gridCells(
        sample::buildGridCheckpointed(kBase, sizes, cycles, store,
                                      so, 2));

    std::vector<double> before;
    {
        Server first(opts);
        before = sweepCells(first, "sampled", sizes, cycles);
        EXPECT_GT(first.counters().ckptBuilds, 0u);
    }
    expectBitIdentical(before, lib);

    // A restarted server over the same farm loads the warm state
    // from disk; the cells must not move.
    Server second(opts);
    expectBitIdentical(sweepCells(second, "sampled", sizes, cycles),
                       lib);
    EXPECT_GT(second.counters().ckptLoads, 0u);
    EXPECT_EQ(second.counters().ckptBuilds, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ServerPins, CascadeSweepEqualsProfileCascadeSuite)
{
    quickEnv();
    Server server(ServerOptions{});
    const std::vector<std::uint64_t> sizes = {65536, 262144};
    const std::vector<std::uint32_t> cycles = {2, 5};
    const std::vector<double> cells =
        sweepCells(server, "onepass", sizes, cycles,
                   ",\"l3_size\":2097152,\"l3_cycles\":6,"
                   "\"l3_assoc\":4");

    // The three-level machine: the base plus a 2MB/4-way L3 at 6
    // CPU cycles, its bus as wide as the L2's.
    hier::HierarchyParams base = kBase;
    cache::CacheParams l3;
    l3.name = "l3";
    l3.geometry.sizeBytes = 2097152;
    l3.geometry.blockBytes = base.levels[0].geometry.blockBytes;
    l3.geometry.assoc = 4;
    l3.cycleNs = base.cpuCycleNs * 6;
    base.levels.push_back(l3);
    base.busWidthWords.push_back(base.busWidthWords.back());

    onepass::CascadeFamilySpec family;
    for (const std::uint64_t s : sizes)
        family.pivots.push_back({s, base.levels[0].geometry.assoc,
                                 base.levels[0].geometry.blockBytes});
    family.l3.configs.push_back(
        {l3.geometry.sizeBytes, l3.geometry.assoc,
         l3.geometry.blockBytes});
    const expt::TraceStore store = gridStore();
    const auto profiles =
        onepass::profileCascadeSuite(base, family, store, 2);

    std::vector<double> lib(sizes.size() * cycles.size());
    for (std::size_t c = 0; c < cycles.size(); ++c) {
        const onepass::EqTimingModel model =
            onepass::EqTimingModel::forMachine(base.withL2(
                sizes[0], cycles[c], base.levels[0].geometry.assoc));
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            double sum = 0.0;
            for (const onepass::TraceProfile &p : profiles[s])
                sum += model.relExec(p, 0);
            lib[s * cycles.size() + c] =
                sum / static_cast<double>(profiles[s].size());
        }
    }
    expectBitIdentical(cells, lib);
}

TEST(ServerPins, MrcSweepEqualsMrcBuildGrid)
{
    quickEnv();
    Server server(ServerOptions{});
    const std::vector<std::uint64_t> sizes = {16384, 262144};
    const std::vector<std::uint32_t> cycles = {2, 5};
    const expt::TraceStore store = gridStore();
    expectBitIdentical(
        sweepCells(server, "mrc", sizes, cycles),
        gridCells(mrc::buildGrid(kBase, sizes, cycles, store, 2)));

    // mrc answers never alias the exact engine's memo or profiles.
    const std::string onepass = server.handleLine(
        "{\"op\":\"query\",\"l2_size\":16384,\"l2_cycles\":2}");
    EXPECT_NE(onepass.find("\"cached\":false"), std::string::npos)
        << onepass;
    const std::string mrc_again = server.handleLine(
        "{\"op\":\"query\",\"engine\":\"mrc\","
        "\"l2_size\":16384,\"l2_cycles\":2}");
    EXPECT_NE(mrc_again.find("\"ok\":true"), std::string::npos)
        << mrc_again;
    EXPECT_EQ(server.counters().engineRuns, 3u);
}

} // namespace
} // namespace serve
} // namespace mlc
