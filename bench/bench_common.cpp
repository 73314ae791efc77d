#include "bench_common.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#if defined(__unix__) || defined(__APPLE__)
#define MLC_HAVE_GETRUSAGE 1
#include <sys/resource.h>
#endif

#include "util/csv.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/units.hh"

// Normally injected by bench/CMakeLists.txt; the fallbacks keep the
// file compilable standalone.
#ifndef MLC_BENCH_GIT_SHA
#define MLC_BENCH_GIT_SHA "unknown"
#endif
#ifndef MLC_BENCH_BUILD_TYPE
#define MLC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MLC_BENCH_COMPILER
#define MLC_BENCH_COMPILER "unknown"
#endif

namespace mlc {
namespace bench {

namespace {

const char kRule[] =
    "==========================================================";

/** The value of the first `--name=V` or `--name V` argument; false
 *  when the flag is absent. */
bool
flagValue(int argc, char **argv, std::string_view name,
          std::string &value)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (startsWith(arg, name) && arg.size() > name.size() &&
            arg[name.size()] == '=') {
            value = std::string(arg.substr(name.size() + 1));
            return true;
        }
        if (arg == name && i + 1 < argc) {
            value = argv[i + 1];
            return true;
        }
    }
    return false;
}

} // namespace

void
printHeader(const std::string &figure,
            const std::string &description,
            const hier::HierarchyParams &base)
{
    std::cout << kRule << "\n"
              << figure << ": " << description << "\n"
              << "machine: " << base.summary() << "\n"
              << "workload: synthetic multiprogramming suite "
              << "(see DESIGN.md trace substitution)\n"
              << kRule << "\n";
}

std::size_t
jobsFromArgs(int argc, char **argv)
{
    std::string value;
    if (!flagValue(argc, argv, "--jobs", value))
        return defaultJobs();
    unsigned long long jobs = 0;
    if (!parseUnsigned(value, jobs) || jobs < 1)
        mlc_fatal("bad --jobs value '", value, "'");
    return static_cast<std::size_t>(jobs);
}

std::size_t
shardsFromArgs(int argc, char **argv)
{
    std::string value;
    unsigned long long shards = 0;
    if (flagValue(argc, argv, "--shards", value)) {
        if (!parseUnsigned(value, shards) || shards < 1)
            mlc_fatal("bad --shards value '", value, "'");
        return static_cast<std::size_t>(shards);
    }
    if (const char *env = std::getenv("MLC_SHARDS");
        env && parseUnsigned(env, shards) && shards >= 1)
        return static_cast<std::size_t>(shards);
    return 1;
}

Engine
engineFromArgs(int argc, char **argv)
{
    std::string value;
    Engine kind = Engine::Timing;
    if (flagValue(argc, argv, "--engine", value) &&
        !engine::parseKind(value, kind))
        mlc_fatal("bad --engine value '", value, "' (expected ",
                  engine::kindList(), ")");
    return kind;
}

std::string
provenanceJson()
{
    return std::string("\"git_sha\":\"") + MLC_BENCH_GIT_SHA +
           "\",\"build_type\":\"" + MLC_BENCH_BUILD_TYPE +
           "\",\"compiler\":\"" + MLC_BENCH_COMPILER + "\"";
}

expt::TraceStore
materializeAll(std::vector<expt::TraceSpec> specs, std::size_t jobs)
{
    // No job count in the progress line: output must stay
    // byte-identical across --jobs values.
    std::cerr << "  generating " << specs.size() << " traces...\n";
    return expt::TraceStore::materialize(std::move(specs), jobs);
}

long
maxRssKb()
{
#if MLC_HAVE_GETRUSAGE
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return -1;
#if defined(__APPLE__)
    return static_cast<long>(usage.ru_maxrss / 1024); // bytes -> KB
#else
    return usage.ru_maxrss; // already KB on Linux
#endif
#else
    return -1;
#endif
}

std::string
maxRssJson()
{
    const long kb = maxRssKb();
    return kb < 0 ? std::string("null") : std::to_string(kb);
}

expt::DesignSpaceGrid
buildRelExecGrid(Engine kind, const hier::HierarchyParams &base,
                 const std::vector<std::uint64_t> &sizes,
                 const std::vector<std::uint32_t> &cycles,
                 const expt::TraceStore &store, std::size_t jobs,
                 const sample::SampledOptions &sampled_opts,
                 std::size_t shards, const mrc::SamplerConfig &sampler)
{
    // Engine choice goes to stderr: stdout must stay byte-identical
    // between a default run and an explicit --engine=timing run.
    std::cerr << "  sweeping " << sizes.size() << "x"
              << cycles.size() << " grid (" << engine::kindName(kind)
              << " engine)...\n";
    engine::Options opts;
    opts.kind = kind;
    opts.jobs = jobs;
    opts.shards = shards;
    opts.sampler = sampler;
    opts.sampled = sampled_opts;
    return expt::DesignSpaceGrid(
        sizes, cycles,
        engine::priceCells(opts, base, sizes, cycles, store).rel);
}

void
printRelExecGrid(const expt::DesignSpaceGrid &grid)
{
    Table t;
    t.addColumn("L2 size", Align::Left);
    for (auto c : grid.cycles())
        t.addColumn(std::to_string(c) + "cyc");
    for (std::size_t s = 0; s < grid.sizes().size(); ++s) {
        t.newRow().cell(formatSize(grid.sizes()[s]));
        for (std::size_t c = 0; c < grid.cycles().size(); ++c)
            t.cell(grid.at(s, c), 3);
    }
    std::cout << "\nRelative execution time (vs all-hits ideal):\n";
    t.print(std::cout);
}

void
printConstantPerformance(const expt::DesignSpaceGrid &grid)
{
    std::cout << "\nLines of constant performance (L2 cycle time, "
                 "in CPU cycles, achieving each level):\n";
    Table t;
    t.addColumn("level", Align::Left);
    for (auto s : grid.sizes())
        t.addColumn(formatSize(s));
    for (double level : grid.contourLevels(0.1)) {
        t.newRow();
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.1f", level);
        t.cell(std::string(buf));
        for (double v : grid.contour(level)) {
            if (std::isnan(v))
                t.cell(std::string("-"));
            else
                t.cell(v, 2);
        }
    }
    t.print(std::cout);

    std::cout << "\nSteepest contour slope per size interval "
                 "(CPU cycles per L2 doubling) and the paper's "
                 "region classification:\n";
    Table r;
    r.addColumn("interval", Align::Left);
    r.addColumn("max slope");
    r.addColumn("region", Align::Left);
    const auto slopes = grid.maxSlopePerInterval();
    for (std::size_t s = 0; s < slopes.size(); ++s) {
        r.newRow().cell(formatSize(grid.sizes()[s]) + "->" +
                        formatSize(grid.sizes()[s + 1]));
        if (std::isnan(slopes[s]))
            r.cell(std::string("-")).cell(std::string("-"));
        else
            r.cell(slopes[s], 2)
                .cell(std::string(
                    expt::slopeRegionName(slopes[s])));
    }
    r.print(std::cout);
}

void
maybeDumpCsv(const expt::DesignSpaceGrid &grid,
             const std::string &name)
{
    const char *dir = std::getenv("MLC_CSV_DIR");
    if (!dir || dir[0] == '\0')
        return;
    const std::string path = std::string(dir) + "/" + name + ".csv";
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    CsvWriter csv(os);
    csv.cell(std::string("l2_bytes"));
    for (auto c : grid.cycles())
        csv.cell(std::string("cyc") + std::to_string(c));
    csv.endRow();
    for (std::size_t s = 0; s < grid.sizes().size(); ++s) {
        csv.cell(grid.sizes()[s]);
        for (std::size_t c = 0; c < grid.cycles().size(); ++c)
            csv.cell(grid.at(s, c));
        csv.endRow();
    }
    std::cerr << "wrote " << path << "\n";
}

} // namespace bench
} // namespace mlc
