/**
 * @file
 * Shared plumbing for the figure-regeneration harness: every bench
 * binary prints one of the paper's tables/figures as rows, using
 * the same workload suite and the same presentation helpers.
 */

#ifndef MLC_BENCH_BENCH_COMMON_HH
#define MLC_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "engine/engine.hh"
#include "expt/design_space.hh"
#include "expt/runner.hh"
#include "expt/workload_suite.hh"
#include "hier/hierarchy_config.hh"
#include "mrc/sampler.hh"
#include "sample/scheduler.hh"

namespace mlc {
namespace bench {

/** Banner naming the figure and the machine configuration. */
void printHeader(const std::string &figure,
                 const std::string &description,
                 const hier::HierarchyParams &base);

/**
 * Worker count for a bench binary: `--jobs=N` (or `--jobs N`) on
 * the command line wins, then the MLC_JOBS environment variable,
 * then hardware_concurrency(). Grids and stdout output are
 * bit-identical for every N; only wall-clock changes.
 */
std::size_t jobsFromArgs(int argc, char **argv);

/**
 * Shard count for the one-pass engine's set-partitioned sweep:
 * `--shards=N` (or `--shards N`) wins, then the MLC_SHARDS
 * environment variable, then 1 (the scalar in-line path). Results
 * are bit-identical for every N (ProfileOptions::shards); only the
 * timing engine ignores it.
 */
std::size_t shardsFromArgs(int argc, char **argv);

/** How a grid gets its relative execution times: the engine
 *  layer's kinds (engine/engine.hh, DESIGN.md §5k). */
using Engine = engine::Kind;

/** `--engine=NAME` or `--engine NAME` (default Timing), parsed by
 *  engine::parseKind. */
Engine engineFromArgs(int argc, char **argv);

/**
 * Build-provenance fields for bench JSON records, as a fragment to
 * splice into an object: `"git_sha":"...","build_type":"...",
 * "compiler":"..."` (no braces, no trailing comma). The SHA is the
 * configure-time HEAD — reconfigure after committing if it matters.
 */
std::string provenanceJson();

/** Materialize every trace of a suite once (progress to stderr),
 *  @p jobs traces at a time. The store is shared by every grid and
 *  engine the binary builds — no trace is ever decoded twice. */
expt::TraceStore
materializeAll(std::vector<expt::TraceSpec> specs,
               std::size_t jobs = 1);

/**
 * Process-lifetime maximum resident set size in KB, or -1 where the
 * platform has no getrusage (the value is a high-water mark: a
 * second measurement includes everything the process peaked at
 * earlier).
 */
long maxRssKb();

/** maxRssKb() formatted as a JSON value: the KB count, or "null"
 *  on platforms where sampling is unavailable — never a garbage
 *  number. */
std::string maxRssJson();

/**
 * Build the (L2 size x L2 cycle) relative-execution-time grid for
 * a base machine over a shared trace store with the chosen engine
 * (engine::priceCells, deterministic for any @p jobs).
 * @p sampled_opts is consulted by Engine::Sampled only; the default
 * (auto period, ~200 windows) suits the bench-suite traces.
 * @p shards set-partitions the one-pass forest sweep within each
 * trace (Engine::OnePass only; see shardsFromArgs).
 * @p sampler is consulted by Engine::Mrc only (see samplerFromArgs).
 */
expt::DesignSpaceGrid
buildRelExecGrid(Engine kind, const hier::HierarchyParams &base,
                 const std::vector<std::uint64_t> &sizes,
                 const std::vector<std::uint32_t> &cycles,
                 const expt::TraceStore &store,
                 std::size_t jobs = 1,
                 const sample::SampledOptions &sampled_opts = {},
                 std::size_t shards = 1,
                 const mrc::SamplerConfig &sampler = {});

/** Print the grid the way Figure 4-1 plots it: one column per L2
 *  cycle time, one row per L2 size. */
void printRelExecGrid(const expt::DesignSpaceGrid &grid);

/** Print the lines of constant performance (Figures 4-2..4-4):
 *  contour rows plus the slope-region classification. */
void printConstantPerformance(const expt::DesignSpaceGrid &grid);

/**
 * If the MLC_CSV_DIR environment variable names a directory, write
 * the grid there as <name>.csv (one row per L2 size, one column
 * per cycle time) for external plotting; otherwise do nothing.
 */
void maybeDumpCsv(const expt::DesignSpaceGrid &grid,
                  const std::string &name);

} // namespace bench
} // namespace mlc

#endif // MLC_BENCH_BENCH_COMMON_HH
