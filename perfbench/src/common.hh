/**
 * @file
 * Shared pieces of mlcbench, the mlcsim benchmark: run options, the
 * per-run result record, seeded trace inputs, and the Figure 4-1
 * accuracy pass (timing simulator versus one-pass model) that every
 * workload reports.
 */

#ifndef MLCBENCH_COMMON_HH
#define MLCBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "expt/design_space.hh"
#include "expt/workload_suite.hh"
#include "hier/hierarchy_config.hh"
#include "tracer.hh"

namespace mlcbench {

/** The seed that reproduces the paper suite (trace variants 0-7)
 *  and whose serve_mix canary digest is recorded in serve_mix.cc. */
constexpr std::uint64_t kDefaultSeed = 0;

/** Engine worker threads every workload uses (the host is shared;
 *  at most nproc busy threads per process). */
constexpr std::size_t kJobs = 2;

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for sockets, farms and span files (inside the
     *  checkout). */
    std::string scratch = ".bench_build/run";
    /** Extra provenance (source digest) to stamp on the result. */
    std::string sourceDigest;
};

/** Operation accounting plus the metrics one phase produced. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    void fail(const std::string &why);
};

/** Named values with units, in insertion order. */
struct MetricSet
{
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        std::string note;
    };
    std::vector<Entry> entries;
    void set(const std::string &name, double value,
             const std::string &unit, const std::string &note = {});
    const Entry *find(const std::string &name) const;
};

/** Nearest-rank percentile (q in [0,1]) of @p v (copied, sorted). */
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

double secondsSince(std::int64_t t0_ns);

/** Process peak resident set, MB. */
double peakRssMb();

/**
 * @p specs with every trace variant shifted by the seed's offset
 * (8 x seed: the default seed keeps the paper suite's variants 0-7)
 * and every length set so the *scaled* warm-up/measure lengths are
 * exactly @p warm / @p measure references under the process's
 * current MLC_QUICK pin (expt::suiteScale()).
 */
std::vector<mlc::expt::TraceSpec>
seededSpecs(std::vector<mlc::expt::TraceSpec> specs,
            std::uint64_t seed, std::uint64_t warm,
            std::uint64_t measure);

/** Materialize @p specs on kJobs workers, one "trace.materialize"
 *  span and a trace.refs count per trace. */
mlc::expt::TraceStore materializeTraced(
    std::vector<mlc::expt::TraceSpec> specs);

/** Median wall seconds of kSetupReps calls of @p setup; the last
 *  call's products are what the run keeps. */
template <typename Fn>
double
timedSetup(Fn &&setup)
{
    std::vector<double> reps;
    for (int r = 0; r < kSetupReps; ++r) {
        const std::int64_t t0 = nowNs();
        setup();
        reps.push_back(secondsSince(t0));
    }
    return median(reps);
}

/** @{ @name The Figure 4-1 accuracy pass */

/** Input size of the Figure 4-1 study: the grid suite's four
 *  traces at a quarter of their paper length. */
constexpr std::uint64_t kFig41Warm = 100'000;
constexpr std::uint64_t kFig41Measure = 300'000;

/** L2 cycle columns of the study (CPU cycles). The size axis is the
 *  paper's full 4KB..4MB. */
std::vector<std::uint32_t> fig41Cycles();

struct AccuracyPass
{
    mlc::expt::DesignSpaceGrid timing;
    mlc::expt::DesignSpaceGrid onepass;
    /** Per timing cell (row-major): simulated CPI and L2 local read
     *  miss ratio, suite means. */
    std::vector<double> cpi, l2LocalMiss;
    /** Wall microseconds of each timing cell's evaluation. */
    std::vector<double> cellUs;
};

/** Price the Figure 4-1 grid with the timing simulator (one
 *  expt::runSuite per cell through expt::parallelBuildGrid) and the
 *  one-pass engine (onepass::buildGrid), kJobs workers each. */
AccuracyPass runAccuracyPass(const mlc::hier::HierarchyParams &base,
                             const mlc::expt::TraceStore &store);

/** model_err_max, model_err_mean and region_agree of @p pass. */
void accuracyMetrics(const AccuracyPass &pass, MetricSet &out);

/** True when two grids hold bit-identical values. */
bool sameGrid(const mlc::expt::DesignSpaceGrid &a,
              const mlc::expt::DesignSpaceGrid &b);

/** @} */

/**
 * Run the accuracy pass on its own traces (Figure 4-1 input size,
 * variants of @p seed), for workloads whose timed work is something
 * else. mlcbench always audits the default seed's traces, so every
 * workload reports the same, exactly repeating accuracy metrics.
 */
void accuracyAudit(std::uint64_t seed, MetricSet &out);

} // namespace mlcbench

#endif // MLCBENCH_COMMON_HH
