/**
 * @file
 * The benchmark's workloads. Each one owns its inputs (set up by
 * setup(), which main() times), a timed phase, output checks
 * and its end-to-end metrics.
 */

#ifndef MLCBENCH_WORKLOADS_HH
#define MLCBENCH_WORKLOADS_HH

#include <memory>
#include <string>

#include "common.hh"

namespace mlcbench {

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs (traces; the server for serve_mix).
     *  Repeatable: each call replaces the previous products. */
    virtual void setup() = 0;

    /** Measure for at least @p seconds (at least @p min_passes
     *  whole passes for the grid workloads). Statistics accumulate
     *  until resetStats(). */
    virtual void run(double seconds, int min_passes, Tally &tally) = 0;

    /** Output checks; every failure lands in @p tally. */
    virtual void check(Tally &tally) = 0;

    /** The end-to-end metrics of the statistics gathered so far,
     *  except setup_s and peak_rss_mb (main() adds those). */
    virtual void endToEnd(MetricSet &out) = 0;

    /** Drop the statistics gathered so far (between the untraced
     *  and the traced phase of a traced run). */
    virtual void resetStats() = 0;

    /** Name of the throughput metric the tracing overhead is
     *  quoted on ("cells_per_s" or "qps"). */
    virtual const char *rateMetric() const = 0;

    /** Traced runs only: direct calls into layers this workload
     *  reaches only through another process or thread (spans). */
    virtual void probes(Tally &) {}

    /** Release large inputs and stop any threads. */
    virtual void teardown() {}
};

std::unique_ptr<Workload> makeFig41(const Options &opts);
std::unique_ptr<Workload> makeOptimalL1(const Options &opts);
std::unique_ptr<Workload> makeServeMix(const Options &opts);

/** Median-of-passes rate helpers for the grid workloads. */
struct PassLog
{
    std::vector<double> seconds, cells, ops;
    /** Per pass, the latency of each operation, in the same order
     *  every pass. */
    std::vector<std::vector<double>> opLatUs;
    void clear()
    {
        seconds.clear();
        cells.clear();
        ops.clear();
        opLatUs.clear();
    }
    /** cells_per_s, qps, lat_p50_us, lat_p99_us. */
    void metrics(MetricSet &out, const std::string &op_name) const;
};

} // namespace mlcbench

#endif // MLCBENCH_WORKLOADS_HH
