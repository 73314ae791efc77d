#include "common.hh"
#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <mutex>

#include "bench_common.hh"
#include "expt/runner.hh"
#include "onepass/grid.hh"
#include "util/logging.hh"

namespace mlcbench {

using namespace mlc;

void
Tally::fail(const std::string &why)
{
    static std::mutex mu;
    std::lock_guard<std::mutex> lk(mu);
    ++failed;
    std::cerr << "mlcbench: CHECK FAILED: " << why << "\n";
}

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit, const std::string &note)
{
    for (Entry &e : entries)
        if (e.name == name) {
            e = {name, value, unit, note};
            return;
        }
    entries.push_back({name, value, unit, note});
}

const MetricSet::Entry *
MetricSet::find(const std::string &name) const
{
    for (const Entry &e : entries)
        if (e.name == name)
            return &e;
    return nullptr;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
secondsSince(std::int64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) * 1e-9;
}

double
peakRssMb()
{
    return static_cast<double>(bench::maxRssKb()) / 1024.0;
}

std::vector<expt::TraceSpec>
seededSpecs(std::vector<expt::TraceSpec> specs, std::uint64_t seed,
            std::uint64_t warm, std::uint64_t measure)
{
    // scaledWarmup() multiplies by suiteScale(), a power-of-two
    // fraction for every MLC_QUICK value the benchmark pins, so the
    // division below is exact.
    const double scale = expt::suiteScale();
    for (expt::TraceSpec &s : specs) {
        s.variant += 8 * seed;
        s.warmupRefs = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(warm) / scale));
        s.measureRefs = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(measure) / scale));
        if (expt::scaledWarmup(s) != warm ||
            expt::scaledMeasure(s) != measure)
            mlc_fatal("mlcbench: trace lengths do not survive the "
                      "MLC_QUICK scale ", scale);
    }
    return specs;
}

expt::TraceStore
materializeTraced(std::vector<expt::TraceSpec> specs)
{
    expt::TraceStore store = expt::TraceStore::deferred(
        std::move(specs), [](const expt::TraceSpec &spec) {
            Span span("trace.materialize");
            std::vector<trace::MemRef> refs = expt::materialize(spec);
            Tracer::instance().count("trace.refs",
                                     static_cast<double>(refs.size()));
            return refs;
        });
    store.ensureAll(kJobs);
    return store;
}

std::vector<std::uint32_t>
fig41Cycles()
{
    return {1, 2, 3, 4, 6, 8, 10};
}

AccuracyPass
runAccuracyPass(const hier::HierarchyParams &base,
                const expt::TraceStore &store)
{
    const std::vector<std::uint64_t> sizes = expt::paperSizes();
    const std::vector<std::uint32_t> cycles = fig41Cycles();
    const std::size_t cells = sizes.size() * cycles.size();
    std::uint64_t refs_per_cell = 0;
    for (std::size_t t = 0; t < store.size(); ++t)
        refs_per_cell += store.span(t).size;

    AccuracyPass out{expt::DesignSpaceGrid(sizes, cycles),
                     expt::DesignSpaceGrid(sizes, cycles),
                     std::vector<double>(cells),
                     std::vector<double>(cells),
                     std::vector<double>(cells)};
    const auto slotOf = [&](std::uint64_t size, std::uint32_t cyc) {
        const std::size_t s = static_cast<std::size_t>(
            std::find(sizes.begin(), sizes.end(), size) -
            sizes.begin());
        const std::size_t c = static_cast<std::size_t>(
            std::find(cycles.begin(), cycles.end(), cyc) -
            cycles.begin());
        return s * cycles.size() + c;
    };

    const std::uint32_t parent = Span::current();
    out.timing = expt::parallelBuildGrid(
        sizes, cycles,
        [&](std::uint64_t size, std::uint32_t cyc) {
            const std::int64_t t0 = nowNs();
            expt::SuiteResults r;
            {
                Span span("hier.cell", parent);
                r = expt::runSuite(base.withL2(size, cyc), store, 1);
            }
            const std::size_t slot = slotOf(size, cyc);
            out.cellUs[slot] = static_cast<double>(nowNs() - t0) / 1e3;
            out.cpi[slot] = r.cpi;
            out.l2LocalMiss[slot] =
                r.localMiss.empty() ? 0.0 : r.localMiss[0];
            return r.relExecTime;
        },
        kJobs);
    Tracer &tr = Tracer::instance();
    tr.count("hier.cells", static_cast<double>(cells));
    tr.count("hier.refs", static_cast<double>(cells * refs_per_cell));
    for (std::size_t i = 0; i < cells; ++i) {
        tr.count("hier.cpi_sum", out.cpi[i]);
        tr.count("hier.l2_local_miss_sum", out.l2LocalMiss[i]);
    }

    {
        Span span("onepass.buildGrid");
        out.onepass =
            onepass::buildGrid(base, sizes, cycles, store, kJobs);
    }
    return out;
}

void
accuracyMetrics(const AccuracyPass &pass, MetricSet &out)
{
    const expt::DesignSpaceGrid &t = pass.timing;
    const expt::DesignSpaceGrid &o = pass.onepass;
    double max_err = 0.0, sum_err = 0.0;
    std::size_t n = 0;
    for (std::size_t s = 0; s < t.sizes().size(); ++s)
        for (std::size_t c = 0; c < t.cycles().size(); ++c) {
            const double err =
                std::fabs(o.at(s, c) - t.at(s, c)) / t.at(s, c);
            max_err = std::max(max_err, err);
            sum_err += err;
            ++n;
        }
    // Fig 4-2's shaded regions: each adjacent-size interval is
    // classified by its steepest constant-performance slope.
    const std::vector<double> ts = t.maxSlopePerInterval();
    const std::vector<double> os = o.maxSlopePerInterval();
    std::size_t agree = 0;
    for (std::size_t i = 0; i < ts.size(); ++i)
        if (std::string(expt::slopeRegionName(ts[i])) ==
            expt::slopeRegionName(os[i]))
            ++agree;
    out.set("model_err_max", max_err, "ratio",
            "max |onepass-timing|/timing over " + std::to_string(n) +
                " Fig 4-1 cells");
    out.set("model_err_mean", sum_err / static_cast<double>(n),
            "ratio", "mean over the same cells");
    out.set("region_agree",
            static_cast<double>(agree) / static_cast<double>(ts.size()),
            "ratio",
            std::to_string(agree) + "/" + std::to_string(ts.size()) +
                " size intervals in the same Fig 4-2 slope region");
}

bool
sameGrid(const expt::DesignSpaceGrid &a, const expt::DesignSpaceGrid &b)
{
    if (a.sizes() != b.sizes() || a.cycles() != b.cycles())
        return false;
    for (std::size_t s = 0; s < a.sizes().size(); ++s)
        for (std::size_t c = 0; c < a.cycles().size(); ++c)
            if (a.at(s, c) != b.at(s, c))
                return false;
    return true;
}

void
accuracyAudit(std::uint64_t seed, MetricSet &out)
{
    const expt::TraceStore store = expt::TraceStore::materialize(
        seededSpecs(expt::gridSuite(), seed, kFig41Warm,
                    kFig41Measure),
        kJobs);
    const bool was = Tracer::instance().enabled();
    Tracer::instance().setEnabled(false); // not part of any layer
    const AccuracyPass pass =
        runAccuracyPass(hier::HierarchyParams::baseMachine(), store);
    Tracer::instance().setEnabled(was);
    accuracyMetrics(pass, out);
}

void
PassLog::metrics(MetricSet &out, const std::string &op_name) const
{
    std::vector<double> cell_rate, op_rate;
    for (std::size_t i = 0; i < seconds.size(); ++i) {
        cell_rate.push_back(cells[i] / seconds[i]);
        op_rate.push_back(ops[i] / seconds[i]);
    }
    const std::string passes = std::to_string(seconds.size());
    out.set("cells_per_s", median(cell_rate), "1/s",
            "median over " + passes + " passes");
    out.set("qps", median(op_rate), "1/s",
            op_name + " per second, median over " + passes +
                " passes");
    // Every pass runs the same operations in the same order, so each
    // operation's latency is its median over the passes, and p50 and
    // p99 are taken over those medians: a slow stretch of the shared
    // host then moves them only if it covers half the passes.
    std::vector<double> op_median;
    for (std::size_t j = 0; !opLatUs.empty() && j < opLatUs[0].size();
         ++j) {
        std::vector<double> per_pass;
        for (const std::vector<double> &pass : opLatUs)
            per_pass.push_back(pass.at(j));
        op_median.push_back(median(per_pass));
    }
    const std::string n = std::to_string(op_median.size()) +
                          " operations x " + passes + " passes";
    out.set("lat_p50_us", percentile(op_median, 0.50), "us",
            op_name + " latency, " + n);
    out.set("lat_p99_us", percentile(op_median, 0.99), "us",
            op_name + " latency, " + n);
}

} // namespace mlcbench
