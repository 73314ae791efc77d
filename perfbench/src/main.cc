/**
 * @file
 * mlcbench: one process runs one benchmark workload against the
 * mlcsim libraries, checks its outputs, and prints its metrics.
 *
 *   mlcbench --workload fig41_timing|optimal_l1_onepass|serve_mix
 *            --seed N --seconds S --trace 0|1 [--scratch DIR]
 *   mlcbench --print-canary
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the
 * workload untraced and then traced (spans around the benchmark's
 * calls into each module), adds a short companion pass of the other
 * workloads for layers this one never calls, and prints the
 * per-layer metrics. The last stdout line is always one JSON object
 * {"correct","attempted","failed","metrics"}.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_common.hh"
#include "workloads.hh"

namespace mlcbench {
std::uint64_t serveCanaryDigest(const Options &opts);
}

using namespace mlcbench;

namespace {

const std::vector<std::string> kWorkloads = {
    "fig41_timing", "optimal_l1_onepass", "serve_mix"};

std::unique_ptr<Workload>
make(const std::string &name, const Options &opts)
{
    if (name == "fig41_timing")
        return makeFig41(opts);
    if (name == "optimal_l1_onepass")
        return makeOptimalL1(opts);
    return makeServeMix(opts);
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "mlcbench: " << why
              << "\nusage: mlcbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR]\n";
    std::exit(2);
}

double
loadAvg1()
{
    double l[1] = {-1.0};
    return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s)
        out += (c == '"' || c == '\\') ? std::string("\\") + c
                                       : std::string(1, c);
    return out + "\"";
}

/** One per-layer metric: how to compute it from one phase's spans
 *  and counters, and what it should move. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *moves;
    std::function<double(Phase)> value; //!< NaN = not measured
};

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : std::nan("");
}

std::vector<LayerMetric>
layerMetrics()
{
    Tracer &t = Tracer::instance();
    const auto selfPer = [&t](const char *span, const char *counter,
                              double scale) {
        return [&t, span, counter, scale](Phase p) {
            return ratio(t.selfNs(span, p) * scale, t.counter(counter, p));
        };
    };
    const auto cnt = [&t](const char *counter) {
        return [&t, counter](Phase p) {
            return t.hasCounter(counter, p) ? t.counter(counter, p)
                                            : std::nan("");
        };
    };
    const auto per = [&t](const char *a, const char *b) {
        return [&t, a, b](Phase p) {
            return ratio(t.counter(a, p), t.counter(b, p));
        };
    };
    const auto meanMs = [&t](const char *span) {
        return [&t, span](Phase p) {
            std::size_t n = 0;
            const double ns = t.totalNs(span, p, &n);
            return n ? ns / static_cast<double>(n) / 1e6 : std::nan("");
        };
    };
    const auto mbPerS = [&t](const char *span, const char *bytes) {
        return [&t, span, bytes](Phase p) {
            return ratio(t.counter(bytes, p) / 1e6,
                         t.totalNs(span, p) / 1e9);
        };
    };
    const char *setup = "setup_s on all workloads, most on "
                        "optimal_l1_onepass";
    const char *hier = "cells_per_s on fig41_timing; nothing on "
                       "optimal_l1_onepass";
    const char *hierSim = "nothing (simulated; a speed-only change "
                          "must not move it)";
    const char *onep = "cells_per_s on optimal_l1_onepass; lat_p99_us "
                       "on serve_mix; ~1% of fig41_timing";
    const char *mrc = "cells_per_s on optimal_l1_onepass";
    const char *p99 = "lat_p99_us, qps on serve_mix";
    const char *p50 = "lat_p50_us on serve_mix";
    return {
        {"trace.gen_ns_per_ref", "ns", setup,
         selfPer("trace.materialize", "trace.refs", 1.0)},
        {"trace.refs", "count", setup, cnt("trace.refs")},
        {"hier.replay_ns_per_ref", "ns", hier,
         selfPer("hier.cell", "hier.refs", 1.0)},
        {"hier.refs", "count", hier, cnt("hier.refs")},
        {"hier.cells", "count", hier, cnt("hier.cells")},
        {"hier.cpi_mean", "cycles", hierSim,
         per("hier.cpi_sum", "hier.cells")},
        {"hier.l2_local_miss_mean", "ratio", hierSim,
         per("hier.l2_local_miss_sum", "hier.cells")},
        {"onepass.l1filter_ns_per_ref", "ns", onep,
         selfPer("onepass.l1filter", "onepass.l1_refs", 1.0)},
        {"onepass.events_per_ref", "ratio", onep,
         per("onepass.events", "onepass.l1_refs")},
        {"onepass.forest_ns_per_event", "ns", onep,
         selfPer("onepass.forest", "onepass.forest_events", 1.0)},
        {"onepass.solo_ns_per_ref", "ns", onep,
         selfPer("onepass.solo", "onepass.solo_refs", 1.0)},
        {"onepass.cascade_ns_per_event", "ns", onep,
         selfPer("onepass.cascade", "onepass.cascade_events", 1.0)},
        {"onepass.price_ns_per_cell", "ns", onep,
         selfPer("onepass.price", "onepass.price_cells", 1.0)},
        {"mrc.ns_per_event", "ns", mrc,
         selfPer("mrc.forest", "mrc.events", 1.0)},
        {"mrc.kept_ratio", "ratio", mrc,
         per("mrc.kept_rate_sum", "mrc.members")},
        {"sample.warm_sweep_ms", "ms", p99, meanMs("sample.warm_sweep")},
        {"sample.farm_sweep_ms", "ms", p99, meanMs("sample.farm_sweep")},
        {"ckpt.write_mb_per_s", "MB/s", "lat_p99_us on serve_mix",
         mbPerS("ckpt.write", "ckpt.write_bytes")},
        {"ckpt.read_mb_per_s", "MB/s", "lat_p99_us on serve_mix",
         mbPerS("ckpt.read", "ckpt.read_bytes")},
        {"ckpt.bytes", "bytes", "lat_p99_us on serve_mix",
         per("ckpt.bytes", "ckpt.reps")},
        {"serve.parse_ns_per_req", "ns", p50,
         selfPer("serve.parse", "serve.parse_reqs", 1.0)},
        {"serve.respond_ns_per_req", "ns", p50,
         selfPer("serve.respond", "serve.respond_reqs", 1.0)},
        {"serve.hit_handle_us", "us", p50,
         selfPer("serve.handle_hit", "serve.handle_reqs", 1e-3)},
        {"serve.hit_rtt_us", "us", p50,
         [&t](Phase p) {
             return t.counter("serve.hit_rtt_p50_us", p) -
                    ratio(t.selfNs("serve.handle_hit", p) * 1e-3,
                          t.counter("serve.handle_reqs", p));
         }},
        {"serve.memo_hit_ratio", "ratio", p99,
         per("serve.memo_hits", "serve.memo_lookups")},
        {"serve.profile_hit_ratio", "ratio", p99,
         per("serve.profile_hits", "serve.profile_lookups")},
        {"serve.engine_runs", "count", p99, cnt("serve.engine_runs")},
        {"serve.compute_ms_p50", "ms", p99,
         cnt("serve.compute_ms_p50")},
        {"serve.engine_wait_ms", "ms", p99,
         cnt("serve.engine_wait_ms_p50")},
        {"serve.ckpt_loads", "count", p99, cnt("serve.ckpt_loads")},
        {"serve.ckpt_builds", "count", p99, cnt("serve.ckpt_builds")},
        {"serve.ckpt_fallbacks", "count", p99,
         cnt("serve.ckpt_fallbacks")},
    };
}

/** The end-to-end metrics, in BENCHMARK.json order. */
const std::vector<std::string> kEndToEnd = {
    "setup_s",       "cells_per_s",   "qps",
    "lat_p50_us",    "lat_p99_us",    "peak_rss_mb",
    "model_err_max", "model_err_mean", "region_agree"};

void
printMetrics(const MetricSet &m)
{
    for (const MetricSet::Entry &e : m.entries)
        std::cout << "  " << e.name << " = " << num(e.value) << " "
                  << e.unit << (e.note.empty() ? "" : "  (" + e.note + ")")
                  << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool print_canary = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            opts.workload = val();
        else if (a == "--seed")
            opts.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opts.seconds = std::strtod(val().c_str(), nullptr);
        else if (a == "--trace")
            opts.trace = val() == "1";
        else if (a == "--scratch")
            opts.scratch = val();
        else if (a == "--source-digest")
            opts.sourceDigest = val();
        else if (a == "--print-canary")
            print_canary = true;
        else
            usage("unknown argument " + a);
    }

    // Pin the environment: these variables silently change the work
    // (expt::suiteScale() reads MLC_QUICK directly).
    std::string cleared;
    for (const char *var : {"MLC_QUICK", "MLC_JOBS", "MLC_SHARDS"})
        if (const char *v = std::getenv(var)) {
            cleared += std::string(cleared.empty() ? "" : ",") + var +
                       "=" + v;
            ::unsetenv(var);
        }
    if (!cleared.empty())
        std::cerr << "mlcbench: cleared inherited " << cleared << "\n";
    std::filesystem::create_directories(opts.scratch);

    if (print_canary) {
        opts.seed = kDefaultSeed;
        std::printf("0x%016llx\n", static_cast<unsigned long long>(
                                       serveCanaryDigest(opts)));
        return 0;
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), opts.workload) ==
        kWorkloads.end())
        usage("unknown workload '" + opts.workload + "'");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");

    const double load_start = loadAvg1();
    Tally tally;
    MetricSet out;
    Tracer &tracer = Tracer::instance();
    std::cerr << "mlcbench: " << opts.workload << " seed=" << opts.seed
              << " seconds=" << opts.seconds
              << " trace=" << opts.trace << "\n";

    std::unique_ptr<Workload> w = make(opts.workload, opts);
    const std::string w_rate = w->rateMetric();
    if (!opts.trace) {
        const double setup_s = timedSetup([&] { w->setup(); });
        w->run(opts.seconds, 3, tally);
        w->check(tally);
        MetricSet e2e;
        w->endToEnd(e2e);
        // Read before the accuracy audit, whose own traces and
        // grids would otherwise set it.
        e2e.set("peak_rss_mb", peakRssMb(), "MB",
                "process peak RSS through set-up and the timed phase");
        if (!e2e.find("model_err_max"))
            accuracyAudit(kDefaultSeed, e2e);
        e2e.set("setup_s", setup_s, "s",
                "median of " + std::to_string(kSetupReps) + " set-ups");
        w->teardown();
        for (const std::string &name : kEndToEnd)
            if (const MetricSet::Entry *e = e2e.find(name))
                out.entries.push_back(*e);
        std::cout << "end-to-end metrics (" << opts.workload << "):\n";
        printMetrics(out);
    } else {
        // Set-up traced (the trace layer lives there), then the same
        // timed phase untraced and traced for the overhead figure.
        tracer.setEnabled(true);
        w->setup();
        tracer.setEnabled(false);
        // A discarded warm-up first, so the untraced and the traced
        // phase both start from filled caches and farms.
        MetricSet plain, traced;
        w->run(opts.seconds / 4, 1, tally);
        w->resetStats();
        w->run(opts.seconds / 2, 3, tally);
        w->endToEnd(plain);
        w->resetStats();
        tracer.setEnabled(true);
        w->run(opts.seconds / 2, 3, tally);
        w->endToEnd(traced);
        w->probes(tally);
        w->check(tally);
        w->teardown();
        w.reset();

        // Companion passes: the other workloads, briefly, for the
        // layers this one never calls.
        tracer.setPhase(Phase::Companion);
        std::vector<std::string> order;
        for (const std::string &n : kWorkloads)
            if (n != opts.workload && n != "serve_mix")
                order.push_back(n);
        if (opts.workload != "serve_mix")
            order.push_back("serve_mix"); // last: it pins MLC_QUICK
        for (const std::string &n : order) {
            std::cerr << "mlcbench: companion pass " << n << "\n";
            std::unique_ptr<Workload> c = make(n, opts);
            c->setup();
            c->run(2.0, 1, tally);
            c->probes(tally);
            c->check(tally);
            c->teardown();
        }
        tracer.setEnabled(false);

        std::cout << "per-layer metrics (" << opts.workload
                  << "; [main] from this workload's spans, "
                     "[companion] from a companion pass):\n";
        for (const LayerMetric &m : layerMetrics()) {
            double v = m.value(Phase::Main);
            const char *src = "main";
            if (!std::isfinite(v)) {
                v = m.value(Phase::Companion);
                src = "companion";
            }
            out.set(m.name, v, m.unit);
            std::cout << "  " << m.name << " = " << num(v) << " "
                      << m.unit << "  [" << src << "] should move: "
                      << m.moves << "\n";
        }
        std::cout << "  dropped: serve.batched_ratio (the closed-loop "
                     "client never pipelines, so the server never "
                     "batches and it would always read 0)\n";
        const char *rate = w_rate.c_str();
        const double u = plain.find(rate)->value;
        const double t = traced.find(rate)->value;
        std::cout << "tracing overhead: untraced " << rate << " "
                  << num(u) << ", traced " << num(t)
                  << ", slowdown x" << num(u / t) << "\n";
        out.set("tracing.slowdown", u / t, "ratio");
        const std::string spans = opts.scratch + "/spans-" +
                                  opts.workload + "-seed" +
                                  std::to_string(opts.seed) + ".jsonl";
        if (tracer.writeOut(spans))
            std::cout << "spans: " << tracer.spanCount() << " written to "
                      << spans << "\n";
    }

    std::ostringstream stamp;
    stamp << "{\"workload\":" << quote(opts.workload)
          << ",\"seed\":" << opts.seed << ",\"seconds\":" << opts.seconds
          << ",\"trace\":" << (opts.trace ? 1 : 0) << ","
          << mlc::bench::provenanceJson()
          << ",\"source_digest\":" << quote(opts.sourceDigest)
          << ",\"nproc\":" << std::thread::hardware_concurrency()
          << ",\"engine_jobs\":" << kJobs
          << ",\"loadavg1_start\":" << num(load_start)
          << ",\"loadavg1_end\":" << num(loadAvg1())
          << ",\"env_cleared\":" << quote(cleared)
          << ",\"fail_ratio\":"
          << num(ratio(static_cast<double>(tally.failed),
                       static_cast<double>(std::max<std::uint64_t>(
                           tally.attempted, 1))))
          << "}";
    std::cout << "stamp: " << stamp.str() << "\n";

    bool finite = true;
    std::ostringstream js;
    js << "{\"correct\":" << (tally.failed == 0 ? "true" : "false")
       << ",\"attempted\":" << std::max<std::uint64_t>(tally.attempted, 1)
       << ",\"failed\":" << tally.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < out.entries.size(); ++i) {
        const MetricSet::Entry &e = out.entries[i];
        finite = finite && std::isfinite(e.value);
        js << (i ? "," : "") << quote(e.name) << ":{\"value\":"
           << (std::isfinite(e.value) ? num(e.value) : "null")
           << ",\"unit\":" << quote(e.unit) << "}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    if (!finite)
        std::cerr << "mlcbench: a metric was not measured\n";
    return tally.failed == 0 && finite ? 0 : 1;
}
