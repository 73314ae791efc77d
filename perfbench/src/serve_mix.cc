/**
 * @file
 * serve_mix: an in-process serve::Server (jobs=2) on a unix socket,
 * driven by one closed-loop client connection with a seeded NDJSON
 * stream. 90% of requests are memo hits (hot one-pass queries and
 * sweeps over the base machine); the rest are cold: one-pass
 * queries and sweeps over more (l1_total, l2_assoc) families than
 * the memo and profile caches hold, depth-3 cascade queries, and
 * sampled queries against a checkpoint farm that starts empty each
 * run (first use of a schedule seed writes the farm, later ones
 * load it). So p50 falls on memo hits and p99 on engine runs.
 *
 * One connection, not several: a cold request keeps the engine busy
 * 300-500 times as long as a hit, so concurrent closed-loop clients
 * spend nearly all their time queued on the engine mutex. A second
 * client added no throughput, and its hits competed with the engine
 * workers for CPUs, so qps and p99 measured thread placement on the
 * shared host instead of the server.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <map>
#include <numeric>
#include <unordered_map>

#include "ckpt/store.hh"
#include "sample/sweep.hh"
#include "serve/json.hh"
#include "serve/loadgen.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace mlcbench {

using namespace mlc;

namespace {

/** MLC_QUICK pin for the server's built-in workloads: the grid
 *  suite at 1/16 of paper length (25K warm-up + 75K measured refs
 *  a trace), so a cold one-pass query costs a few milliseconds. */
const char *const kServeQuick = "16";

/** Canary: the first kCanaryLines requests of the default seed's
 *  stream, replayed after every run. The FNV-1a digest of
 *  their stripVolatile'd responses (one per line) must equal
 *  kCanaryDigest; `mlcbench --print-canary` recomputes it. */
constexpr std::size_t kCanaryLines = 400;
constexpr std::uint64_t kCanaryDigest = 0x91233506721a4223ULL;

/** Length of the segments the end-to-end metrics are medians over:
 *  about 3000 requests, so each segment's p99 has about 30 samples
 *  beyond it. */
constexpr double kSegment = 3.0;

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The kinds of request in the mix, and how many of each every
 *  block of kBlock consecutive requests holds. */
enum Kind : int
{
    HotQuery,    //!< memo hit: a base-machine Fig 4-1 cell
    HotSweep,    //!< memo hit: one of four base-machine sweeps
    ColdQuery,   //!< one-pass query over a non-base family
    ColdSweep,   //!< one-pass sweep over a non-base family
    Cascade,     //!< depth-3 query: the cascade engine
    Sampled,     //!< sampled query against the checkpoint farm
    NumKinds
};

constexpr std::size_t kBlock = 100;
constexpr std::size_t kPerBlock[NumKinds] = {88, 2, 5, 1, 2, 2};
static_assert(std::accumulate(std::begin(kPerBlock), std::end(kPerBlock),
                              std::size_t{0}) == kBlock);
constexpr const char *kKindName[NumKinds] = {
    "hot_query", "hot_sweep", "cold_query",
    "cold_sweep", "cascade", "sampled"};

/** The seeded request stream. The mix is stratified:
 *  every block of kBlock requests holds exactly kPerBlock[k] of
 *  kind k, in a seeded order, so seeds differ in which requests
 *  they send and in their order but not in the share of each kind
 *  (a seed's draw of kinds would otherwise move qps and p99). */
class Stream
{
  public:
    explicit Stream(std::uint64_t seed)
        : rng_(seed * 0x9e3779b97f4a7c15ULL + 0x51ed27),
          hot_(zipf(expt::paperSizes().size() *
                    expt::paperCycles().size()))
    {
    }

    /** Next request line and the number of design cells it asks
     *  for. */
    std::string
    next(std::size_t &cells)
    {
        Kind kind;
        return next(cells, kind);
    }

    std::string
    next(std::size_t &cells, Kind &kind)
    {
        if (pos_ == block_.size())
            refill();
        kind = block_[pos_++];
        const auto sizes = expt::paperSizes();
        const auto cycles = expt::paperCycles();
        cells = 1;
        switch (kind) {
        case HotQuery: {
            // Zipf over the base machine's Fig 4-1 cells.
            const std::size_t i = hot_.sample(rng_);
            return query("onepass", sizes[i / cycles.size()],
                         cycles[i % cycles.size()], "");
        }
        case HotSweep: {
            const std::size_t k = rng_.nextBounded(4);
            std::vector<std::uint64_t> sw(sizes.begin() + k,
                                          sizes.begin() + k + 6);
            cells = sw.size() * 3;
            return sweep(sw, {2, 5, 8}, "");
        }
        case ColdQuery: {
            // A non-base (L1, L2 assoc) family: 12 of them, more
            // than the profile cache holds.
            const std::uint64_t l1 = std::uint64_t{8192}
                                     << rng_.nextBounded(4);
            const std::uint32_t assoc =
                1u << rng_.nextBounded(3);
            std::uint64_t size = sizes[rng_.nextBounded(sizes.size())];
            size = std::max(size, 2 * l1);
            return query("onepass", size,
                         cycles[rng_.nextBounded(cycles.size())],
                         ",\"l1_total\":" + std::to_string(l1) +
                             ",\"l2_assoc\":" + std::to_string(assoc));
        }
        case ColdSweep: {
            const std::uint64_t l1 = std::uint64_t{8192}
                                     << rng_.nextBounded(4);
            const std::size_t lo = 4 + rng_.nextBounded(4);
            std::vector<std::uint64_t> sw(sizes.begin() + lo,
                                          sizes.begin() + lo + 3);
            const std::uint32_t c0 =
                1 + static_cast<std::uint32_t>(rng_.nextBounded(6));
            cells = sw.size() * 2;
            return sweep(sw, {c0, c0 + 3},
                         ",\"l1_total\":" + std::to_string(l1) +
                             ",\"l2_assoc\":2");
        }
        case Cascade: {
            // One pivot L2 per query.
            const std::uint64_t l2 = std::uint64_t{16384}
                                     << rng_.nextBounded(4);
            const std::uint64_t l3 = std::uint64_t{1} << 20
                                     << rng_.nextBounded(3);
            return query(
                "onepass", l2,
                1 + static_cast<std::uint32_t>(rng_.nextBounded(4)),
                ",\"l1_total\":" +
                    std::to_string(4096u << rng_.nextBounded(2)) +
                    ",\"l3_size\":" + std::to_string(l3) +
                    ",\"l3_cycles\":" +
                    std::to_string(5 + rng_.nextBounded(6)) +
                    ",\"l3_assoc\":" +
                    std::to_string(1u << rng_.nextBounded(2)));
        }
        default:
            // Four schedule seeds, so each seed's first use tees
            // the farm and later uses load it.
            return query("sampled",
                         sizes[rng_.nextBounded(sizes.size())],
                         cycles[rng_.nextBounded(cycles.size())],
                         ",\"seed\":" +
                             std::to_string(1 + rng_.nextBounded(4)));
        }
    }

    /** Every hot line (the memo is primed with these). */
    static std::vector<std::string>
    hotLines()
    {
        std::vector<std::string> out;
        const auto sizes = expt::paperSizes();
        for (const std::uint64_t s : sizes)
            for (const std::uint32_t c : expt::paperCycles())
                out.push_back(query("onepass", s, c, ""));
        for (std::size_t k = 0; k < 4; ++k)
            out.push_back(sweep({sizes.begin() + k, sizes.begin() + k + 6},
                                {2, 5, 8}, ""));
        return out;
    }

  private:
    static DiscreteSampler
    zipf(std::size_t n)
    {
        std::vector<double> w(n);
        for (std::size_t i = 0; i < n; ++i)
            w[i] = 1.0 / std::pow(static_cast<double>(i + 1), 0.99);
        return DiscreteSampler(w);
    }

    static std::string
    query(const char *engine, std::uint64_t size, std::uint32_t cyc,
          const std::string &extra)
    {
        return std::string("{\"op\":\"query\",\"engine\":\"") + engine +
               "\",\"workload\":\"grid\",\"l2_size\":" +
               std::to_string(size) +
               ",\"l2_cycles\":" + std::to_string(cyc) + extra + "}";
    }

    static std::string
    sweep(const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const std::string &extra)
    {
        std::string s = "{\"op\":\"sweep\",\"engine\":\"onepass\","
                        "\"workload\":\"grid\",\"sizes\":[";
        for (std::size_t i = 0; i < sizes.size(); ++i)
            s += (i ? "," : "") + std::to_string(sizes[i]);
        s += "],\"cycles\":[";
        for (std::size_t i = 0; i < cycles.size(); ++i)
            s += (i ? "," : "") + std::to_string(cycles[i]);
        return s + "]" + extra + "}";
    }

    /** The next block's kinds, shuffled (Fisher-Yates). */
    void
    refill()
    {
        block_.clear();
        for (int k = 0; k < NumKinds; ++k)
            block_.insert(block_.end(), kPerBlock[k],
                          static_cast<Kind>(k));
        for (std::size_t i = block_.size() - 1; i > 0; --i)
            std::swap(block_[i], block_[rng_.nextBounded(i + 1)]);
        pos_ = 0;
    }

    Rng rng_;
    DiscreteSampler hot_;
    std::vector<Kind> block_;
    std::size_t pos_ = 0;
};

/** One completed request as the client saw it. */
struct Sample
{
    std::int64_t doneNs;
    double rttUs;
    double computeUs;
    std::uint32_t cells;
    bool cached;
    bool ok;
    std::uint64_t lineHash;
    std::uint64_t respHash;
    Kind kind;
};

bool
roundTrip(serve::LineClient &c, const std::string &line,
          std::string &resp)
{
    return c.sendLine(line) && c.recvLine(resp);
}

double
numberAfter(const std::string &s, const char *key)
{
    const std::size_t at = s.find(key);
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(s.c_str() + at + std::strlen(key), nullptr);
}

/** The server's stats verb, as flat "section.field" numbers. */
std::map<std::string, double>
statsSnapshot(const std::string &socket)
{
    serve::LineClient c(socket);
    std::string resp, err;
    std::map<std::string, double> out;
    serve::Json doc;
    if (!roundTrip(c, "{\"op\":\"stats\"}", resp) ||
        !serve::Json::parse(resp, doc, err))
        return out;
    const serve::Json *stats = doc.find("stats");
    if (!stats)
        return out;
    for (const char *section : {"counters", "memo", "profiles"}) {
        const serve::Json *sec = stats->find(section);
        if (!sec || !sec->isObject())
            continue;
        for (const auto &[k, v] : sec->members())
            if (v.isNumber())
                out[std::string(section) + "." + k] = v.asNumber();
    }
    return out;
}

class ServeMix final : public Workload
{
  public:
    explicit ServeMix(const Options &opts)
        : opts_(opts), dir_(opts.scratch + "/serve-" +
                            std::to_string(::getpid())),
          socket_(dir_ + "/s.sock"), farm_(dir_ + "/farm")
    {
    }

    ~ServeMix() override { teardown(); }

    void
    setup() override
    {
        stopServer();
        ::setenv("MLC_QUICK", kServeQuick, 1);
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        serve::ServerOptions so;
        so.socketPath = socket_;
        so.jobs = kJobs;
        so.memoCapacity = 256;
        so.profileCapacity = 4;
        so.checkpointDir = farm_;
        server_ = std::make_unique<serve::Server>(so);
        server_->start();

        serve::LineClient c(socket_);
        std::string resp;
        if (!roundTrip(c, "{\"op\":\"warm\",\"workload\":\"grid\"}",
                       resp) ||
            resp.find("\"ok\":true") == std::string::npos)
            mlc_fatal("mlcbench: serve warm verb failed: ", resp);
        // Prime the memo with every hot request, pipelined, so the
        // one-pass queries collapse into one engine call.
        const std::vector<std::string> hot = Stream::hotLines();
        for (const std::string &l : hot)
            c.sendLine(l);
        for (std::size_t i = 0; i < hot.size(); ++i)
            if (!c.recvLine(resp) ||
                resp.find("\"ok\":true") == std::string::npos)
                mlc_fatal("mlcbench: priming request failed: ", resp);
    }

    void
    run(double seconds, int, Tally &tally) override
    {
        const std::map<std::string, double> before =
            statsSnapshot(socket_);
        const std::int64_t t0 = nowNs();
        phaseStartNs_ = t0;
        const std::int64_t stop =
            t0 + static_cast<std::int64_t>(seconds * 1e9);
        std::vector<Sample> done;
        clientLoop(stop, done);
        elapsedS_ += secondsSince(t0);
        const std::map<std::string, double> after =
            statsSnapshot(socket_);
        for (const auto &[k, v] : after) {
            const auto it = before.find(k);
            delta_[k] += v - (it == before.end() ? 0.0 : it->second);
        }
        for (const Sample &s : done) {
            ++tally.attempted;
            if (!s.ok) {
                tally.fail("serve_mix: non-ok response");
                continue;
            }
            // The same request must always get the same answer,
            // cached or computed.
            const auto [it, fresh] =
                answers_.emplace(s.lineHash, s.respHash);
            if (!fresh && it->second != s.respHash)
                tally.fail("serve_mix: response changed for a "
                           "repeated request");
        }
        samples_.insert(samples_.end(), done.begin(), done.end());
    }

    void
    check(Tally &tally) override
    {
        ++tally.attempted;
        const std::uint64_t d = canaryDigest();
        if (d != kCanaryDigest) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "0x%016llx",
                          static_cast<unsigned long long>(d));
            tally.fail(std::string("serve_mix: canary digest ") + buf +
                       " does not match the recorded one");
        }
    }

    /** Digest of the canary replay (stripVolatile'd responses). */
    std::uint64_t
    canaryDigest()
    {
        Stream canary(kDefaultSeed);
        serve::LineClient c(socket_);
        std::uint64_t h = 0xcbf29ce484222325ULL;
        std::string resp;
        std::size_t cells = 0;
        for (std::size_t i = 0; i < kCanaryLines; ++i) {
            if (!roundTrip(c, canary.next(cells), resp))
                return 0;
            h = fnv1a(serve::stripVolatile(resp) + "\n", h);
        }
        return h;
    }

    void
    endToEnd(MetricSet &out) override
    {
        // Every metric is computed per kSegment-second segment of
        // the run and reported as the median over segments, so a
        // stretch in which the shared host runs slow moves it only
        // if it covers half the run.
        const double seg =
            elapsedS_ >= 2 * kSegment ? kSegment : elapsedS_;
        const std::size_t nseg = std::max<std::size_t>(
            1, static_cast<std::size_t>(elapsedS_ / seg));
        std::vector<std::vector<double>> lat(nseg);
        std::vector<double> cells(nseg, 0.0);
        for (const Sample &s : samples_) {
            const auto w = static_cast<std::size_t>(
                static_cast<double>(s.doneNs - phaseStartNs_) * 1e-9 /
                seg);
            if (w < nseg) {
                lat[w].push_back(s.rttUs);
                cells[w] += s.cells;
            }
        }
        std::vector<double> qps, cps, p50, p99;
        std::size_t least = samples_.size();
        for (std::size_t w = 0; w < nseg; ++w) {
            qps.push_back(static_cast<double>(lat[w].size()) / seg);
            cps.push_back(cells[w] / seg);
            p50.push_back(percentile(lat[w], 0.50));
            p99.push_back(percentile(lat[w], 0.99));
            least = std::min(least, lat[w].size());
        }
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "median of %zu segments of %.3g s, n>=%zu each",
                      nseg, seg, least);
        const std::string note = buf;
        // Where p50 and p99 fall: per request kind, its count, the
        // share answered from the memo, its round-trip median and
        // tail, and its share of the client's time.
        double total_us = 0.0;
        for (const Sample &s : samples_)
            total_us += s.rttUs;
        std::printf("request mix (kind: n, memo hits, rtt p50 / p90 "
                    "us, share of time):\n");
        for (int k = 0; k < NumKinds; ++k) {
            std::vector<double> rtt;
            double hits = 0.0, us = 0.0;
            for (const Sample &s : samples_)
                if (s.kind == k) {
                    rtt.push_back(s.rttUs);
                    hits += s.cached ? 1.0 : 0.0;
                    us += s.rttUs;
                }
            std::printf("  %-10s %7zu  %5.1f%%  %9.1f / %9.1f  %5.1f%%\n",
                        kKindName[k], rtt.size(),
                        100.0 * hits / std::max<double>(rtt.size(), 1),
                        percentile(rtt, 0.5), percentile(rtt, 0.9),
                        100.0 * us / std::max(total_us, 1.0));
        }
        out.set("cells_per_s", median(cps), "1/s",
                "design cells answered, " + note);
        out.set("qps", median(qps), "1/s", "responses, " + note);
        out.set("lat_p50_us", median(p50), "us",
                "client round trip, " + note);
        out.set("lat_p99_us", median(p99), "us",
                "client round trip, " + note);
    }

    void
    resetStats() override
    {
        samples_.clear();
        delta_.clear();
        elapsedS_ = 0.0;
    }

    const char *rateMetric() const override { return "qps"; }

    void probes(Tally &tally) override;

    void
    teardown() override
    {
        stopServer();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
        ::unsetenv("MLC_QUICK");
    }

  private:
    /** The closed loop: send the stream's next request only after
     *  the previous response is in. */
    void
    clientLoop(std::int64_t stop, std::vector<Sample> &out)
    {
        Stream stream(opts_.seed);
        serve::LineClient c(socket_);
        std::string resp;
        std::size_t cells = 0;
        out.reserve(1 << 16);
        while (nowNs() < stop) {
            Kind kind;
            const std::string line = stream.next(cells, kind);
            const std::int64_t s0 = nowNs();
            const bool io = roundTrip(c, line, resp);
            const std::int64_t s1 = nowNs();
            Sample s;
            s.doneNs = s1;
            s.rttUs = static_cast<double>(s1 - s0) / 1e3;
            s.ok = io && resp.find("\"ok\":true") != std::string::npos;
            s.cached = resp.find("\"cached\":true") != std::string::npos;
            s.computeUs = numberAfter(resp, "\"compute_us\":");
            s.cells = static_cast<std::uint32_t>(cells);
            s.kind = kind;
            s.lineHash = fnv1a(line);
            s.respHash = fnv1a(serve::stripVolatile(resp));
            out.push_back(s);
            if (!io)
                break;
        }
    }

    void
    stopServer()
    {
        if (!server_)
            return;
        {
            serve::LineClient c(socket_);
            std::string resp;
            roundTrip(c, "{\"op\":\"shutdown\"}", resp);
        }
        server_->join();
        server_.reset();
    }

    void layerStats();
    void sampleProbe(Tally &tally);

    Options opts_;
    std::string dir_, socket_, farm_;
    std::unique_ptr<serve::Server> server_;
    std::vector<Sample> samples_;
    std::unordered_map<std::uint64_t, std::uint64_t> answers_;
    std::map<std::string, double> delta_;
    double elapsedS_ = 0.0;
    std::int64_t phaseStartNs_ = 0;
};

void
ServeMix::probes(Tally &tally)
{
    layerStats();
    Tracer &tr = Tracer::instance();

    // Protocol layer, called directly on the run's own requests.
    Stream stream(opts_.seed);
    std::vector<std::string> lines;
    std::size_t cells = 0;
    for (int i = 0; i < 20000; ++i)
        lines.push_back(stream.next(cells));
    {
        Span span("serve.parse");
        std::size_t ok = 0;
        for (const std::string &l : lines)
            ok += serve::parseRequest(l).ok ? 1 : 0;
        if (ok != lines.size())
            tally.fail("serve_mix: parseRequest rejected a stream line");
    }
    tr.count("serve.parse_reqs", static_cast<double>(lines.size()));

    // Memo-hit handling in process, and the response builder on the
    // payload a hit returns.
    const std::vector<std::string> hot = Stream::hotLines();
    std::vector<std::string> payloads;
    {
        Span span("serve.handle_hit");
        for (int rep = 0; rep < 40; ++rep)
            for (std::size_t i = 0; i < 110; ++i) {
                const std::string r = server_->handleLine(hot[i]);
                if (rep == 0) {
                    const std::size_t a = r.find("\"ok\":true,");
                    const std::size_t b = r.find(",\"cached\"");
                    if (a != std::string::npos && b != std::string::npos)
                        payloads.push_back(r.substr(a + 10, b - a - 10));
                }
            }
    }
    tr.count("serve.handle_reqs", 40.0 * 110.0);
    {
        Span span("serve.respond");
        std::size_t bytes = 0;
        for (int rep = 0; rep < 100; ++rep)
            for (const std::string &p : payloads)
                bytes += serve::okResponse("", p, true, 0).size();
        if (bytes == 0)
            tally.fail("serve_mix: no hit payloads to respond with");
    }
    tr.count("serve.respond_reqs", 100.0 * static_cast<double>(payloads.size()));
    sampleProbe(tally);
}

void
ServeMix::layerStats()
{
    Tracer &tr = Tracer::instance();
    const auto d = [&](const char *k) {
        const auto it = delta_.find(k);
        return it == delta_.end() ? 0.0 : it->second;
    };
    tr.count("serve.memo_hits", d("memo.hits"));
    tr.count("serve.memo_lookups", d("memo.hits") + d("memo.misses"));
    tr.count("serve.profile_hits", d("profiles.hits"));
    tr.count("serve.profile_lookups",
             d("profiles.hits") + d("profiles.misses"));
    tr.count("serve.engine_runs", d("counters.engine_runs"));
    tr.count("serve.ckpt_loads", d("counters.ckpt_loads"));
    tr.count("serve.ckpt_builds", d("counters.ckpt_builds"));
    tr.count("serve.ckpt_fallbacks", d("counters.ckpt_fallbacks"));

    std::vector<double> compute_ms, wait_ms, hit_rtt;
    for (const Sample &s : samples_) {
        if (s.cached) {
            hit_rtt.push_back(s.rttUs);
        } else if (s.computeUs >= 0) {
            compute_ms.push_back(s.computeUs / 1e3);
            wait_ms.push_back((s.rttUs - s.computeUs) / 1e3);
        }
    }
    tr.count("serve.compute_ms_p50", median(compute_ms));
    tr.count("serve.engine_wait_ms_p50", median(wait_ms));
    tr.count("serve.hit_rtt_p50_us", median(hit_rtt));
}

/** Sampled warming with and without a farm entry, and the farm's
 *  own write and read paths, on the server's first grid trace. */
void
ServeMix::sampleProbe(Tally &tally)
{
    Tracer &tr = Tracer::instance();
    const expt::TraceSpec spec = expt::gridSuite()[0];
    const std::vector<trace::MemRef> refs = expt::materialize(spec);
    const trace::RefSpan span{refs.data(), refs.size()};
    const hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine();
    const std::vector<hier::HierarchyParams> configs = {
        base.withL2(512 << 10, 3), base.withL2(1 << 20, 5)};
    for (int rep = 0; rep < 3; ++rep) {
        const std::string root = dir_ + "/probe-farm";
        std::filesystem::remove_all(root);
        ckpt::CheckpointStore store(root);
        sample::SampledOptions so;
        sample::CheckpointPolicy policy;
        policy.store = &store;
        policy.traceId = "probe/" + spec.name;
        sample::SweepResult miss, hit;
        {
            Span s("sample.warm_sweep");
            miss = sample::runSweepCheckpointed(configs, span, so, kJobs,
                                                nullptr, policy);
        }
        {
            Span s("sample.farm_sweep");
            hit = sample::runSweepCheckpointed(configs, span, so, kJobs,
                                               nullptr, policy);
        }
        tally.attempted += 1;
        if (!hit.fromCheckpointFile ||
            hit.perConfig[0].estCpi != miss.perConfig[0].estCpi ||
            hit.perConfig[1].estCpi != miss.perConfig[1].estCpi)
            tally.fail("serve_mix: farm-loaded sweep differs from the "
                       "warmed one (or did not load)");

        so.seed = 2; // a schedule the farm does not hold yet
        sample::FarmBuildResult built;
        {
            Span s("ckpt.write");
            built = sample::buildCheckpointFarm(configs, span, so, store,
                                                policy.traceId);
        }
        tr.count("ckpt.write_bytes", static_cast<double>(built.fileBytes));
        tr.count("ckpt.bytes", static_cast<double>(built.fileBytes));
        {
            Span s("ckpt.read");
            ckpt::CheckpointReader reader;
            std::string err;
            std::vector<hier::BoundaryOp> ops;
            hier::WarmSnapshot snap;
            SnapshotArena arena;
            bool ok = reader.open(built.path, &err);
            for (std::size_t w = 0; ok && w < reader.meta().windows; ++w)
                ok = reader.loadWindow(w, ops, snap, arena);
            ++tally.attempted;
            if (!ok)
                tally.fail("serve_mix: checkpoint read-back failed: " +
                           err);
        }
        tr.count("ckpt.read_bytes", static_cast<double>(built.fileBytes));
        std::filesystem::remove_all(root);
    }
    tr.count("ckpt.reps", 3.0);
}

} // namespace

std::unique_ptr<Workload>
makeServeMix(const Options &opts)
{
    return std::make_unique<ServeMix>(opts);
}

std::uint64_t
serveCanaryDigest(const Options &opts)
{
    ServeMix w(opts);
    w.setup();
    const std::uint64_t d = w.canaryDigest();
    w.teardown();
    return d;
}

} // namespace mlcbench
