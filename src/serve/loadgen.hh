/**
 * @file
 * Load generator for the what-if query server.
 *
 * Drives one or more client connections against a serve::Server
 * socket with a seeded, Zipf-skewed stream of query requests —
 * mimicking the access pattern a design-space exploration front-end
 * produces: a few popular configurations asked about over and over
 * (memo hits after the first ask), a long tail of one-off what-ifs
 * (engine work). The mlc_client example, the server tests and
 * perfbench's serve_mix workload sit on top of this.
 *
 * Two driving modes:
 *  - closed loop: each client sends one request, waits for its
 *    response, records the round-trip latency, repeats. Latency
 *    percentiles are meaningful here.
 *  - open loop: each client keeps a fixed window of pipelined
 *    requests outstanding, which is also what exercises the
 *    server's batch collapsing (pipelined one-pass queries sharing
 *    their non-grid knobs become one engine call).
 *
 * Everything is deterministic for a fixed seed: client c draws its
 * request stream from split(seed, c), so a run is reproducible and
 * a serial re-run of the same streams is comparable
 * response-for-response.
 */

#ifndef MLC_SERVE_LOADGEN_HH
#define MLC_SERVE_LOADGEN_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mlc {
namespace serve {

/** Knobs of one load-generation run. */
struct LoadGenOptions
{
    std::string socketPath;
    /** Concurrent client connections. */
    std::size_t clients = 1;
    /** Requests issued per client. */
    std::size_t requests = 100;
    /** Base seed; client c uses a stream derived from (seed, c). */
    std::uint64_t seed = 1;
    /** Zipf exponent of configuration popularity (0 = uniform;
     *  ~0.99 = classic heavy skew). Rank order over the config
     *  universe is a seeded shuffle, so which config is "hot"
     *  varies with the seed, not just how hot it is. */
    double zipfTheta = 0.99;
    std::string engine = "onepass";
    std::string workload = "grid";
    /** false = open loop with a pipelined window. */
    bool closedLoop = true;
    /** Outstanding requests per client in open-loop mode. */
    std::size_t pipelineDepth = 16;
};

/** Aggregated outcome of a run (latencies merged across clients). */
struct LoadGenStats
{
    std::uint64_t sent = 0;
    std::uint64_t okResponses = 0;
    std::uint64_t errorResponses = 0;
    /** Responses carrying "cached":true. */
    std::uint64_t cachedResponses = 0;
    double elapsedSec = 0.0;
    double queriesPerSec = 0.0;
    /** @{ @name Round-trip latency (microseconds).
     * Closed loop: per-request. Open loop: per-window-drain, so
     * percentiles are only comparable within a mode. */
    double p50Us = 0.0;
    double p99Us = 0.0;
    double maxUs = 0.0;
    /** @} */
    /** Every individual latency sample, unsorted (callers compute
     *  their own aggregates, e.g. cold-vs-hot splits). */
    std::vector<double> latenciesUs;
};

/**
 * The deterministic request stream client @p client would send:
 * @p n query lines drawn Zipf(@p theta)-skewed from the paper's
 * (size x cycle) design points. Exposed separately so tests can
 * replay the identical stream serially.
 */
std::vector<std::string>
queryStream(const LoadGenOptions &opts, std::size_t client,
            std::size_t n);

/** Run the full load against @p opts.socketPath. Fatal if the
 *  socket cannot be reached. */
LoadGenStats runLoadGen(const LoadGenOptions &opts);

/**
 * @{ @name Minimal line-oriented client
 * What runLoadGen uses per connection; exposed for the example
 * client's interactive mode and the end-to-end tests.
 */
class LineClient
{
  public:
    /** Connect to @p socket_path; fatal on failure. */
    explicit LineClient(const std::string &socket_path);
    ~LineClient();

    LineClient(const LineClient &) = delete;
    LineClient &operator=(const LineClient &) = delete;

    /** Send one request line (newline appended). Returns false when
     *  the server hung up. */
    bool sendLine(const std::string &line);
    /** Block for the next response line (newline stripped). Returns
     *  false on EOF. */
    bool recvLine(std::string &out);

  private:
    int fd_ = -1;
    std::string buffer_;
};
/** @} */

/** Drop the "cached" and "compute_us" fields from a response line —
 *  the only legitimately volatile parts. What remains must be
 *  byte-identical between a cold computation, a memo replay, and
 *  any serial/concurrent schedule (the server tests gate on
 *  this). */
std::string stripVolatile(const std::string &response);

} // namespace serve
} // namespace mlc

#endif // MLC_SERVE_LOADGEN_HH
