/**
 * @file
 * Client for the what-if query daemon (mlc_serve).
 *
 * Three modes:
 *
 *  - line mode (default): each line on stdin is sent as one
 *    request, each response printed to stdout — the composable
 *    one-liner:
 *      $ echo '{"op":"stats"}' | ./mlc_client --socket=/tmp/mlc.sock
 *    Lines are sent as fast as stdin yields them (pipelined), so a
 *    here-doc of N queries exercises the server's batch collapsing.
 *
 *  - metrics mode (positional `metrics`): one `{"op":"metrics"}`
 *    round trip, the exposition text printed unescaped — the shim
 *    that turns a scrape config into one exec line:
 *      $ ./mlc_client --socket=/tmp/mlc.sock metrics
 *
 *  - load mode (--load): the seeded Zipf load generator the
 *    server tests replay, printing a one-line JSON summary:
 *      $ ./mlc_client --socket=/tmp/mlc.sock --load --clients=4 \
 *            --requests=200
 */

#include <iostream>
#include <string>
#include <string_view>

#include "serve/json.hh"
#include "serve/loadgen.hh"
#include "util/logging.hh"
#include "util/str.hh"

using namespace mlc;

namespace {

void
usage()
{
    std::cerr
        << "usage: mlc_client --socket=PATH [metrics] [--load ...]\n"
        << "  line mode (default): requests on stdin, responses on "
           "stdout\n"
        << "  metrics           print the server's Prometheus-style "
           "exposition text\n"
        << "  --load            run the seeded load generator\n"
        << "    --clients=N     concurrent connections (default "
           "1)\n"
        << "    --requests=N    requests per client (default 100)\n"
        << "    --seed=N        base seed (default 1)\n"
        << "    --zipf=T        config-popularity skew (default "
           "0.99)\n"
        << "    --open          open loop (pipelined window)\n"
        << "    --depth=N      open-loop window depth (default "
           "16)\n"
        << "    --engine=E      onepass|timing|sampled\n"
        << "    --workload=W    grid|paper|<trace tag>\n";
}

int
lineMode(const std::string &socket_path)
{
    serve::LineClient client(socket_path);
    // Pipeline: push every available request before draining, so a
    // piped batch arrives at the server as one buffered read.
    std::size_t outstanding = 0;
    std::string line, resp;
    bool saw_error = false;
    while (std::getline(std::cin, line)) {
        if (trim(line).empty())
            continue;
        if (!client.sendLine(line)) {
            std::cerr << "mlc_client: server hung up\n";
            return 1;
        }
        ++outstanding;
    }
    while (outstanding > 0 && client.recvLine(resp)) {
        std::cout << resp << "\n";
        if (resp.find("\"ok\":false") != std::string::npos)
            saw_error = true;
        --outstanding;
    }
    if (outstanding > 0) {
        std::cerr << "mlc_client: connection closed with "
                  << outstanding << " responses pending\n";
        return 1;
    }
    return saw_error ? 2 : 0;
}

int
metricsMode(const std::string &socket_path)
{
    serve::LineClient client(socket_path);
    if (!client.sendLine(R"({"op":"metrics","id":"m"})")) {
        std::cerr << "mlc_client: server hung up\n";
        return 1;
    }
    std::string resp;
    if (!client.recvLine(resp)) {
        std::cerr << "mlc_client: connection closed before the "
                     "metrics response\n";
        return 1;
    }
    serve::Json doc;
    std::string err;
    if (!serve::Json::parse(resp, doc, err))
        mlc_fatal("mlc_client: unparseable metrics response (",
                  err, "): ", resp);
    const serve::Json *ok = doc.find("ok");
    if (!ok || !ok->isBool() || !ok->asBool()) {
        std::cerr << "mlc_client: metrics request failed: " << resp
                  << "\n";
        return 2;
    }
    const serve::Json *text = doc.find("metrics");
    if (!text || !text->isString())
        mlc_fatal("mlc_client: metrics response carries no "
                  "'metrics' string: ",
                  resp);
    // renderMetrics() ends in a newline already; print verbatim so
    // a scraper sees exactly the exposition bytes.
    std::cout << text->asString();
    return 0;
}

int
loadMode(const serve::LoadGenOptions &opts)
{
    const serve::LoadGenStats stats = serve::runLoadGen(opts);
    serve::Json out = serve::Json::object();
    out.set("clients", serve::Json(
                           static_cast<std::uint64_t>(opts.clients)));
    out.set("requests_per_client",
            serve::Json(
                static_cast<std::uint64_t>(opts.requests)));
    out.set("mode", serve::Json(opts.closedLoop ? "closed" : "open"));
    out.set("sent", serve::Json(stats.sent));
    out.set("ok", serve::Json(stats.okResponses));
    out.set("errors", serve::Json(stats.errorResponses));
    out.set("cached", serve::Json(stats.cachedResponses));
    out.set("elapsed_sec", serve::Json(stats.elapsedSec));
    out.set("queries_per_sec", serve::Json(stats.queriesPerSec));
    out.set("p50_us", serve::Json(stats.p50Us));
    out.set("p99_us", serve::Json(stats.p99Us));
    out.set("max_us", serve::Json(stats.maxUs));
    std::cout << out.dump() << "\n";
    return stats.errorResponses == 0 ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    bool load = false;
    bool metrics = false;
    serve::LoadGenOptions opts;

    const auto count = [](std::string_view arg,
                          std::string_view prefix) {
        unsigned long long v = 0;
        if (!parseUnsigned(arg.substr(prefix.size()), v))
            mlc_fatal("mlc_client: bad value in '",
                      std::string(arg), "'");
        return v;
    };

    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (startsWith(arg, "--socket="))
            socket_path = std::string(arg.substr(9));
        else if (arg == "metrics")
            metrics = true;
        else if (arg == "--load")
            load = true;
        else if (startsWith(arg, "--clients="))
            opts.clients = static_cast<std::size_t>(
                count(arg, "--clients="));
        else if (startsWith(arg, "--requests="))
            opts.requests = static_cast<std::size_t>(
                count(arg, "--requests="));
        else if (startsWith(arg, "--seed="))
            opts.seed = count(arg, "--seed=");
        else if (startsWith(arg, "--zipf=")) {
            double t = 0.0;
            if (!parseDouble(arg.substr(7), t) || t < 0.0)
                mlc_fatal("mlc_client: bad --zipf value");
            opts.zipfTheta = t;
        } else if (arg == "--open")
            opts.closedLoop = false;
        else if (startsWith(arg, "--depth="))
            opts.pipelineDepth = static_cast<std::size_t>(
                count(arg, "--depth="));
        else if (startsWith(arg, "--engine="))
            opts.engine = std::string(arg.substr(9));
        else if (startsWith(arg, "--workload="))
            opts.workload = std::string(arg.substr(11));
        else {
            usage();
            return arg == "--help" || arg == "-h" ? 0 : 1;
        }
    }
    if (socket_path.empty()) {
        usage();
        return 1;
    }
    if (metrics && load)
        mlc_fatal("mlc_client: 'metrics' and --load are mutually "
                  "exclusive");
    if (metrics)
        return metricsMode(socket_path);
    if (load) {
        opts.socketPath = socket_path;
        if (opts.clients == 0 || opts.requests == 0)
            mlc_fatal("mlc_client: --clients and --requests must "
                      "be >= 1");
        return loadMode(opts);
    }
    return lineMode(socket_path);
}
