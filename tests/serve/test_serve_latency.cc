/** @file
 * The query server's reason to keep state resident, as a gate: a
 * memoized answer over the socket must come back at least 50x
 * faster (p99 of 200 hits) than the cold query that computed it.
 *
 * A suite of its own (not Server.*): a wall-clock ratio means
 * nothing under the thread sanitizer's slowdown, so the TSan job's
 * Server filter must not pick it up. An executable of its own too:
 * ctest runs it alone (RUN_SERIAL), because tests running beside it
 * preempt the client and server threads and inflate the p99.
 */

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/loadgen.hh"
#include "serve/server.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>

namespace mlc {
namespace serve {
namespace {

/** One request/response round trip, in microseconds. */
double
roundTripUs(LineClient &client, const std::string &line,
            std::string &resp)
{
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(client.sendLine(line));
    EXPECT_TRUE(client.recvLine(resp));
    const std::chrono::duration<double, std::micro> us =
        std::chrono::steady_clock::now() - t0;
    return us.count();
}

TEST(ServeLatency, MemoHitP99FiftyTimesFasterThanColdQuery)
{
    // Client and server threads share the host; with one hardware
    // thread the ratio measures the scheduler, not the memo.
    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "needs at least 2 hardware threads";

    ServerOptions opts;
    opts.socketPath = "/tmp/mlc_serve_test_latency." +
                      std::to_string(getpid()) + ".sock";
    Server server(opts);
    server.start();
    LineClient client(opts.socketPath);
    std::string resp;
    roundTripUs(client, "{\"op\":\"warm\",\"workload\":\"grid\"}",
                resp);
    ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;

    const std::string query =
        "{\"op\":\"query\",\"engine\":\"onepass\","
        "\"workload\":\"grid\",\"l2_size\":2097152,"
        "\"l2_cycles\":7,\"id\":\"cold\"}";
    const double cold_us = roundTripUs(client, query, resp);
    ASSERT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;
    const std::string cold = stripVolatile(resp);

    std::vector<double> hits;
    for (int i = 0; i < 200; ++i) {
        hits.push_back(roundTripUs(client, query, resp));
        ASSERT_EQ(stripVolatile(resp), cold) << "hit " << i;
    }
    std::sort(hits.begin(), hits.end());
    const double p99 = hits[static_cast<std::size_t>(
        0.99 * static_cast<double>(hits.size() - 1) + 0.5)];
    RecordProperty("cold_over_memo_p99",
                   std::to_string(cold_us / p99));
    EXPECT_GE(cold_us, 50.0 * p99)
        << "cold " << cold_us << " us, memo p99 " << p99 << " us ("
        << cold_us / p99 << "x)";
    server.stop();
}

} // namespace
} // namespace serve
} // namespace mlc

#endif
