/**
 * @file
 * The what-if query protocol: newline-delimited JSON over a local
 * socket.
 *
 * One request object per line, one response object per line, in
 * request order. Verbs:
 *
 *   {"op":"query","engine":"onepass|timing|sampled|mrc",
 *    "workload":"grid|paper|<trace tag>",
 *    "l2_size":262144,"l2_cycles":3,
 *    ["l2_assoc":2,"l1_total":8192,"seed":7,"id":"...",
 *     "l3_size":2097152,"l3_cycles":6,"l3_assoc":4]}
 *     -> {"id":...,"ok":true,"rel_exec_time":...,"cpi":...,
 *         "cached":bool,"compute_us":N}
 *
 *   {"op":"sweep","engine":...,"workload":...,
 *    "sizes":[...],"cycles":[...],...}
 *     -> {"id":...,"ok":true,"sizes":[...],"cycles":[...],
 *         "grid":[[rows=sizes][cols=cycles]],"cached":bool,...}
 *
 *   {"op":"stats"}     -> resident traces, memo/profile cache
 *                         counters, per-tag entries, query counts
 *   {"op":"metrics"}   -> the same snapshot rendered as
 *                         Prometheus-style exposition text in
 *                         {"metrics":"..."} (serve/metrics.hh)
 *   {"op":"warm",["workload":...]} -> eagerly materialize traces
 *   {"op":"ping"}      -> liveness probe
 *   {"op":"shutdown"}  -> drain in-flight work, then exit 0
 *
 * Errors are structured, never a closed connection:
 *   {"id":...,"ok":false,
 *    "error":{"code":"bad_request|bad_json|shutting_down|...",
 *             "message":"..."}}
 *
 * Batching: requests already buffered on a connection are parsed
 * together, and query requests that share (engine, workload,
 * non-grid knobs) collapse into one engine invocation over the
 * union of their (size, cycle) points — a client pipelining an
 * N-config family pays one profile pass, not N (see
 * serve::Server). Responses always come back in request order
 * regardless of grouping.
 */

#ifndef MLC_SERVE_PROTOCOL_HH
#define MLC_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/json.hh"

namespace mlc {
namespace serve {

/** Protocol verbs. */
enum class Op
{
    Query,
    Sweep,
    Stats,
    Metrics,
    Warm,
    Ping,
    Shutdown
};

const char *opName(Op op);

/** One parsed, validated request. */
struct Request
{
    Op op = Op::Ping;
    /** Client correlation id, echoed verbatim into the response
     *  ("" omits it). */
    std::string id;
    std::string engine = "onepass";
    std::string workload = "grid";

    /** @{ @name query */
    std::uint64_t l2Size = 0;
    std::uint32_t l2Cycles = 0;
    /** 0 = the base machine's L2 associativity. */
    std::uint32_t l2Assoc = 0;
    /** 0 = the base machine's L1; otherwise total I+D bytes. */
    std::uint64_t l1Total = 0;
    /** Sampled-engine schedule seed. */
    std::uint64_t seed = 1;
    /** @} */

    /** @{ @name Optional third level (depth-3 configs)
     * A non-zero l3_size appends a fixed L3 below the swept L2
     * axis: the timing engine simulates the three-level machine,
     * and the onepass engine switches to the cascade pass (the
     * swept L2 points become exactly-replayed pivots, the L3 the
     * ghost-swept member). Requires l3_cycles >= 1; rejected by
     * the sampled engine. */
    std::uint64_t l3Size = 0;
    std::uint32_t l3Cycles = 0;
    /** 0 = direct-mapped. */
    std::uint32_t l3Assoc = 0;
    /** @} */

    /** @{ @name sweep */
    std::vector<std::uint64_t> sizes;
    std::vector<std::uint32_t> cycles;
    /** @} */

    /**
     * Canonical memo detail: every result-affecting field except
     * engine and workload (those are the other two MemoKey
     * members). Two requests with equal keys are answerable by the
     * same cached payload.
     */
    std::string detailKey() const;

    /** The non-grid knobs only — queries that agree here may batch
     *  into one engine call. */
    std::string batchKey() const;
};

/** parseRequest outcome: either a request or a structured error. */
struct ParsedRequest
{
    bool ok = false;
    Request request;
    std::string errorCode;
    std::string errorMessage;
};

/** Parse + validate one request line. */
ParsedRequest parseRequest(const std::string &line);

/** @{ @name Response building. All return one line, no newline. */
std::string errorResponse(const std::string &id,
                          const std::string &code,
                          const std::string &message);

/** Wrap @p payload (an object-body fragment like
 *  `"rel_exec_time":0.97`) into `{"id":..,"ok":true,<payload>,
 *  "cached":..,"compute_us":..}`. The payload fragment is exactly
 *  what the result cache memoizes, so cached and fresh responses
 *  are byte-identical in every result field. */
std::string okResponse(const std::string &id,
                       const std::string &payload, bool cached,
                       std::uint64_t compute_us);
/** @} */

} // namespace serve
} // namespace mlc

#endif // MLC_SERVE_PROTOCOL_HH
