/**
 * @file
 * Set-partitioned (sharded) sweeps: the second phase of the
 * two-phase profile route.
 *
 * The in-line route (onepass::Profiler at ProfileOptions::shards
 * == 1) applies each event to the forests as it leaves the L1. At
 * shards > 1 the Profiler records the departing stream into a
 * compact log (8 bytes per event), then S workers sweep it, each
 * owning the sets `set % S == shard` of every family member. Sets
 * of a physically-indexed cache are independent, and LRU order
 * inside a set depends only on the relative order of that set's
 * accesses, which each shard keeps by scanning the log in order.
 * Per-shard integer counts summed in fixed shard order therefore
 * reproduce the in-line counts bit for bit (DESIGN.md §5f).
 *
 * At one shard this route costs about 1.1x the in-line time (1.2x
 * with solo; Release, 8-trace paper suite, DESIGN.md §5f).
 * Recording and replaying the log alone costs 0.97x: the extra is
 * the per-member set-ownership test in these sweeps.
 *
 * Members with fewer sets than shards are clamped: member m is
 * split S_m = min(S, sets_m) ways, so the degenerate one-set cache
 * is processed entirely by shard 0 and still merges exactly.
 */

#ifndef MLC_ONEPASS_SHARDED_HH
#define MLC_ONEPASS_SHARDED_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "onepass/engine.hh"
#include "trace/mem_ref.hh"

namespace mlc {
namespace onepass {

/**
 * The post-L1 event stream, one 64-bit word per event: the kind in
 * the low two bits of the address. Every emitted address is at
 * least 4-byte aligned (fills and write-backs are block/sector
 * bases, forwarded stores are word-aligned by L1Filter), and every
 * consumer shifts by a block size of >= 4 bytes, so the packed
 * bits are recovered exactly and never leak into a block number.
 */
struct FilteredEventLog
{
    enum Kind : std::uint64_t
    {
        ReadCounted = 0,   //!< demand read of read origin
        ReadUncounted = 1, //!< store-origin or fetch-group fill
        Write = 2,         //!< victim write-back / forwarded store
    };
    static constexpr std::uint64_t kKindMask = 3;
    /** warmEvents value meaning "no warm boundary recorded". */
    static constexpr std::size_t kNoBoundary =
        static_cast<std::size_t>(-1);

    std::vector<std::uint64_t> events;
    /** Events recorded before the warm-up boundary: each shard
     *  zeroes its counters when its sweep reaches this index. A
     *  boundary at or past events.size() (the warm point fell after
     *  the last departing event) zeroes the final counts; kNoBoundary
     *  disables the reset entirely. */
    std::size_t warmEvents = 0;

    /** @{ @name L1Filter sink interface */
    void
    onRead(Addr addr, bool counted)
    {
        events.push_back((addr & ~kKindMask) |
                         (counted ? ReadCounted : ReadUncounted));
    }
    void
    onWrite(Addr addr)
    {
        events.push_back((addr & ~kKindMask) | Write);
    }
    /** @} */
};

/**
 * Sweep one recorded event log over a whole family: the
 * set-partitioned ghost-forest pass of the two-phase profile route
 * (profiler.hh), usable on any FilteredEventLog — the L1-filtered
 * stream or a CascadeFilter's L2-filtered stream (cascade.hh).
 * Counts are merged in fixed (member-major, shard-minor) order and are
 * bit-identical for every @p shards >= 1. ReadCounted events land
 * in reads/readMisses, ReadUncounted in extraAccesses/extraMisses,
 * Write events update recency (allocating only when @p policies
 * says downstream write misses allocate) and count nothing.
 */
std::vector<GhostCounts>
sweepEventLog(const FilteredEventLog &log,
              const std::vector<GhostCacheSpec> &configs,
              const GhostPolicies &policies, std::size_t shards = 1);

/**
 * The solo half of the sharded sweep: every family member replays
 * the raw CPU reference stream stand-alone (no upstream filter),
 * set-partitioned exactly like sweepEventLog(). Reads land in
 * reads/readMisses, stores in extraAccesses/extraMisses (a store
 * miss allocates only under @p policies write-allocate), matching
 * GhostTagForest::soloAccess. Counters reset at @p warmup_refs.
 */
std::vector<GhostCounts>
sweepSoloStream(trace::RefSpan refs, std::uint64_t warmup_refs,
                const std::vector<GhostCacheSpec> &configs,
                const GhostPolicies &policies,
                std::size_t shards = 1);

} // namespace onepass
} // namespace mlc

#endif // MLC_ONEPASS_SHARDED_HH
