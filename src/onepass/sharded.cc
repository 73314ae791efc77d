#include "onepass/sharded.hh"

#include <algorithm>

#include "util/bits.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace onepass {

namespace {

/** Set-ownership geometry of one family member: member m is split
 *  min(shards, sets_m) ways, shard r owning sets {r, r+S_m, ...}
 *  with shard-local row index set / S_m. */
struct MemberGeom
{
    std::uint64_t setMask = 0;
    std::uint64_t shardCount = 1; //!< S_m = min(shards, sets)
    std::uint64_t localSets = 1;  //!< ceil(sets / S_m)
    std::uint32_t ways = 1;
    FixedDivisor bySm{1};
};

/** Configs sharing one block size, so the byte-address shift
 *  happens once per group per event (mirrors GhostTagForest). */
struct ShardGroup
{
    unsigned blockShift;
    std::vector<std::size_t> members;
};

std::vector<ShardGroup>
shardGroups(const std::vector<GhostCacheSpec> &configs)
{
    std::vector<ShardGroup> groups;
    for (BlockGroup &g : blockGroups(configs))
        groups.push_back({exactLog2(g.blockBytes), std::move(g.members)});
    return groups;
}

void
addCounts(GhostCounts &into, const GhostCounts &from)
{
    into.reads += from.reads;
    into.readMisses += from.readMisses;
    into.extraAccesses += from.extraAccesses;
    into.extraMisses += from.extraMisses;
}

std::vector<MemberGeom>
memberGeoms(const std::vector<GhostCacheSpec> &configs,
            std::size_t shards)
{
    std::vector<MemberGeom> geoms(configs.size());
    for (std::size_t m = 0; m < configs.size(); ++m) {
        const GhostCacheSpec &spec = configs[m];
        const std::uint64_t sets =
            spec.sizeBytes /
            (static_cast<std::uint64_t>(spec.assoc) *
             spec.blockBytes);
        MemberGeom &g = geoms[m];
        g.setMask = sets - 1;
        g.shardCount = std::min<std::uint64_t>(shards, sets);
        g.localSets = divCeil(sets, g.shardCount);
        g.ways = spec.assoc;
        g.bySm = FixedDivisor(g.shardCount);
    }
    return geoms;
}

std::vector<GhostCounts>
mergeShardCounts(const std::vector<std::vector<GhostCounts>> &per,
                 std::size_t n)
{
    // Fixed (member-major, shard-minor) order: the shards partition
    // every scalar count, so the integer sums are bit-identical to
    // the scalar forest for any shard count.
    std::vector<GhostCounts> out(n);
    for (std::size_t m = 0; m < n; ++m)
        for (const std::vector<GhostCounts> &shard : per)
            addCounts(out[m], shard[m]);
    return out;
}

/** What one event does to every member that owns its set. */
struct SweepEvent
{
    Addr addr;
    /** Allocate on a miss; otherwise touch on hit only. */
    bool install;
    /** Counter pair the access lands in (none: tags only). */
    enum Bucket { Read, Extra, None } bucket;
};

/**
 * The set-partitioned sweep both public sweeps share: @p n_events
 * events, event i given by @p decode(i). Counters zero when the
 * sweep reaches @p boundary, or at the end when the boundary lies
 * past the last event (kNoBoundary disables the reset).
 */
template <typename Decode>
std::vector<GhostCounts>
sweepShards(std::size_t n_events, std::size_t boundary,
            const std::vector<GhostCacheSpec> &configs,
            std::size_t shards, Decode decode)
{
    const std::size_t n = configs.size();
    shards = std::max<std::size_t>(1, shards);
    const std::vector<MemberGeom> geoms =
        memberGeoms(configs, shards);
    const std::vector<ShardGroup> groups = shardGroups(configs);

    // Every shard scans every event but touches only the sets it
    // owns: state is disjoint by construction, no locks or atomics.
    std::vector<std::vector<GhostCounts>> results(shards);
    parallelFor(shards, shards, [&](std::size_t s) {
        std::vector<GhostCounts> &counts = results[s];
        std::vector<GhostTagArray> arrays;
        arrays.reserve(n);
        for (const MemberGeom &g : geoms)
            arrays.emplace_back(g.localSets, g.ways);
        counts.assign(n, GhostCounts{});

        for (std::size_t i = 0; i < n_events; ++i) {
            if (i == boundary)
                counts.assign(n, GhostCounts{});
            const SweepEvent e = decode(i);
            for (const ShardGroup &grp : groups) {
                const std::uint64_t block = e.addr >> grp.blockShift;
                for (std::size_t m : grp.members) {
                    const MemberGeom &g = geoms[m];
                    const std::uint64_t set = block & g.setMask;
                    const std::uint64_t q = g.bySm.div(set);
                    if (set - q * g.shardCount != s)
                        continue;
                    const bool hit =
                        e.install ? arrays[m].touchOrInstallAt(q, block)
                                  : arrays[m].touchOnlyAt(q, block);
                    GhostCounts &c = counts[m];
                    if (e.bucket == SweepEvent::Read) {
                        ++c.reads;
                        c.readMisses += !hit;
                    } else if (e.bucket == SweepEvent::Extra) {
                        ++c.extraAccesses;
                        c.extraMisses += !hit;
                    }
                }
            }
        }
        if (boundary != FilteredEventLog::kNoBoundary &&
            boundary >= n_events)
            counts.assign(n, GhostCounts{});
    });
    return mergeShardCounts(results, n);
}

} // namespace

std::vector<GhostCounts>
sweepEventLog(const FilteredEventLog &log,
              const std::vector<GhostCacheSpec> &configs,
              const GhostPolicies &policies, std::size_t shards)
{
    const bool write_allocates =
        policies.downstreamWriteMiss ==
        cache::DownstreamWriteMissPolicy::Allocate;
    return sweepShards(
        log.events.size(), log.warmEvents, configs, shards,
        [&](std::size_t i) {
            const std::uint64_t word = log.events[i];
            const Addr addr = word & ~FilteredEventLog::kKindMask;
            switch (word & FilteredEventLog::kKindMask) {
              case FilteredEventLog::ReadCounted:
                return SweepEvent{addr, true, SweepEvent::Read};
              case FilteredEventLog::ReadUncounted:
                return SweepEvent{addr, true, SweepEvent::Extra};
              default: // Write
                return SweepEvent{addr, write_allocates,
                                  SweepEvent::None};
            }
        });
}

std::vector<GhostCounts>
sweepSoloStream(trace::RefSpan refs, std::uint64_t warmup_refs,
                const std::vector<GhostCacheSpec> &configs,
                const GhostPolicies &policies, std::size_t shards)
{
    // Mirrors GhostTagForest::soloAccess: a store miss allocates
    // only under write-allocate.
    const bool store_allocates =
        policies.alloc == cache::AllocPolicy::WriteAllocate;
    return sweepShards(
        refs.size,
        warmup_refs < refs.size ? warmup_refs
                                : FilteredEventLog::kNoBoundary,
        configs, shards, [&](std::size_t i) {
            const trace::MemRef &ref = refs[i];
            return ref.isRead()
                       ? SweepEvent{ref.addr, true, SweepEvent::Read}
                       : SweepEvent{ref.addr, store_allocates,
                                    SweepEvent::Extra};
        });
}

} // namespace onepass
} // namespace mlc
