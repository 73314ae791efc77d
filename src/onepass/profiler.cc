#include "onepass/profiler.hh"

#include <algorithm>
#include <string>

namespace mlc {
namespace onepass {

namespace {

std::uint32_t
maxAssoc(const std::vector<GhostCacheSpec> &specs)
{
    std::uint32_t m = 1;
    for (const GhostCacheSpec &spec : specs)
        m = std::max(m, spec.assoc);
    return m;
}

} // namespace

ProfileChain
validateChain(const hier::HierarchyParams &params,
              std::vector<GhostCacheSpec> pivots,
              std::vector<GhostCacheSpec> members)
{
    if (members.empty())
        mlc_panic("profile: empty cache family");
    const bool cascade = !pivots.empty();
    if (params.levels.size() < (cascade ? 2u : 1u))
        mlc_panic("profile: the base machine needs at least ",
                  cascade ? "two downstream levels (a pivot position "
                            "and the profiled family's position)"
                          : "one downstream level for the family to "
                            "stand in for",
                  "; it has ", params.levels.size());

    // Blocks may only widen going down: l1 <= pivot <= member.
    std::uint32_t floor = std::max(
        params.l1d.geometry.blockBytes,
        params.splitL1 ? params.l1i.geometry.blockBytes : 0u);
    std::string floor_name =
        std::to_string(floor) + "B first-level block";
    const auto require = [&](const std::vector<GhostCacheSpec> &specs,
                             const char *role) {
        for (const GhostCacheSpec &spec : specs) {
            if (spec.blockBytes < floor)
                mlc_panic("profile: ", role, " ", spec.toString(),
                          " has a smaller block than the ", floor_name,
                          ", which the hierarchy disallows");
            if (spec.blockBytes < 4)
                mlc_panic("profile: ", role, " ", spec.toString(),
                          " has a block under 4 bytes; the event log "
                          "packs the event kind into the low two "
                          "address bits");
        }
    };
    require(pivots, "pivot");
    if (cascade) {
        for (const GhostCacheSpec &pivot : pivots)
            floor = std::max(floor, pivot.blockBytes);
        floor_name = "widest " + std::to_string(floor) + "B pivot block";
    }
    require(members, "family member");

    ProfileChain chain;
    if (cascade)
        chain.pivotPolicies =
            GhostPolicies::fromLevel(params.levels[0], maxAssoc(pivots));
    chain.memberPolicies = GhostPolicies::fromLevel(
        params.levels[cascade ? 1 : 0], maxAssoc(members));
    chain.pivots = std::move(pivots);
    chain.members = std::move(members);
    return chain;
}

ChainCounts
sweepChain(const FilteredEventLog &l1log,
           const hier::HierarchyParams &params, const ProfileChain &chain,
           trace::RefSpan refs, std::uint64_t warmup_refs, bool solo,
           std::size_t shards)
{
    ChainCounts c;
    if (chain.pivots.empty())
        c.members.push_back(sweepEventLog(l1log, chain.members,
                                          chain.memberPolicies, shards));
    else
        c.pivotGhost = sweepEventLog(l1log, chain.pivots,
                                     chain.pivotPolicies, shards);
    FilteredEventLog l2log;
    for (const GhostCacheSpec &pivot : chain.pivots) {
        CascadeFilter cascade(params, pivot);
        filterEventLog(l1log, cascade, l2log);
        c.pivotExact.push_back(cascade.counts());
        c.members.push_back(sweepEventLog(l2log, chain.members,
                                          chain.memberPolicies, shards));
    }
    if (solo) {
        c.memberSolo = sweepSoloStream(refs, warmup_refs, chain.members,
                                       chain.memberPolicies, shards);
        if (!chain.pivots.empty())
            c.pivotSolo = sweepSoloStream(refs, warmup_refs,
                                          chain.pivots,
                                          chain.pivotPolicies, shards);
    }
    return c;
}

std::vector<TraceProfile>
assembleProfiles(const L1Filter &filter, const ProfileChain &chain,
                 const ChainCounts &counts)
{
    std::vector<TraceProfile> out(counts.members.size());
    for (std::size_t k = 0; k < out.size(); ++k) {
        TraceProfile &tp = out[k];
        tp.instructions = filter.instructions();
        tp.ifetches = filter.ifetches();
        tp.loads = filter.loads();
        tp.stores = filter.stores();
        tp.l1ReadRequests = filter.l1ReadRequests();
        tp.l1ReadMisses = filter.l1ReadMisses();
        if (!chain.pivots.empty()) {
            // The pivot is both exactly replayed (CascadeFilter) and,
            // when checked, ghost-modelled over the L1 stream: the two
            // are provably the same sequence, so their counts must
            // agree bit for bit.
            const GhostCounts &exact = counts.pivotExact[k];
            if (!counts.pivotGhost.empty() &&
                !(exact == counts.pivotGhost[k]))
                mlc_panic("profile: pivot ", chain.pivots[k].toString(),
                          " exact replay disagrees with its ghost "
                          "forest (", exact.readMisses, "/", exact.reads,
                          " vs ", counts.pivotGhost[k].readMisses, "/",
                          counts.pivotGhost[k].reads,
                          " read misses/requests)");
            tp.pivotChain.push_back(
                {chain.pivots[k], exact,
                 counts.pivotSolo.empty() ? GhostCounts{}
                                          : counts.pivotSolo[k]});
        }
        tp.configs.resize(chain.members.size());
        for (std::size_t m = 0; m < chain.members.size(); ++m) {
            ConfigProfile &cp = tp.configs[m];
            cp.spec = chain.members[m];
            cp.filtered = counts.members[k][m];
            if (!counts.memberSolo.empty())
                cp.solo = counts.memberSolo[m];
            if (!counts.faMissRatio.empty()) {
                cp.faMissRatio = counts.faMissRatio[m];
                cp.faCompulsory = counts.faCompulsory[m];
            }
        }
    }
    return out;
}

} // namespace onepass
} // namespace mlc
