/**
 * @file
 * The one profile pipeline: L1 replay -> pivot chain -> forest.
 *
 * Every miss-ratio profile in mlcsim is one computation: replay the
 * L1s once (L1Filter) and hand each departing event either straight
 * to a forest pricing the whole family (an empty pivot chain: the
 * two-level profile) or to one exactly-replayed CascadeFilter per
 * candidate pivot, each feeding its own family forest (depth 3).
 * Solo forests and the fully-associative (FA) analyzers ride the
 * same loop over the raw CPU stream. The engines instantiate it:
 *
 *   onepass::profileTrace / profileCascadeTrace
 *       Profiler<GhostTagForest, trace::StackDistanceAnalyzer>
 *   mrc::profileTrace / profileMapped / profileCascadeTrace
 *       Profiler<mrc::SampledGhostForest, mrc::SampledStackDistance>
 *
 * Trailing constructor arguments ("tuning") are passed to every
 * Forest and Fa constructor: the SamplerConfig for the sampled
 * types, nothing for the exact ones.
 *
 * Two routes, identical counts. ProfileOptions::shards == 1 runs
 * in-line: each event is applied as it leaves the L1, so a stream
 * can be fed one reference at a time. shards > 1 (exact forests
 * only) runs in two phases: step() records the L1 stream and
 * finish() replays it through each pivot (filterEventLog) and
 * sweeps the logs set-partitioned (sharded.hh). Both routes share
 * validateChain(), the FA bank and assembleProfiles().
 */

#ifndef MLC_ONEPASS_PROFILER_HH
#define MLC_ONEPASS_PROFILER_HH

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "hier/hierarchy_config.hh"
#include "onepass/cascade.hh"
#include "onepass/engine.hh"
#include "onepass/ghost_tags.hh"
#include "onepass/l1_filter.hh"
#include "onepass/sharded.hh"
#include "trace/mem_ref.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace onepass {

/** A validated profile shape: optional pivots (levels[0]) over the
 *  family (levels[1] under pivots, else levels[0]). */
struct ProfileChain
{
    std::vector<GhostCacheSpec> pivots; //!< empty: two-level
    std::vector<GhostCacheSpec> members;
    GhostPolicies pivotPolicies;
    GhostPolicies memberPolicies;
};

/**
 * Check @p pivots over @p members against the finalized machine
 * @p params and derive each position's policies. Panics on an
 * empty family, a missing level, a block narrower than the one
 * above it (l1 <= pivot <= member) or under 4 bytes, or a policy
 * the ghost model cannot reproduce (GhostPolicies::fromLevel).
 */
ProfileChain validateChain(const hier::HierarchyParams &params,
                           std::vector<GhostCacheSpec> pivots,
                           std::vector<GhostCacheSpec> members);

/** What either route counted, ready for assembly. */
struct ChainCounts
{
    std::vector<GhostCounts> pivotExact; //!< CascadeFilter counts
    std::vector<GhostCounts> pivotGhost; //!< empty: not checked
    std::vector<GhostCounts> pivotSolo;  //!< empty unless solo
    /** [pivot][member]; one row without pivots. */
    std::vector<std::vector<GhostCounts>> members;
    std::vector<GhostCounts> memberSolo; //!< empty unless solo
    std::vector<double> faMissRatio;     //!< empty unless faBound
    std::vector<std::uint64_t> faCompulsory;
};

/** Phase 2 of the two-phase route: sweep the recorded L1 stream
 *  through @p chain on @p shards workers; @p refs and
 *  @p warmup_refs feed the solo sweeps. */
ChainCounts sweepChain(const FilteredEventLog &l1log,
                       const hier::HierarchyParams &params,
                       const ProfileChain &chain, trace::RefSpan refs,
                       std::uint64_t warmup_refs, bool solo,
                       std::size_t shards);

/** One TraceProfile per pivot (one without pivots), after checking
 *  every pivot's exact counts against its ghost counts. */
std::vector<TraceProfile>
assembleProfiles(const L1Filter &filter, const ProfileChain &chain,
                 const ChainCounts &counts);

/**
 * Construct, feed every reference in order through step(), then
 * finish(). Counters reset after @p warmup_refs references, tag
 * state kept; the FA analyzers span the whole stream (a
 * stack-distance profile has no tag state to warm).
 */
template <typename Forest, typename Fa>
class Profiler
{
  public:
    template <typename... Tuning>
    Profiler(const hier::HierarchyParams &base,
             std::vector<GhostCacheSpec> pivots,
             std::vector<GhostCacheSpec> members,
             std::uint64_t warmup_refs, const ProfileOptions &opts,
             const Tuning &...tuning)
        : filter_(base),
          chain_(validateChain(filter_.params(), std::move(pivots),
                               std::move(members))),
          opts_(opts), warmup_(warmup_refs),
          twoPhase_(opts.shards > 1)
    {
        if (twoPhase_ && !kExact)
            mlc_panic("profile: only the exact ghost forest has a "
                      "set-sharded route");
        const std::size_t n_pivots = chain_.pivots.size();
        if (opts_.faBound) {
            faOfMember_.resize(chain_.members.size());
            for (const BlockGroup &g : blockGroups(chain_.members)) {
                for (std::size_t m : g.members)
                    faOfMember_[m] = fa_.size();
                fa_.emplace_back(g.blockBytes, tuning...);
            }
        }
        if (twoPhase_) {
            log_.warmEvents = FilteredEventLog::kNoBoundary;
            return;
        }
        if (n_pivots) {
            // The pivot invariant costs an exact forest over the
            // pivots (about 1.1x on the sampled cascade), so only the
            // exact engine pays it; both run the same CascadeFilter.
            if (kExact)
                pivotGhost_.emplace(chain_.pivots, chain_.pivotPolicies);
            cascades_.reserve(n_pivots);
            for (const GhostCacheSpec &pivot : chain_.pivots)
                cascades_.emplace_back(filter_.params(), pivot);
        }
        forests_.reserve(n_pivots ? n_pivots : 1);
        for (std::size_t k = 0; k < (n_pivots ? n_pivots : 1); ++k)
            forests_.emplace_back(chain_.members,
                                  chain_.memberPolicies, tuning...);
        if (opts_.solo) {
            memberSolo_.emplace(chain_.members,
                                chain_.memberPolicies, tuning...);
            if (n_pivots)
                pivotSolo_.emplace(chain_.pivots,
                                   chain_.pivotPolicies, tuning...);
        }
    }

    /** Replay one CPU reference through the whole pipeline. */
    void
    step(const trace::MemRef &ref)
    {
        if (steps_++ == warmup_)
            resetCounts();
        filter_.step(ref, Tee{*this});
        if (memberSolo_)
            memberSolo_->soloAccess(ref);
        if (pivotSolo_)
            pivotSolo_->soloAccess(ref);
        for (Fa &a : fa_)
            a.access(ref.addr);
    }

    /** One TraceProfile per pivot (one without pivots); callable
     *  once. With shards > 1 and solo, @p refs must be the
     *  references stepped: the solo sweep re-reads them. */
    std::vector<TraceProfile>
    finish(trace::RefSpan refs = {})
    {
        ChainCounts c;
        if (twoPhase_) {
            if (opts_.solo && refs.size != steps_)
                mlc_panic("profile: the sharded solo sweep needs the ",
                          steps_, " references stepped, got ",
                          refs.size);
            c = sweepChain(log_, filter_.params(), chain_, refs,
                           warmup_, opts_.solo, opts_.shards);
        } else {
            for (std::size_t k = 0; k < cascades_.size(); ++k) {
                c.pivotExact.push_back(cascades_[k].counts());
                if (pivotGhost_)
                    c.pivotGhost.push_back(pivotGhost_->counts(k));
            }
            for (const Forest &f : forests_)
                c.members.push_back(countsOf(f));
            if (memberSolo_)
                c.memberSolo = countsOf(*memberSolo_);
            if (pivotSolo_)
                c.pivotSolo = countsOf(*pivotSolo_);
        }
        for (std::size_t m = 0; m < faOfMember_.size(); ++m) {
            const GhostCacheSpec &spec = chain_.members[m];
            const Fa &a = fa_[faOfMember_[m]];
            c.faMissRatio.push_back(
                a.missRatio(spec.sizeBytes / spec.blockBytes));
            c.faCompulsory.push_back(a.infiniteCount());
        }
        return assembleProfiles(filter_, chain_, c);
    }

  private:
    static constexpr bool kExact = std::is_same_v<Forest, GhostTagForest>;

    /** CascadeFilter sink: a pivot's output into its forest. */
    struct Feed
    {
        Forest &forest;
        void onRead(Addr addr, bool counted) { forest.read(addr, counted); }
        void onWrite(Addr addr) { forest.write(addr); }
    };

    /** L1Filter sink: each departing L1 event down the chain. */
    struct Tee
    {
        Profiler &p;

        void
        onRead(Addr addr, bool counted)
        {
            if (p.twoPhase_) {
                p.log_.onRead(addr, counted);
            } else if (p.cascades_.empty()) {
                p.forests_[0].read(addr, counted);
            } else {
                if (p.pivotGhost_)
                    p.pivotGhost_->read(addr, counted);
                for (std::size_t k = 0; k < p.cascades_.size(); ++k)
                    p.cascades_[k].onRead(addr, counted,
                                          Feed{p.forests_[k]});
            }
        }

        void
        onWrite(Addr addr)
        {
            if (p.twoPhase_) {
                p.log_.onWrite(addr);
            } else if (p.cascades_.empty()) {
                p.forests_[0].write(addr);
            } else {
                if (p.pivotGhost_)
                    p.pivotGhost_->write(addr);
                for (std::size_t k = 0; k < p.cascades_.size(); ++k)
                    p.cascades_[k].onWrite(addr, Feed{p.forests_[k]});
            }
        }
    };

    template <typename F>
    static std::vector<GhostCounts>
    countsOf(const F &forest)
    {
        std::vector<GhostCounts> out;
        out.reserve(forest.specs().size());
        for (std::size_t i = 0; i < forest.specs().size(); ++i)
            out.push_back(forest.counts(i));
        return out;
    }

    void
    resetCounts()
    {
        filter_.resetCounts();
        log_.warmEvents = log_.events.size();
        if (pivotGhost_)
            pivotGhost_->resetCounts();
        for (CascadeFilter &c : cascades_)
            c.resetCounts();
        for (Forest &f : forests_)
            f.resetCounts();
        if (memberSolo_)
            memberSolo_->resetCounts();
        if (pivotSolo_)
            pivotSolo_->resetCounts();
    }

    L1Filter filter_;
    ProfileChain chain_;
    ProfileOptions opts_;
    std::uint64_t warmup_;
    std::uint64_t steps_ = 0;
    bool twoPhase_;

    /** @{ @name In-line route */
    std::optional<GhostTagForest> pivotGhost_;
    std::vector<CascadeFilter> cascades_;
    /** One family forest per pivot (one without pivots). */
    std::vector<Forest> forests_;
    std::optional<Forest> memberSolo_;
    std::optional<Forest> pivotSolo_;
    /** @} */

    /** Two-phase route: the recorded L1 stream. */
    FilteredEventLog log_;

    /** The FA bank: one analyzer per distinct member block size. */
    std::vector<Fa> fa_;
    std::vector<std::size_t> faOfMember_;
};

/** Feed @p refs through a fresh Profiler. */
template <typename Forest, typename Fa, typename... Tuning>
std::vector<TraceProfile>
profileRefs(const hier::HierarchyParams &base,
            std::vector<GhostCacheSpec> pivots,
            std::vector<GhostCacheSpec> members, trace::RefSpan refs,
            std::uint64_t warmup_refs, const ProfileOptions &opts,
            const Tuning &...tuning)
{
    Profiler<Forest, Fa> prof(base, std::move(pivots),
                              std::move(members), warmup_refs, opts,
                              tuning...);
    for (const trace::MemRef &ref : refs)
        prof.step(ref);
    return prof.finish(refs);
}

/** Run @p profile_trace(refs, warmup_refs), a profileCascadeTrace,
 *  over every trace of @p store in parallel, regrouped as
 *  [pivot][trace]: bit-identical for any @p jobs. */
template <typename ProfileTrace>
std::vector<std::vector<TraceProfile>>
cascadeSuite(std::size_t n_pivots, const expt::TraceStore &store,
             std::size_t jobs, ProfileTrace profile_trace)
{
    const std::size_t n_traces = store.size();
    std::vector<std::vector<TraceProfile>> out(
        n_pivots, std::vector<TraceProfile>(n_traces));
    parallelFor(jobs, n_traces, [&](std::size_t t) {
        std::vector<TraceProfile> per_pivot = profile_trace(
            store.traces()[t], expt::scaledWarmup(store.specs()[t]));
        for (std::size_t p = 0; p < per_pivot.size(); ++p) {
            per_pivot[p].traceName = store.specs()[t].name;
            out[p][t] = std::move(per_pivot[p]);
        }
    });
    return out;
}

} // namespace onepass
} // namespace mlc

#endif // MLC_ONEPASS_PROFILER_HH
