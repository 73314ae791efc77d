#include "onepass/cascade.hh"

#include "onepass/profiler.hh"
#include "trace/stack_distance.hh"
#include "util/logging.hh"

namespace mlc {
namespace onepass {

namespace {

/** hierarchy.cc seeds levels_[0] with kCacheSeedBase + 2; the
 *  pivot replica must match so a Random-replacement pivot picks
 *  the same victims as the timing simulator's L2. */
constexpr std::uint64_t kPivotSeed = 0x1234abcdULL + 2;

cache::CacheParams
pivotParams(const hier::HierarchyParams &base,
            const GhostCacheSpec &pivot)
{
    if (base.levels.empty())
        mlc_panic("cascade: the base machine has no downstream "
                  "level for the pivot to stand in for");
    cache::CacheParams p = base.levels[0];
    p.geometry.sizeBytes = pivot.sizeBytes;
    p.geometry.assoc = pivot.assoc;
    p.geometry.blockBytes = pivot.blockBytes;
    // Keep fetch == block when the pivot varies block size so
    // finalize() never sees a stale sub-block/fetch-group ratio.
    p.fetchBytes = pivot.blockBytes;
    p.finalize();
    return p;
}

} // namespace

std::string
CascadeFamilySpec::key() const
{
    std::string out;
    for (std::size_t i = 0; i < pivots.size(); ++i) {
        if (i)
            out += '|';
        out += pivots[i].toString();
    }
    out += "=>";
    out += l3.key();
    return out;
}

CascadeFilter::CascadeFilter(const hier::HierarchyParams &base,
                             const GhostCacheSpec &pivot)
    : cache_(pivotParams(base, pivot), kPivotSeed),
      writeThrough_(cache_.params().writePolicy ==
                    cache::WritePolicy::WriteThrough),
      writeAllocates_(cache_.params().downstreamWriteMiss ==
                      cache::DownstreamWriteMissPolicy::Allocate)
{
}

void
filterEventLog(const FilteredEventLog &in, CascadeFilter &filter,
               FilteredEventLog &out)
{
    out.events.clear();
    out.events.reserve(in.events.size() / 4);
    out.warmEvents = FilteredEventLog::kNoBoundary;
    for (std::size_t i = 0; i < in.events.size(); ++i) {
        if (i == in.warmEvents) {
            filter.resetCounts();
            out.warmEvents = out.events.size();
        }
        const std::uint64_t word = in.events[i];
        const Addr addr = word & ~FilteredEventLog::kKindMask;
        switch (word & FilteredEventLog::kKindMask) {
          case FilteredEventLog::ReadCounted:
            filter.onRead(addr, true, out);
            break;
          case FilteredEventLog::ReadUncounted:
            filter.onRead(addr, false, out);
            break;
          default:
            filter.onWrite(addr, out);
            break;
        }
    }
    // The boundary may lie past the last upstream event (short
    // streams): the warm point still zeroes everything downstream.
    if (in.warmEvents != FilteredEventLog::kNoBoundary &&
        in.warmEvents >= in.events.size()) {
        filter.resetCounts();
        out.warmEvents = out.events.size();
    }
}

std::vector<TraceProfile>
profileCascadeTrace(const hier::HierarchyParams &base,
                    const CascadeFamilySpec &family,
                    trace::RefSpan refs, std::uint64_t warmup_refs,
                    const ProfileOptions &opts)
{
    if (family.pivots.empty())
        mlc_panic("profileCascadeTrace: empty pivot family");
    return profileRefs<GhostTagForest, trace::StackDistanceAnalyzer>(
        base, family.pivots, family.l3.configs, refs, warmup_refs,
        opts);
}

std::vector<std::vector<TraceProfile>>
profileCascadeSuite(const hier::HierarchyParams &base,
                    const CascadeFamilySpec &family,
                    const expt::TraceStore &store, std::size_t jobs,
                    const ProfileOptions &opts)
{
    return cascadeSuite(family.pivots.size(), store, jobs,
                        [&](trace::RefSpan refs, std::uint64_t warm) {
                            return profileCascadeTrace(base, family,
                                                       refs, warm, opts);
                        });
}

} // namespace onepass
} // namespace mlc
