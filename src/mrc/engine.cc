#include "mrc/engine.hh"

#include <algorithm>

#include "onepass/grid.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace mrc {

namespace {

onepass::ProfileOptions
profileOptions(const MrcOptions &opts)
{
    onepass::ProfileOptions po;
    po.solo = opts.solo;
    po.faBound = opts.faBound;
    return po;
}

} // namespace

onepass::TraceProfile
profileTrace(const hier::HierarchyParams &base,
             const onepass::FamilySpec &family, trace::RefSpan refs,
             std::uint64_t warmup_refs, const MrcOptions &opts)
{
    return onepass::profileRefs<SampledGhostForest,
                                SampledStackDistance>(
               base, {}, family.configs, refs, warmup_refs,
               profileOptions(opts), opts.sampler)
        .front();
}

onepass::TraceProfile
profileMapped(const hier::HierarchyParams &base,
              const onepass::FamilySpec &family,
              const trace::MappedBinaryTrace &mapped,
              std::uint64_t warmup_refs, const MrcOptions &opts)
{
    mapped.adviseSequential();
    StreamingProfiler prof(base, {}, family.configs, warmup_refs,
                           profileOptions(opts), opts.sampler);
    const trace::RefSpan all = mapped.span();
    const std::size_t chunk =
        opts.streamChunkRefs == 0
            ? (all.size == 0 ? 1 : all.size)
            : static_cast<std::size_t>(opts.streamChunkRefs);
    for (std::size_t begin = 0; begin < all.size; begin += chunk) {
        const std::size_t n = std::min(chunk, all.size - begin);
        mapped.validateRange(begin, n);
        for (std::size_t j = 0; j < n; ++j)
            prof.step(all[begin + j]);
        mapped.releaseConsumed(begin + n);
    }
    return prof.finish().front();
}

std::vector<onepass::TraceProfile>
profileSuite(const hier::HierarchyParams &base,
             const onepass::FamilySpec &family,
             const expt::TraceStore &store, std::size_t jobs,
             const MrcOptions &opts)
{
    if (family.configs.empty())
        mlc_panic("mrc::profileSuite: empty cache family");
    std::vector<onepass::TraceProfile> out(store.size());
    parallelFor(jobs, out.size(), [&](std::size_t t) {
        out[t] = profileTrace(base, family, store.traces()[t],
                              expt::scaledWarmup(store.specs()[t]),
                              opts);
        out[t].traceName = store.specs()[t].name;
    });
    return out;
}

std::vector<onepass::TraceProfile>
profileCascadeTrace(const hier::HierarchyParams &base,
                    const onepass::CascadeFamilySpec &family,
                    trace::RefSpan refs, std::uint64_t warmup_refs,
                    const MrcOptions &opts)
{
    if (family.pivots.empty())
        mlc_panic("mrc::profileCascadeTrace: empty pivot family");
    return onepass::profileRefs<SampledGhostForest,
                                SampledStackDistance>(
        base, family.pivots, family.l3.configs, refs, warmup_refs,
        profileOptions(opts), opts.sampler);
}

std::vector<std::vector<onepass::TraceProfile>>
profileCascadeSuite(const hier::HierarchyParams &base,
                    const onepass::CascadeFamilySpec &family,
                    const expt::TraceStore &store, std::size_t jobs,
                    const MrcOptions &opts)
{
    return onepass::cascadeSuite(
        family.pivots.size(), store, jobs,
        [&](trace::RefSpan refs, std::uint64_t warm) {
            return profileCascadeTrace(base, family, refs, warm, opts);
        });
}

expt::DesignSpaceGrid
buildGrid(const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const expt::TraceStore &store, std::size_t jobs,
          const SamplerConfig &sampler)
{
    const onepass::FamilySpec family =
        onepass::FamilySpec::l2Grid(base, sizes);
    MrcOptions opts;
    opts.sampler = sampler;
    const std::vector<onepass::TraceProfile> profiles =
        profileSuite(base, family, store, jobs, opts);
    return onepass::gridFromProfiles(base, sizes, cycles, profiles);
}

} // namespace mrc
} // namespace mlc
