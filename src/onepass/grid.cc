#include "onepass/grid.hh"

#include <utility>

#include "onepass/model_timing.hh"
#include "util/logging.hh"

namespace mlc {
namespace onepass {

expt::DesignSpaceGrid
gridFromProfiles(const hier::HierarchyParams &base,
                 const std::vector<std::uint64_t> &sizes,
                 const std::vector<std::uint32_t> &cycles,
                 const std::vector<TraceProfile> &profiles)
{
    if (profiles.empty())
        mlc_panic("gridFromProfiles: no trace profiles");
    for (const TraceProfile &p : profiles)
        if (p.configs.size() != sizes.size())
            mlc_panic("gridFromProfiles: profile '", p.traceName,
                      "' has ", p.configs.size(),
                      " configs for ", sizes.size(), " sizes");

    const std::uint32_t assoc =
        base.levels.empty() ? 1 : base.levels[0].geometry.assoc;
    const std::size_t cols = cycles.size();
    std::vector<double> cells(sizes.size() * cols);
    for (std::size_t c = 0; c < cols; ++c) {
        // The model depends on the cycle axis only (n_L2 scales
        // with the L2 cycle time; size changes no cost term), so
        // one EqTimingModel serves the whole column.
        const EqTimingModel model = EqTimingModel::forMachine(
            base.withL2(sizes[0], cycles[c], assoc));
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            double sum = 0.0;
            for (const TraceProfile &p : profiles)
                sum += model.relExec(p, s);
            cells[s * cols + c] =
                sum / static_cast<double>(profiles.size());
        }
    }
    return expt::DesignSpaceGrid(sizes, cycles, std::move(cells));
}

expt::DesignSpaceGrid
buildGrid(const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const expt::TraceStore &store, std::size_t jobs,
          std::size_t shards)
{
    const FamilySpec family = FamilySpec::l2Grid(base, sizes);
    ProfileOptions opts;
    opts.shards = shards;
    const std::vector<TraceProfile> profiles =
        profileSuite(base, family, store, jobs, opts);
    return gridFromProfiles(base, sizes, cycles, profiles);
}

} // namespace onepass
} // namespace mlc
