#include "onepass/validate.hh"

#include "expt/runner.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace onepass {

bool
CrossCheckReport::allMatch() const
{
    return mismatchCount() == 0;
}

std::size_t
CrossCheckReport::mismatchCount() const
{
    std::size_t n = 0;
    for (const CrossCheckRow &row : rows)
        if (!row.match())
            ++n;
    return n;
}

void
CrossCheckReport::print(std::ostream &os) const
{
    if (allMatch()) {
        os << "cross-check: all " << rows.size()
           << " (trace, config) pairs match exactly\n";
        return;
    }
    for (const CrossCheckRow &row : rows) {
        if (row.match())
            continue;
        os << "MISMATCH " << row.traceName << " "
           << row.spec.toString() << ": onepass "
           << row.onepassMisses << "/" << row.onepassReads
           << " vs timing " << row.timingMisses << "/"
           << row.timingReads;
        if (row.onepassSolo >= 0.0 || row.timingSolo >= 0.0)
            os << ", solo " << row.onepassSolo << " vs "
               << row.timingSolo;
        if (!row.l1Match)
            os << " (L1 counts differ)";
        if (!row.pivotMatch)
            os << " (pivot counts differ)";
        os << "\n";
    }
    os << "cross-check: " << mismatchCount() << " of "
       << rows.size() << " pairs mismatch\n";
}

namespace {

/** Give @p level the geometry of @p spec, with fetch == block so
 *  finalize() never sees a stale sub-block/fetch-group ratio when
 *  the family varies block size. */
void
reshape(cache::CacheParams &level, const GhostCacheSpec &spec)
{
    level.geometry.sizeBytes = spec.sizeBytes;
    level.geometry.assoc = spec.assoc;
    level.geometry.blockBytes = spec.blockBytes;
    level.fetchBytes = spec.blockBytes;
}

/**
 * Simulate every (trace, pivot, member) triple in full and compare
 * it with @p profiles, indexed [pivot][trace] (one row of traces
 * when @p pivots is empty). Rows are ordered trace-major, then
 * pivot, then member.
 */
CrossCheckReport
checkProfiles(const hier::HierarchyParams &base,
              const std::vector<GhostCacheSpec> &pivots,
              const std::vector<GhostCacheSpec> &members,
              const std::vector<std::vector<TraceProfile>> &profiles,
              const expt::TraceStore &store, std::size_t jobs,
              bool solo)
{
    const std::size_t n_pivots = profiles.size();
    const std::size_t n_configs = members.size();
    // SimResults::levels[0] is the L1, so the member's results sit
    // one past its position in HierarchyParams::levels.
    const std::size_t member_pos = pivots.empty() ? 0 : 1;
    CrossCheckReport report;
    report.rows.resize(store.size() * n_pivots * n_configs);

    parallelFor(jobs, report.rows.size(), [&](std::size_t i) {
        const std::size_t t = i / (n_pivots * n_configs);
        const std::size_t p = (i / n_configs) % n_pivots;
        const std::size_t c = i % n_configs;

        hier::HierarchyParams params = base;
        if (!pivots.empty())
            reshape(params.levels[0], pivots[p]);
        reshape(params.levels[member_pos], members[c]);
        params.measureSolo = solo;
        const hier::SimResults r = expt::runOnTrace(
            params, store.traces()[t],
            expt::scaledWarmup(store.specs()[t]));
        const hier::LevelResults &timing = r.levels[member_pos + 1];

        const TraceProfile &prof = profiles[p][t];
        const ConfigProfile &cp = prof.configs[c];
        CrossCheckRow &row = report.rows[i];
        row.traceName = store.specs()[t].name;
        row.spec = members[c];
        row.onepassReads = cp.filtered.reads;
        row.onepassMisses = cp.filtered.readMisses;
        row.timingReads = timing.readRequests;
        row.timingMisses = timing.readMisses;
        row.l1Match =
            r.levels[0].readRequests == prof.l1ReadRequests &&
            r.levels[0].readMisses == prof.l1ReadMisses;
        // Identical integer divisions on both sides, so the solo
        // doubles compare bitwise-equal when the counts agree.
        if (solo) {
            row.onepassSolo = cp.solo.localMissRatio();
            row.timingSolo = timing.soloMissRatio;
        }
        if (!pivots.empty()) {
            const PivotLink &link = prof.pivotChain[0];
            row.pivotMatch =
                r.levels[1].readRequests == link.counts.reads &&
                r.levels[1].readMisses == link.counts.readMisses &&
                (!solo || r.levels[1].soloMissRatio ==
                              link.solo.localMissRatio());
        }
    });
    return report;
}

} // namespace

CrossCheckReport
crossCheck(const hier::HierarchyParams &base,
           const FamilySpec &family, const expt::TraceStore &store,
           std::size_t jobs, bool solo)
{
    ProfileOptions opts;
    opts.solo = solo;
    return checkProfiles(base, {}, family.configs,
                         {profileSuite(base, family, store, jobs, opts)},
                         store, jobs, solo);
}

CrossCheckReport
crossCheckCascade(const hier::HierarchyParams &base,
                  const CascadeFamilySpec &family,
                  const expt::TraceStore &store, std::size_t jobs,
                  bool solo)
{
    ProfileOptions opts;
    opts.solo = solo;
    return checkProfiles(
        base, family.pivots, family.l3.configs,
        profileCascadeSuite(base, family, store, jobs, opts), store,
        jobs, solo);
}

} // namespace onepass
} // namespace mlc
