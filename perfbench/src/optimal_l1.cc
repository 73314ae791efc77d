/**
 * @file
 * optimal_l1_onepass: the Section 6 optimal-L1 study. Several L1
 * totals x the Figure 4-1 L2 grid over the eight-trace paper suite,
 * profiled in one pass per (L1, trace) and priced with Eq. 1-3,
 * plus one depth-3 family through the cascade filter and one L1
 * point repriced by the mrc engine at sample rate 1.0. The timing
 * simulator does no work here.
 *
 * Untraced passes call the public profile entry points
 * (onepass::profileTrace, onepass::profileCascadeTrace); traced
 * passes run the same pipeline stage by stage (L1Filter into a
 * FilteredEventLog, sweepEventLog, sweepSoloStream,
 * filterEventLog) so each stage gets its own span. Both must give
 * bit-identical results, which the pass-to-pass check enforces.
 */

#include <algorithm>
#include <cmath>
#include <iostream>

#include "mrc/engine.hh"
#include "mrc/sampled_ghost.hh"
#include "onepass/cascade.hh"
#include "onepass/engine.hh"
#include "onepass/grid.hh"
#include "onepass/l1_filter.hh"
#include "onepass/model_timing.hh"
#include "onepass/sharded.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

namespace mlcbench {

using namespace mlc;
using onepass::FilteredEventLog;
using onepass::GhostCacheSpec;
using onepass::GhostCounts;
using onepass::TraceProfile;

namespace {

/** Paper suite length: 400K warm-up + 1.2M measured refs a trace. */
constexpr std::uint64_t kWarm = 400'000;
constexpr std::uint64_t kMeasure = 1'200'000;

/** CPU cycle (ns) for an L1 of @p l1_total bytes: 10ns plus 1.5ns
 *  per doubling beyond 4KB (table_optimal_l1's technology rule). */
double
cpuCycleNsForL1(std::uint64_t l1_total)
{
    double ns = 10.0;
    for (std::uint64_t s = 4096; s < l1_total; s *= 2)
        ns += 1.5;
    return ns;
}

std::uint32_t
maxAssoc(const std::vector<GhostCacheSpec> &specs)
{
    std::uint32_t m = 1;
    for (const GhostCacheSpec &s : specs)
        m = std::max(m, s.assoc);
    return m;
}

/** The depth-3 machine: small fast L2 pivots over a large L3. */
hier::HierarchyParams
threeLevelBase()
{
    hier::HierarchyParams p = hier::HierarchyParams::baseMachine();
    p.levels[0].geometry.sizeBytes = 64 << 10;
    p.levels[0].cycleNs = 20.0;
    cache::CacheParams l3;
    l3.name = "l3";
    l3.geometry.sizeBytes = 1 << 20;
    l3.geometry.blockBytes = 32;
    l3.geometry.assoc = 2;
    l3.cycleNs = 50.0;
    p.levels.push_back(l3);
    p.busWidthWords = {4, 4, 4};
    p.backplaneCycleNs = 50.0;
    return p;
}

/** Replay the L1s once, recording the departing event stream. */
FilteredEventLog
filterL1(onepass::L1Filter &filter, trace::RefSpan refs,
         std::uint64_t warm)
{
    Span span("onepass.l1filter");
    FilteredEventLog log;
    log.warmEvents = FilteredEventLog::kNoBoundary;
    log.events.reserve(refs.size / 8);
    for (std::size_t i = 0; i < refs.size; ++i) {
        if (i == warm) {
            filter.resetCounts();
            log.warmEvents = log.events.size();
        }
        filter.step(refs[i], log);
    }
    Tracer &tr = Tracer::instance();
    tr.count("onepass.l1_refs", static_cast<double>(refs.size));
    tr.count("onepass.events", static_cast<double>(log.events.size()));
    return log;
}

std::vector<GhostCounts>
forest(const FilteredEventLog &log,
       const std::vector<GhostCacheSpec> &configs,
       const onepass::GhostPolicies &pol)
{
    Span span("onepass.forest");
    Tracer::instance().count("onepass.forest_events",
                             static_cast<double>(log.events.size()));
    return onepass::sweepEventLog(log, configs, pol, 1);
}

void
copyMix(const onepass::L1Filter &f, TraceProfile &tp)
{
    tp.instructions = f.instructions();
    tp.ifetches = f.ifetches();
    tp.loads = f.loads();
    tp.stores = f.stores();
    tp.l1ReadRequests = f.l1ReadRequests();
    tp.l1ReadMisses = f.l1ReadMisses();
}

/** onepass::profileTrace, stage by stage. */
TraceProfile
stagedProfile(const hier::HierarchyParams &base,
              const onepass::FamilySpec &family, trace::RefSpan refs,
              std::uint64_t warm, bool solo, FilteredEventLog *keep)
{
    onepass::L1Filter filter(base);
    const onepass::GhostPolicies pol = onepass::GhostPolicies::fromLevel(
        filter.params().levels[0], maxAssoc(family.configs));
    FilteredEventLog log = filterL1(filter, refs, warm);
    const std::vector<GhostCounts> filtered =
        forest(log, family.configs, pol);
    std::vector<GhostCounts> solo_counts;
    if (solo) {
        Span span("onepass.solo");
        Tracer::instance().count("onepass.solo_refs",
                                 static_cast<double>(refs.size));
        solo_counts = onepass::sweepSoloStream(refs, warm,
                                               family.configs, pol, 1);
    }
    TraceProfile out;
    copyMix(filter, out);
    out.configs.resize(family.configs.size());
    for (std::size_t m = 0; m < family.configs.size(); ++m) {
        out.configs[m].spec = family.configs[m];
        out.configs[m].filtered = filtered[m];
        if (solo)
            out.configs[m].solo = solo_counts[m];
    }
    if (keep)
        *keep = std::move(log);
    return out;
}

/** onepass::profileCascadeTrace, stage by stage. */
std::vector<TraceProfile>
stagedCascade(const hier::HierarchyParams &base,
              const onepass::CascadeFamilySpec &family,
              trace::RefSpan refs, std::uint64_t warm, Tally &tally)
{
    onepass::L1Filter filter(base);
    const hier::HierarchyParams &params = filter.params();
    const onepass::GhostPolicies pivot_pol =
        onepass::GhostPolicies::fromLevel(params.levels[0],
                                          maxAssoc(family.pivots));
    const onepass::GhostPolicies l3_pol =
        onepass::GhostPolicies::fromLevel(
            params.levels[1], maxAssoc(family.l3.configs));
    const FilteredEventLog l1log = filterL1(filter, refs, warm);
    const std::vector<GhostCounts> pivot_forest =
        forest(l1log, family.pivots, pivot_pol);

    std::vector<TraceProfile> out(family.pivots.size());
    FilteredEventLog l2log;
    for (std::size_t p = 0; p < family.pivots.size(); ++p) {
        onepass::CascadeFilter cascade(params, family.pivots[p]);
        {
            Span span("onepass.cascade");
            Tracer::instance().count(
                "onepass.cascade_events",
                static_cast<double>(l1log.events.size()));
            onepass::filterEventLog(l1log, cascade, l2log);
        }
        const GhostCounts &c = cascade.counts();
        const GhostCounts &g = pivot_forest[p];
        if (c.reads != g.reads || c.readMisses != g.readMisses ||
            c.extraAccesses != g.extraAccesses ||
            c.extraMisses != g.extraMisses)
            tally.fail("optimal_l1_onepass: cascade pivot " +
                       family.pivots[p].toString() +
                       " disagrees with the L2 ghost forest");
        const std::vector<GhostCounts> filtered =
            forest(l2log, family.l3.configs, l3_pol);
        TraceProfile &tp = out[p];
        copyMix(filter, tp);
        tp.pivotChain.push_back({family.pivots[p], c, GhostCounts{}});
        tp.configs.resize(family.l3.configs.size());
        for (std::size_t m = 0; m < family.l3.configs.size(); ++m) {
            tp.configs[m].spec = family.l3.configs[m];
            tp.configs[m].filtered = filtered[m];
        }
    }
    return out;
}

/** Everything one pass produces that later passes must repeat. */
struct StudyOutput
{
    std::vector<expt::DesignSpaceGrid> grids; //!< one per L1 total
    std::vector<double> cascadeCpi;
    std::vector<std::uint64_t> optimalL1; //!< per (size, cycle)

    bool
    operator==(const StudyOutput &o) const
    {
        if (grids.size() != o.grids.size())
            return false;
        for (std::size_t i = 0; i < grids.size(); ++i)
            if (!sameGrid(grids[i], o.grids[i]))
                return false;
        return cascadeCpi == o.cascadeCpi && optimalL1 == o.optimalL1;
    }
};

class OptimalL1 final : public Workload
{
  public:
    explicit OptimalL1(const Options &opts) : opts_(opts)
    {
        const hier::HierarchyParams base =
            hier::HierarchyParams::baseMachine();
        for (const std::uint64_t l1 : l1Totals_) {
            machines_.push_back(base.withL1Total(l1));
            families_.push_back(onepass::FamilySpec::l2Grid(
                machines_.back(), sizes_));
        }
        for (const std::uint64_t l2 : pivotSizes_)
            cascade_.pivots.push_back(
                {l2, base3_.levels[0].geometry.assoc,
                 base3_.levels[0].geometry.blockBytes});
        for (const std::uint64_t l3 : l3Sizes_)
            cascade_.l3.configs.push_back(
                {l3, base3_.levels[1].geometry.assoc,
                 base3_.levels[1].geometry.blockBytes});
    }

    void
    setup() override
    {
        store_.reset();
        store_ = std::make_unique<expt::TraceStore>(materializeTraced(
            seededSpecs(expt::paperSuite(), opts_.seed, kWarm,
                        kMeasure)));
    }

    void
    run(double seconds, int min_passes, Tally &tally) override
    {
        const std::int64_t t0 = nowNs();
        for (int pass = 0;
             pass < min_passes || secondsSince(t0) < seconds; ++pass) {
            const std::int64_t p0 = nowNs();
            std::size_t cells = 0, ops = 0;
            StudyOutput out = onePass(tally, cells, ops);
            const double sec = secondsSince(p0);
            log_.seconds.push_back(sec);
            std::cerr << "mlcbench: optimal_l1_onepass pass " << pass << " " << sec << " s\n";
            log_.cells.push_back(static_cast<double>(cells));
            log_.ops.push_back(static_cast<double>(ops));
            tally.attempted += ops;
            if (!first_)
                first_ = std::make_unique<StudyOutput>(std::move(out));
            else if (!(out == *first_))
                tally.fail("optimal_l1_onepass: pass " +
                           std::to_string(pass) +
                           " results differ from pass 0");
        }
    }

    void
    check(Tally &tally) override
    {
        // The mrc engine at sample rate 1.0 must reproduce the
        // one-pass grid of the same L1 point bit for bit.
        ++tally.attempted;
        if (!mrcMatches_)
            tally.fail("optimal_l1_onepass: mrc grid at rate 1.0 is "
                       "not bit-identical to the one-pass grid");
    }

    void
    endToEnd(MetricSet &out) override
    {
        log_.metrics(out, "per-trace profile passes");
    }

    void resetStats() override { log_.clear(); }
    const char *rateMetric() const override { return "cells_per_s"; }
    void
    teardown() override
    {
        store_.reset();
    }

  private:
    StudyOutput
    onePass(Tally &tally, std::size_t &cells, std::size_t &ops)
    {
        Span pass_span("optimal_l1.pass");
        const std::uint32_t parent = pass_span.id();
        const bool traced = Tracer::instance().enabled();
        const std::size_t n_traces = store_->size();
        const std::size_t n_l1 = machines_.size();

        // --- Profile every (L1 total, trace) and the cascade.
        std::vector<std::vector<TraceProfile>> prof(
            n_l1, std::vector<TraceProfile>(n_traces));
        std::vector<std::vector<TraceProfile>> cprof(n_traces);
        std::vector<double> lat_us(n_l1 * n_traces + n_traces);
        FilteredEventLog mrc_log;
        parallelFor(kJobs, lat_us.size(), [&](std::size_t task) {
            const std::int64_t t0 = nowNs();
            if (task < n_l1 * n_traces) {
                const std::size_t l = task / n_traces;
                const std::size_t t = task % n_traces;
                Span span("onepass.profile", parent);
                const bool solo = l == 0;
                const std::uint64_t warm =
                    expt::scaledWarmup(store_->specs()[t]);
                if (traced) {
                    prof[l][t] = stagedProfile(
                        machines_[l], families_[l], store_->span(t),
                        warm, solo, task == 0 ? &mrc_log : nullptr);
                } else {
                    onepass::ProfileOptions po;
                    po.solo = solo;
                    prof[l][t] = onepass::profileTrace(
                        machines_[l], families_[l], store_->span(t),
                        warm, po);
                }
            } else {
                const std::size_t t = task - n_l1 * n_traces;
                Span span("onepass.cascade_profile", parent);
                const std::uint64_t warm =
                    expt::scaledWarmup(store_->specs()[t]);
                cprof[t] =
                    traced ? stagedCascade(base3_, cascade_,
                                           store_->span(t), warm, tally)
                           : onepass::profileCascadeTrace(
                                 base3_, cascade_, store_->span(t),
                                 warm);
            }
            lat_us[task] = static_cast<double>(nowNs() - t0) / 1e3;
        });
        log_.opLatUs.push_back(lat_us);
        ops = lat_us.size();

        // --- Price: Eq. 1-3 over every cell.
        StudyOutput out;
        {
            Span span("onepass.price");
            for (std::size_t l = 0; l < n_l1; ++l)
                out.grids.push_back(onepass::gridFromProfiles(
                    machines_[l], sizes_, cycles_, prof[l]));
            for (std::size_t p = 0; p < pivotSizes_.size(); ++p)
                for (std::size_t m = 0; m < l3Sizes_.size(); ++m)
                    for (const std::uint32_t cyc : pivotCycles_) {
                        hier::HierarchyParams machine = base3_.withL2(
                            pivotSizes_[p], cyc,
                            base3_.levels[0].geometry.assoc);
                        machine.levels[1].geometry.sizeBytes =
                            l3Sizes_[m];
                        const onepass::EqTimingModel model =
                            onepass::EqTimingModel::forMachine(machine);
                        double sum = 0.0;
                        for (std::size_t t = 0; t < n_traces; ++t)
                            sum += model.cpi(cprof[t][p], m);
                        out.cascadeCpi.push_back(
                            sum / static_cast<double>(n_traces));
                    }
            const std::size_t priced =
                n_l1 * sizes_.size() * cycles_.size() +
                out.cascadeCpi.size();
            Tracer::instance().count("onepass.price_cells",
                                     static_cast<double>(priced));
            cells += priced;
        }

        // --- The study's answer: the time-optimal L1 per L2 cell.
        for (std::size_t s = 0; s < sizes_.size(); ++s)
            for (std::size_t c = 0; c < cycles_.size(); ++c) {
                std::size_t best = 0;
                for (std::size_t l = 1; l < n_l1; ++l)
                    if (out.grids[l].at(s, c) *
                            cpuCycleNsForL1(l1Totals_[l]) <
                        out.grids[best].at(s, c) *
                            cpuCycleNsForL1(l1Totals_[best]))
                        best = l;
                out.optimalL1.push_back(l1Totals_[best]);
            }

        // --- mrc at rate 1.0 on the first L1 point.
        mrc::SamplerConfig exact;
        exact.rate = 1.0;
        expt::DesignSpaceGrid mrc_grid = [&] {
            Span span("mrc.buildGrid");
            return mrc::buildGrid(machines_[0], sizes_, cycles_,
                                  *store_, kJobs, exact);
        }();
        cells += sizes_.size() * cycles_.size();
        mrcMatches_ = mrcMatches_ && sameGrid(mrc_grid, out.grids[0]);
        if (traced)
            mrcForest(mrc_log, exact);
        return out;
    }

    /** The mrc layer's own sweep: the sampled ghost forest over the
     *  first task's event log, at the workload's rate. */
    void
    mrcForest(const FilteredEventLog &log, const mrc::SamplerConfig &cfg)
    {
        const onepass::GhostPolicies pol =
            onepass::GhostPolicies::fromLevel(
                machines_[0].levels[0], maxAssoc(families_[0].configs));
        mrc::SampledGhostForest f(families_[0].configs, pol, cfg);
        {
            Span span("mrc.forest");
            for (std::size_t i = 0; i < log.events.size(); ++i) {
                if (i == log.warmEvents)
                    f.resetCounts();
                const std::uint64_t e = log.events[i];
                const Addr a = e & ~FilteredEventLog::kKindMask;
                switch (e & FilteredEventLog::kKindMask) {
                  case FilteredEventLog::ReadCounted:
                    f.read(a, true);
                    break;
                  case FilteredEventLog::ReadUncounted:
                    f.read(a, false);
                    break;
                  default:
                    f.write(a);
                }
            }
        }
        Tracer &tr = Tracer::instance();
        tr.count("mrc.events", static_cast<double>(log.events.size()));
        for (std::size_t m = 0; m < families_[0].configs.size(); ++m) {
            tr.count("mrc.kept_rate_sum", f.effectiveRate(m));
            tr.count("mrc.members", 1.0);
        }
    }

    Options opts_;
    const std::vector<std::uint64_t> l1Totals_ = {
        4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10};
    const std::vector<std::uint64_t> sizes_ = expt::paperSizes();
    const std::vector<std::uint32_t> cycles_ = expt::paperCycles();
    std::vector<hier::HierarchyParams> machines_;
    std::vector<onepass::FamilySpec> families_;

    const hier::HierarchyParams base3_ = threeLevelBase();
    const std::vector<std::uint64_t> pivotSizes_ = {32 << 10, 64 << 10,
                                                    128 << 10};
    const std::vector<std::uint64_t> l3Sizes_ = {512 << 10, 1 << 20,
                                                 2 << 20, 4 << 20};
    const std::vector<std::uint32_t> pivotCycles_ = {2, 3, 4};
    onepass::CascadeFamilySpec cascade_;

    std::unique_ptr<expt::TraceStore> store_;
    std::unique_ptr<StudyOutput> first_;
    bool mrcMatches_ = true;
    PassLog log_;
};

} // namespace

std::unique_ptr<Workload>
makeOptimalL1(const Options &opts)
{
    return std::make_unique<OptimalL1>(opts);
}

} // namespace mlcbench
