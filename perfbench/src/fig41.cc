/**
 * @file
 * fig41_timing: the Figure 4-1 (L2 size x L2 cycle) study with the
 * timing simulator, then the same cells with the one-pass engine.
 * Hierarchy simulation does nearly all the work here.
 */

#include <iostream>

#include "onepass/validate.hh"
#include "workloads.hh"

namespace mlcbench {

using namespace mlc;

namespace {

class Fig41 final : public Workload
{
  public:
    explicit Fig41(const Options &opts) : opts_(opts) {}

    void
    setup() override
    {
        store_.reset();
        store_ = std::make_unique<expt::TraceStore>(materializeTraced(
            seededSpecs(expt::gridSuite(), opts_.seed, kFig41Warm,
                        kFig41Measure)));
    }

    void
    run(double seconds, int min_passes, Tally &tally) override
    {
        const std::int64_t t0 = nowNs();
        for (int pass = 0;
             pass < min_passes || secondsSince(t0) < seconds; ++pass) {
            const std::int64_t p0 = nowNs();
            AccuracyPass ap = [&] {
                Span span("fig41.pass");
                return runAccuracyPass(base_, *store_);
            }();
            const double sec = secondsSince(p0);
            const std::size_t cells = ap.cellUs.size();
            log_.seconds.push_back(sec);
            std::cerr << "mlcbench: fig41_timing pass " << pass << " " << sec << " s\n";
            log_.cells.push_back(2.0 * static_cast<double>(cells));
            log_.ops.push_back(static_cast<double>(cells));
            log_.opLatUs.push_back(ap.cellUs);
            tally.attempted += cells;
            // Every pass must reproduce the first one bit for bit.
            if (!first_) {
                first_ = std::make_unique<AccuracyPass>(std::move(ap));
            } else if (!sameGrid(first_->timing, ap.timing) ||
                       !sameGrid(first_->onepass, ap.onepass)) {
                tally.fail("fig41_timing: pass " +
                           std::to_string(pass) +
                           " grid differs from pass 0");
            }
        }
    }

    void
    check(Tally &tally) override
    {
        // One-pass read-miss counts must equal the simulator's,
        // integer for integer, on a fixed cell subset.
        const onepass::FamilySpec family = onepass::FamilySpec::l2Grid(
            base_, {16 << 10, 256 << 10, 2 << 20});
        const onepass::CrossCheckReport report =
            onepass::crossCheck(base_, family, *store_, kJobs);
        tally.attempted += report.rows.size();
        if (!report.allMatch()) {
            report.print(std::cerr);
            for (std::size_t i = 0; i < report.mismatchCount(); ++i)
                tally.fail("fig41_timing: onepass::crossCheck row "
                           "mismatch");
        }
    }

    void
    endToEnd(MetricSet &out) override
    {
        log_.metrics(out, "timing-cell evaluations");
        // The accuracy metrics always describe the default seed's
        // traces (the paper suite), so they repeat exactly.
        if (first_ && opts_.seed == kDefaultSeed)
            accuracyMetrics(*first_, out);
    }

    void resetStats() override { log_.clear(); }
    const char *rateMetric() const override { return "cells_per_s"; }
    void
    teardown() override
    {
        store_.reset();
        first_.reset();
    }

  private:
    Options opts_;
    hier::HierarchyParams base_ = hier::HierarchyParams::baseMachine();
    std::unique_ptr<expt::TraceStore> store_;
    std::unique_ptr<AccuracyPass> first_;
    PassLog log_;
};

} // namespace

std::unique_ptr<Workload>
makeFig41(const Options &opts)
{
    return std::make_unique<Fig41>(opts);
}

} // namespace mlcbench
