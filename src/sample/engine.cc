#include "sample/engine.hh"

#include <algorithm>

#include "trace/binary.hh"
#include "trace/stack_distance.hh"
#include "util/bits.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace sample {

namespace detail {

void
finishSampled(hier::HierarchySimulator &sim,
              const SampledOptions &opts, SampledResult &out)
{
    // An early stop leaves the tail of the schedule untouched; it
    // is skipped work as far as accounting goes.
    out.refsSkipped = out.refsTotal - out.refsMeasured -
                      out.refsDetailWarmed -
                      out.refsFunctionalWarmed;

    if (out.windowCpi.count() == 0)
        mlc_panic("sample: no window produced a CPI sample");
    // Ratio estimate (see SampledResult::estCpi); the interval is
    // re-centred on it, keeping the window-spread half-width — the
    // usual large-sample approximation for a ratio estimator whose
    // denominators are near-equal.
    out.estCpi = static_cast<double>(out.cyclesMeasured) /
                 static_cast<double>(out.instructionsMeasured);
    out.cpiInterval = out.windowCpi.interval(opts.confidence);
    out.cpiInterval.mean = out.estCpi;
    out.functional = sim.results();
    // Ideal CPI from the replayed subset's instruction/store mix;
    // see SimResults for the normalization this mirrors.
    const double ideal_cpi =
        out.functional.instructions == 0
            ? 1.0
            : static_cast<double>(out.functional.idealCycles) /
                  static_cast<double>(out.functional.instructions);
    out.estRelExecTime = ideal_cpi == 0.0 ? 0.0
                                          : out.estCpi / ideal_cpi;
}

} // namespace detail

std::uint64_t
deriveFunctionalWarmRefs(trace::RefSpan refs,
                         const hier::HierarchyParams &params,
                         const SampledOptions &opts)
{
    const cache::CacheParams &deepest =
        params.levels.empty() ? params.l1d : params.levels.back();
    const std::uint32_t block = deepest.geometry.blockBytes;
    const std::uint64_t capacity_blocks =
        deepest.geometry.numBlocks();

    const std::uint64_t hi = refs.size / 2;
    const std::uint64_t lo = std::min(opts.measureRefs, hi);
    const auto clamp = [&](std::uint64_t w) {
        return std::max(lo, std::min(w, hi));
    };

    const std::size_t probe = static_cast<std::size_t>(
        std::min<std::uint64_t>(opts.adaptiveWarmProbeRefs,
                                refs.size));
    trace::StackDistanceAnalyzer analyzer(block);
    std::uint64_t reads = 0;
    for (std::size_t i = 0; i < probe; ++i) {
        const trace::MemRef &ref = refs.data[i];
        if (ref.isRead()) {
            analyzer.access(ref.addr);
            ++reads;
        }
    }
    if (reads == 0 || probe == 0)
        return clamp(opts.functionalWarmRefs);

    const double read_frac = static_cast<double>(reads) /
                             static_cast<double>(probe);
    const double tail_miss = analyzer.missRatio(capacity_blocks);
    if (tail_miss <= 0.0) {
        // The probe's whole footprint fits: the steady-state miss
        // ratio gives no fill rate, so only seeing (roughly) the
        // footprint again rebuilds the state — take the high clamp.
        return hi;
    }
    // Expected reads per fill at the tail is 1/missRatio; cover
    // the capacity about twice over for the deepest cache's sets
    // to shed their pre-Skip staleness.
    const double warm = 2.0 *
                        static_cast<double>(capacity_blocks) /
                        (read_frac * tail_miss);
    if (warm >= static_cast<double>(hi))
        return hi;
    return clamp(static_cast<std::uint64_t>(warm));
}

SampledResult
runSampled(const hier::HierarchyParams &params, trace::RefSpan refs,
           const SampledOptions &opts,
           const trace::MappedBinaryTrace *mapped)
{
    SampledOptions resolved = opts;
    if (opts.adaptiveWarm)
        resolved.functionalWarmRefs =
            deriveFunctionalWarmRefs(refs, params, opts);

    SampleScheduler sched(refs.size, resolved);
    hier::HierarchySimulator sim(params);

    SampledResult out;
    out.refsTotal = refs.size;
    out.warmRefsPerWindow = sched.plan().functionalWarmRefs;
    out.adaptiveWarmUsed = opts.adaptiveWarm;

    for (const Segment &seg : sched.segments()) {
        if (seg.kind == SegmentKind::Skip)
            continue; // pages stay untouched; accounted at the end
        // Under lazy validation only the segments actually replayed
        // are ever scanned (or faulted in).
        if (mapped)
            mapped->validateRange(seg.begin, seg.len);
        const trace::RefSpan span =
            refs.dropFirst(seg.begin).first(seg.len);
        switch (seg.kind) {
        case SegmentKind::Skip:
            break;
        case SegmentKind::Warm:
            sim.runFunctional(span);
            out.refsFunctionalWarmed += seg.len;
            break;
        case SegmentKind::Detail:
            sim.run(span);
            out.refsDetailWarmed += seg.len;
            break;
        case SegmentKind::Measure:
            detail::measureWindow(sim, span, resolved, out);
            break;
        }
        if (out.stoppedEarly)
            break;
    }
    detail::finishSampled(sim, resolved, out);
    return out;
}

SampledSuiteResults
runSuiteSampled(const hier::HierarchyParams &params,
                const expt::TraceStore &store,
                const SampledOptions &opts, std::size_t jobs)
{
    if (store.size() == 0)
        mlc_panic("runSuiteSampled: empty trace store");

    // Slot indexing plus the fixed trace-order reduction below
    // keeps jobs=1 and jobs=N bit-identical (the expt::runSuite
    // contract).
    std::vector<SampledResult> per_trace(store.size());
    parallelFor(jobs, store.size(), [&](std::size_t t) {
        per_trace[t] = runSampled(params, store.span(t), opts);
    });

    SampledSuiteResults suite;
    for (const SampledResult &r : per_trace) {
        suite.relExecTime += r.estRelExecTime;
        suite.cpi += r.estCpi;
        suite.maxRelHalfWidth =
            std::max(suite.maxRelHalfWidth,
                     r.cpiInterval.relativeHalfWidth());
        ++suite.traces;
    }
    const double n = static_cast<double>(suite.traces);
    suite.relExecTime /= n;
    suite.cpi /= n;
    suite.perTrace = std::move(per_trace);
    return suite;
}

expt::DesignSpaceGrid
buildGrid(const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const expt::TraceStore &store, const SampledOptions &opts,
          std::size_t jobs)
{
    // Cells parallelize; each cell's suite run stays serial, so
    // every cell value is independent of the jobs count and the
    // grid inherits parallelBuildGrid's determinism.
    // Each cell keeps the base's L2 associativity
    // (engine::cellMachine's mapping).
    const std::uint32_t assoc = base.levels.at(0).geometry.assoc;
    return expt::parallelBuildGrid(
        sizes, cycles,
        [&](std::uint64_t size, std::uint32_t cycle) {
            return runSuiteSampled(base.withL2(size, cycle, assoc),
                                   store, opts)
                .relExecTime;
        },
        jobs);
}

} // namespace sample
} // namespace mlc
