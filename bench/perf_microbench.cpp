/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * how fast the apparatus itself runs. The figure benches depend on
 * these staying fast (a full figure sweep simulates ~10^8
 * references).
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "expt/design_space.hh"
#include "hier/hierarchy.hh"
#include "mrc/sampled_ghost.hh"
#include "onepass/cascade.hh"
#include "onepass/l1_filter.hh"
#include "onepass/sharded.hh"
#include "trace/interleave.hh"
#include "trace/lru_stack.hh"
#include "trace/stack_distance.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"

namespace {

using namespace mlc;

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_TagArrayProbe(benchmark::State &state)
{
    cache::CacheGeometry g;
    g.sizeBytes = 512 << 10;
    g.blockBytes = 32;
    g.assoc = static_cast<std::uint32_t>(state.range(0));
    g.finalize("bench");
    cache::TagArray tags(g, cache::ReplPolicy::LRU);
    Rng rng(2);
    for (Addr a = 0; a < (512 << 10); a += 32)
        tags.fill(a, false);
    for (auto _ : state) {
        const Addr addr = rng.nextBounded(1 << 20) & ~Addr{3};
        benchmark::DoNotOptimize(tags.probe(addr));
    }
}
BENCHMARK(BM_TagArrayProbe)->Arg(1)->Arg(2)->Arg(8);

void
BM_CacheAccess(benchmark::State &state)
{
    cache::CacheParams p;
    p.geometry.sizeBytes = 64 << 10;
    p.geometry.blockBytes = 32;
    p.geometry.assoc = 2;
    p.finalize();
    cache::Cache c(p, 3);
    cache::AccessOutcome out;
    Rng rng(4);
    for (auto _ : state) {
        const trace::MemRef ref =
            trace::makeLoad(rng.nextBounded(1 << 18) & ~Addr{3});
        c.access(ref, out);
        benchmark::DoNotOptimize(out.hit);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_LruStackMoveToFront(benchmark::State &state)
{
    const auto n = static_cast<std::uint64_t>(state.range(0));
    trace::LruStack stack(n);
    Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            stack.moveToFront(rng.nextBounded(n)));
}
BENCHMARK(BM_LruStackMoveToFront)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17);

/** The depth traffic the data generators actually issue: Pareto
 *  draws with the default data-stream law, folded into the cold
 *  three-quarters of the stack when they run past it. */
void
BM_LruStackMoveToFrontPareto(benchmark::State &state)
{
    const auto n = static_cast<std::uint64_t>(state.range(0));
    const trace::DataStreamParams law;
    const trace::ParetoDepthSampler depths(law.theta,
                                           law.localityScale);
    trace::LruStack stack(n);
    Rng rng(6);
    for (auto _ : state) {
        std::uint64_t d = depths.sample(rng);
        if (d >= n)
            d = rng.nextRange(n / 4, n - 1);
        benchmark::DoNotOptimize(stack.moveToFront(d));
    }
}
BENCHMARK(BM_LruStackMoveToFrontPareto)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17);

void
BM_SyntheticWorkloadGen(benchmark::State &state)
{
    auto src = trace::makeMultiprogrammedWorkload(6, 12000, 0);
    trace::MemRef ref;
    for (auto _ : state) {
        src->next(ref);
        benchmark::DoNotOptimize(ref.addr);
    }
}
BENCHMARK(BM_SyntheticWorkloadGen);

void
BM_StackDistanceAccess(benchmark::State &state)
{
    trace::StackDistanceAnalyzer an(16);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            an.access(rng.nextBounded(1 << 22)));
}
BENCHMARK(BM_StackDistanceAccess);

void
BM_HierarchyPerReference(benchmark::State &state)
{
    // Steady-state cost of one reference through the full base
    // machine (trace pre-generated to exclude generator cost).
    auto gen = trace::makeMultiprogrammedWorkload(4, 12000, 1);
    const auto refs = trace::collect(*gen, 200000);
    hier::HierarchySimulator sim(
        hier::HierarchyParams::baseMachine());
    sim.warmUp(trace::RefSpan{refs.data(), 100000});
    std::size_t i = 0;
    for (auto _ : state) {
        sim.run(trace::RefSpan{&refs[i], 1});
        if (++i == refs.size())
            i = 0;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HierarchyPerReference);

void
BM_HierarchyThroughput(benchmark::State &state)
{
    auto gen = trace::makeMultiprogrammedWorkload(4, 12000, 1);
    const auto refs = trace::collect(*gen, 400000);
    for (auto _ : state) {
        hier::HierarchySimulator sim(
            hier::HierarchyParams::baseMachine());
        sim.run(trace::RefSpan{refs.data(), refs.size()});
        benchmark::DoNotOptimize(sim.results().totalCycles);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(refs.size()));
}
BENCHMARK(BM_HierarchyThroughput)->Unit(benchmark::kMillisecond);

// --- Profile pipeline layers (onepass::Profiler's stages). Each
// reports a per-unit time counter: google-benchmark prints it with
// an SI prefix, so "16.8n" reads 16.8 ns per reference or event.

/** Attach a seconds-per-unit counter for @p units per iteration. */
void
reportTimePer(benchmark::State &state, const char *name,
              std::size_t units)
{
    state.counters[name] = benchmark::Counter(
        static_cast<double>(units),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

/** Counts L1 events and drops them: the replay's own cost. */
struct NullSink
{
    std::size_t events = 0;
    void onRead(Addr, bool) { ++events; }
    void onWrite(Addr) { ++events; }
};

const std::vector<trace::MemRef> &
pipelineRefs()
{
    static const std::vector<trace::MemRef> refs = [] {
        auto gen = trace::makeMultiprogrammedWorkload(4, 12000, 1);
        return trace::collect(*gen, 400000);
    }();
    return refs;
}

/** The paper's L2 grid family on the base machine. */
const onepass::FamilySpec &
pipelineFamily()
{
    static const onepass::FamilySpec family =
        onepass::FamilySpec::l2Grid(hier::HierarchyParams::baseMachine(),
                                    expt::paperSizes());
    return family;
}

/** The L1-filtered stream of pipelineRefs(), recorded once. */
const onepass::FilteredEventLog &
pipelineLog()
{
    static const onepass::FilteredEventLog log = [] {
        onepass::L1Filter filter(hier::HierarchyParams::baseMachine());
        onepass::FilteredEventLog out;
        out.warmEvents = onepass::FilteredEventLog::kNoBoundary;
        for (const trace::MemRef &ref : pipelineRefs())
            filter.step(ref, out);
        return out;
    }();
    return log;
}

/** Apply every event of @p log to @p forest (either forest type). */
template <typename Forest>
void
feedLog(const onepass::FilteredEventLog &log, Forest &forest)
{
    for (const std::uint64_t word : log.events) {
        const Addr addr = word & ~onepass::FilteredEventLog::kKindMask;
        switch (word & onepass::FilteredEventLog::kKindMask) {
          case onepass::FilteredEventLog::ReadCounted:
            forest.read(addr, true);
            break;
          case onepass::FilteredEventLog::ReadUncounted:
            forest.read(addr, false);
            break;
          default:
            forest.write(addr);
            break;
        }
    }
}

onepass::GhostPolicies
pipelinePolicies()
{
    return onepass::GhostPolicies::fromLevel(
        hier::HierarchyParams::baseMachine().levels[0], 1);
}

void
BM_L1FilterReplay(benchmark::State &state)
{
    const std::vector<trace::MemRef> &refs = pipelineRefs();
    for (auto _ : state) {
        onepass::L1Filter filter(hier::HierarchyParams::baseMachine());
        NullSink sink;
        for (const trace::MemRef &ref : refs)
            filter.step(ref, sink);
        benchmark::DoNotOptimize(sink.events);
    }
    reportTimePer(state, "time_per_ref", refs.size());
}
BENCHMARK(BM_L1FilterReplay)->Unit(benchmark::kMillisecond);

void
BM_GhostForestSweep(benchmark::State &state)
{
    const onepass::FilteredEventLog &log = pipelineLog();
    for (auto _ : state) {
        onepass::GhostTagForest forest(pipelineFamily().configs,
                                       pipelinePolicies());
        feedLog(log, forest);
        benchmark::DoNotOptimize(forest.counts(0).readMisses);
    }
    reportTimePer(state, "time_per_event", log.events.size());
}
BENCHMARK(BM_GhostForestSweep)->Unit(benchmark::kMillisecond);

/** Arg: sampling rate in parts per thousand (1000 = exact). */
void
BM_SampledGhostSweep(benchmark::State &state)
{
    const onepass::FilteredEventLog &log = pipelineLog();
    mrc::SamplerConfig sampler;
    sampler.rate = static_cast<double>(state.range(0)) / 1000.0;
    for (auto _ : state) {
        mrc::SampledGhostForest forest(pipelineFamily().configs,
                                       pipelinePolicies(), sampler);
        feedLog(log, forest);
        benchmark::DoNotOptimize(forest.counts(0).readMisses);
    }
    reportTimePer(state, "time_per_event", log.events.size());
}
BENCHMARK(BM_SampledGhostSweep)
    ->Arg(1000)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

void
BM_CascadeFilter(benchmark::State &state)
{
    // A 64KB pivot L2 replayed exactly over the L1 stream; the
    // output log is the L3 family's input.
    const onepass::FilteredEventLog &log = pipelineLog();
    const onepass::GhostCacheSpec pivot{64 << 10, 1, 32};
    onepass::FilteredEventLog out;
    for (auto _ : state) {
        onepass::CascadeFilter cascade(
            hier::HierarchyParams::baseMachine(), pivot);
        onepass::filterEventLog(log, cascade, out);
        benchmark::DoNotOptimize(out.events.size());
    }
    reportTimePer(state, "time_per_event", log.events.size());
}
BENCHMARK(BM_CascadeFilter)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
