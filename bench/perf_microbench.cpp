/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * how fast the apparatus itself runs. The figure benches depend on
 * these staying fast (a full figure sweep simulates ~10^8
 * references).
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "hier/hierarchy.hh"
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

} // namespace

BENCHMARK_MAIN();
