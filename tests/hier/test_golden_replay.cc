/**
 * @file
 * Golden equivalence tests for the replay data path.
 *
 * The simulator offers several ways to feed the same references —
 * scalar next() through the batching default, an overridden
 * nextBatch(), and zero-copy RefSpan replay — and an inline L1
 * hit fast path that bypasses the generic access machinery. All of
 * them must produce *integer-identical* results: same cycle count,
 * same counter values, same victim choices, on every configuration.
 * These tests are the contract that keeps the hot-path work honest.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "hier/hierarchy.hh"
#include "trace/interleave.hh"
#include "trace/source.hh"

namespace mlc {
namespace hier {
namespace {

using trace::MemRef;

/** Everything integer a run produces, for exact comparison. */
struct Golden
{
    Tick now = 0;
    std::uint64_t totalCycles = 0;
    std::uint64_t references = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cpuReads = 0;
    std::uint64_t cpuWrites = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::vector<std::uint64_t> levelReads;
    std::vector<std::uint64_t> levelMisses;
    std::vector<std::uint64_t> levelWritebacks;
    std::uint64_t wbFullStalls = 0;

    bool
    operator==(const Golden &o) const
    {
        return now == o.now && totalCycles == o.totalCycles &&
               references == o.references &&
               instructions == o.instructions &&
               cpuReads == o.cpuReads && cpuWrites == o.cpuWrites &&
               memReads == o.memReads && memWrites == o.memWrites &&
               levelReads == o.levelReads &&
               levelMisses == o.levelMisses &&
               levelWritebacks == o.levelWritebacks &&
               wbFullStalls == o.wbFullStalls;
    }
};

Golden
extract(const HierarchySimulator &sim)
{
    Golden g;
    const SimResults r = sim.results();
    g.now = sim.now();
    g.totalCycles = r.totalCycles;
    g.references = r.references;
    g.instructions = r.instructions;
    g.cpuReads = r.cpuReads;
    g.cpuWrites = r.cpuWrites;
    g.memReads = sim.memoryReads();
    g.memWrites = sim.memoryWrites();
    g.wbFullStalls = r.writeBufferFullStalls;
    for (const LevelResults &lvl : r.levels) {
        g.levelReads.push_back(lvl.readRequests);
        g.levelMisses.push_back(lvl.readMisses);
        g.levelWritebacks.push_back(lvl.writebacks);
    }
    return g;
}

/** A source that deliberately hides its contiguity: only next()
 *  is exposed, so the simulator's batch loop runs the scalar
 *  default in TraceSource. */
class ScalarOnlySource : public trace::TraceSource
{
  public:
    explicit ScalarOnlySource(trace::RefSpan span) : span_(span) {}
    bool
    next(MemRef &ref) override
    {
        if (pos_ >= span_.size)
            return false;
        ref = span_[pos_++];
        return true;
    }

  private:
    trace::RefSpan span_;
    std::size_t pos_ = 0;
};

enum class Mode { Scalar, Batched, Span };

Golden
replay(const HierarchyParams &params, trace::RefSpan warm,
       trace::RefSpan measure, Mode mode, bool fast_path)
{
    HierarchySimulator sim(params);
    sim.setReadHitFastPath(fast_path);
    switch (mode) {
      case Mode::Scalar: {
        ScalarOnlySource ws(warm);
        sim.warmUp(ws, warm.size);
        ScalarOnlySource ms(measure);
        sim.run(ms);
        break;
      }
      case Mode::Batched: {
        trace::SpanSource ws(warm);
        sim.warmUp(ws, warm.size);
        trace::SpanSource ms(measure);
        sim.run(ms);
        break;
      }
      case Mode::Span:
        sim.warmUp(warm);
        sim.run(measure);
        break;
    }
    return extract(sim);
}

/** Assert every (mode, fast path) combination matches the scalar
 *  generic-path reference replay exactly. */
void
expectAllModesIdentical(const HierarchyParams &params,
                        const std::vector<MemRef> &refs)
{
    const trace::RefSpan all{refs.data(), refs.size()};
    const trace::RefSpan warm = all.first(refs.size() / 4);
    const trace::RefSpan measure = all.dropFirst(refs.size() / 4);

    const Golden reference =
        replay(params, warm, measure, Mode::Scalar, false);
    EXPECT_GT(reference.references, 0u);

    for (const Mode mode :
         {Mode::Scalar, Mode::Batched, Mode::Span}) {
        for (const bool fast : {false, true}) {
            const Golden got =
                replay(params, warm, measure, mode, fast);
            EXPECT_TRUE(got == reference)
                << "replay diverged: mode="
                << static_cast<int>(mode) << " fast=" << fast
                << " cycles " << got.totalCycles << " vs "
                << reference.totalCycles << ", now " << got.now
                << " vs " << reference.now;
        }
    }
}

std::vector<MemRef>
workload(std::uint64_t refs)
{
    auto gen = trace::makeMultiprogrammedWorkload(4, 6000, 0);
    return trace::collect(*gen, refs);
}

TEST(GoldenReplay, BaseMachineWriteBack)
{
    expectAllModesIdentical(HierarchyParams::baseMachine(),
                            workload(120000));
}

TEST(GoldenReplay, BaseMachineSixProcessLongStream)
{
    // The replay throughput workload (six processes, 12000-ref
    // quanta) at millions of references: long enough for every
    // write buffer and victim path to cycle many times.
    auto gen = trace::makeMultiprogrammedWorkload(6, 12000, 0);
    expectAllModesIdentical(HierarchyParams::baseMachine(),
                            trace::collect(*gen, 2'500'000));
}

TEST(GoldenReplay, WriteThroughL1)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    p.l1i.writePolicy = cache::WritePolicy::WriteThrough;
    p.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    expectAllModesIdentical(p, workload(120000));
}

TEST(GoldenReplay, WriteThroughNoAllocateL1)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    p.l1d.writePolicy = cache::WritePolicy::WriteThrough;
    p.l1d.allocPolicy = cache::AllocPolicy::NoWriteAllocate;
    expectAllModesIdentical(p, workload(120000));
}

TEST(GoldenReplay, SubBlockedL1)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    // 16 B blocks fetched in 4 B sectors: the sub-block valid-mask
    // path, including tag-hit-but-invalid-sector misses.
    p.l1i.fetchBytes = 4;
    p.l1d.fetchBytes = 4;
    expectAllModesIdentical(p, workload(120000));
}

TEST(GoldenReplay, ThreeLevelHierarchy)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    cache::CacheParams l3 = p.levels.back();
    l3.name = "l3";
    l3.geometry.sizeBytes = 4u << 20;
    l3.geometry.blockBytes = 64;
    l3.cycleNs = 60.0;
    p.levels.push_back(l3);
    p.busWidthWords.push_back(p.busWidthWords.back());
    expectAllModesIdentical(p, workload(120000));
}

TEST(GoldenReplay, UnifiedL1)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    p.splitL1 = false;
    p.l1d.geometry.sizeBytes = 4096;
    expectAllModesIdentical(p, workload(120000));
}

/**
 * Victim-order regression: with associativity > 1 the exact victim
 * choices feed back into every later hit and miss, so any drift in
 * LRU stamps, FIFO insert order or the seeded Random stream shows
 * up as a cycle-count divergence between the replay modes — and a
 * change in the totals against the generic path.
 */
TEST(GoldenReplay, VictimOrderAcrossPolicies)
{
    for (const cache::ReplPolicy policy :
         {cache::ReplPolicy::LRU, cache::ReplPolicy::FIFO,
          cache::ReplPolicy::Random}) {
        HierarchyParams p = HierarchyParams::baseMachine();
        p.l1i.geometry.assoc = 2;
        p.l1d.geometry.assoc = 2;
        p.l1i.replPolicy = policy;
        p.l1d.replPolicy = policy;
        p.levels[0].geometry.assoc = 4;
        p.levels[0].replPolicy = policy;
        expectAllModesIdentical(p, workload(100000));
    }
}

TEST(GoldenReplay, SoloCoSimulationUnaffectedByFastPath)
{
    HierarchyParams p = HierarchyParams::baseMachine();
    p.measureSolo = true;
    const auto refs = workload(100000);
    const trace::RefSpan all{refs.data(), refs.size()};

    auto solo_ratio = [&](bool fast) {
        HierarchySimulator sim(p);
        sim.setReadHitFastPath(fast);
        sim.warmUp(all.first(refs.size() / 4));
        sim.run(all.dropFirst(refs.size() / 4));
        return sim.results().levels[1].soloMissRatio;
    };
    EXPECT_EQ(solo_ratio(false), solo_ratio(true));
}

} // namespace
} // namespace hier
} // namespace mlc
