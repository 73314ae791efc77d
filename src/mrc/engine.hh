/**
 * @file
 * Streaming sampled-MRC engine: the one-pass profiling pipeline
 * with spatial sampling underneath, shaped for traces that do not
 * fit in RAM.
 *
 * It is the one profile pipeline (onepass::Profiler) with two
 * things changed, and nothing else:
 *
 *  1. The ghost forests and FA analyzers are the sampled miniatures
 *     (SampledGhostForest, SampledStackDistance), so cache state is
 *     O(p * footprint) — or O(budget) in adaptive mode — instead of
 *     O(family size * footprint).
 *  2. The replay is *streaming*: the in-line route takes one
 *     reference per step(), so the trace never needs to be
 *     materialized. profileMapped() drives it straight off an
 *     mmap'd binary trace in fixed-size chunks, releasing each
 *     chunk's pages (MADV_DONTNEED) as it goes — peak RSS is one
 *     chunk plus the sampled state, independent of trace length.
 *     (There is no sharded route: MrcOptions has no shard count.)
 *
 * Everything downstream is shared with the exact engine: the
 * L1Filter replay is exact (its state is the L1's, bounded by the
 * L1's size), profiles come out as onepass::TraceProfile, and
 * onepass::gridFromProfiles / EqTimingModel price them unchanged.
 * At rate 1.0 the output is bit-identical to onepass::profileTrace
 * — the sampled engine *is* the exact engine with a filter whose
 * pass rate happens to be 1.
 */

#ifndef MLC_MRC_ENGINE_HH
#define MLC_MRC_ENGINE_HH

#include <cstdint>
#include <vector>

#include "expt/design_space.hh"
#include "expt/workload_suite.hh"
#include "hier/hierarchy_config.hh"
#include "mrc/sampled_ghost.hh"
#include "mrc/sampled_stack.hh"
#include "onepass/cascade.hh"
#include "onepass/engine.hh"
#include "onepass/profiler.hh"
#include "trace/binary.hh"

namespace mlc {
namespace mrc {

/** What and how the sampled engine profiles. */
struct MrcOptions
{
    /** Sampling rate / adaptive budget, shared by the forest and
     *  the FA analyzers. */
    SamplerConfig sampler;
    /** Co-profile a solo forest on the raw CPU stream. */
    bool solo = false;
    /** Sampled FA-LRU bound per distinct block size. */
    bool faBound = false;
    /** profileMapped validates/releases in chunks of this many
     *  records (1M refs = 16MB of trace); 0 = one chunk. */
    std::uint64_t streamChunkRefs = std::uint64_t{1} << 20;
};

/**
 * The engine's heart, exposed for streaming callers: the one
 * profile pipeline over sampled forests. Construct it as
 * StreamingProfiler(base, pivots, family.configs, warmup_refs,
 * profile_options, opts.sampler), feed every reference in order
 * through step(), then finish() (see onepass::Profiler).
 */
using StreamingProfiler =
    onepass::Profiler<SampledGhostForest, SampledStackDistance>;

/** Sampled counterpart of onepass::profileTrace. */
onepass::TraceProfile
profileTrace(const hier::HierarchyParams &base,
             const onepass::FamilySpec &family, trace::RefSpan refs,
             std::uint64_t warmup_refs, const MrcOptions &opts = {});

/**
 * Stream an mmap'd binary trace through the profiler in
 * streamChunkRefs-sized windows, validating each window before
 * replay (lazy traces) and releasing its pages after. Bit-identical
 * to profileTrace over the same records for any chunk size.
 */
onepass::TraceProfile
profileMapped(const hier::HierarchyParams &base,
              const onepass::FamilySpec &family,
              const trace::MappedBinaryTrace &mapped,
              std::uint64_t warmup_refs, const MrcOptions &opts = {});

/** Sampled counterpart of onepass::profileSuite: parallel across
 *  traces, output order fixed — bit-identical for any @p jobs. */
std::vector<onepass::TraceProfile>
profileSuite(const hier::HierarchyParams &base,
             const onepass::FamilySpec &family,
             const expt::TraceStore &store, std::size_t jobs = 1,
             const MrcOptions &opts = {});

/**
 * Sampled counterpart of onepass::profileCascadeTrace: the L1
 * replay and each pivot's CascadeFilter replay stay *exact* (their
 * state is bounded by the machine's own L1/L2 sizes, so sampling
 * them buys nothing), while the L3 member sweeps, the solo
 * forests, and the FA bounds are the sampled miniatures. The pivot
 * links in each returned profile therefore carry exact counts; the
 * member counts are unbiased estimates, bit-identical to the exact
 * cascade engine when every member is natural (p = 1.0).
 */
std::vector<onepass::TraceProfile>
profileCascadeTrace(const hier::HierarchyParams &base,
                    const onepass::CascadeFamilySpec &family,
                    trace::RefSpan refs, std::uint64_t warmup_refs,
                    const MrcOptions &opts = {});

/** Sampled counterpart of onepass::profileCascadeSuite: parallel
 *  across traces, output [pivot][trace], bit-identical for any
 *  @p jobs. */
std::vector<std::vector<onepass::TraceProfile>>
profileCascadeSuite(const hier::HierarchyParams &base,
                    const onepass::CascadeFamilySpec &family,
                    const expt::TraceStore &store,
                    std::size_t jobs = 1, const MrcOptions &opts = {});

/** Sampled counterpart of onepass::buildGrid: profile the L2 family
 *  once per trace at the sampled rate, then price every (size,
 *  cycle) cell analytically via onepass::gridFromProfiles. */
expt::DesignSpaceGrid
buildGrid(const hier::HierarchyParams &base,
          const std::vector<std::uint64_t> &sizes,
          const std::vector<std::uint32_t> &cycles,
          const expt::TraceStore &store, std::size_t jobs = 1,
          const SamplerConfig &sampler = {});

} // namespace mrc
} // namespace mlc

#endif // MLC_MRC_ENGINE_HH
