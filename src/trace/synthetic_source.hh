/**
 * @file
 * Profile-driven synthetic long-trace generator.
 *
 * The sampled-replay engine exists to measure billion-reference
 * workloads, but traces that long cannot ship with the repository.
 * SyntheticTraceSource generates them on demand: a finite, seeded,
 * multiprogrammed reference stream whose *data* locality is driven
 * by an explicit LRU stack-depth profile (a histogram of reuse
 * depths) instead of the fixed Pareto law in trace/synthetic.hh.
 * Feeding it a profile measured from a real trace (e.g. with
 * StackDistanceAnalyzer) reproduces that trace's miss-ratio-vs-size
 * curve at any length; the default profile reproduces the paper's
 * ~0.69-per-doubling behaviour.
 *
 * The generator is a TraceSource, so everything that replays traces
 * can consume it directly, and nextBatch() is overridden with a
 * tight scalar loop so 1e8-1e9-reference materialization does not
 * pay a virtual call per reference. Streams are deterministic given
 * (params, seed): the same object re-created with the same
 * arguments produces the identical reference sequence.
 */

#ifndef MLC_TRACE_SYNTHETIC_SOURCE_HH
#define MLC_TRACE_SYNTHETIC_SOURCE_HH

#include <cstdint>
#include <vector>

#include "trace/lru_stack.hh"
#include "trace/source.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"

namespace mlc {
namespace trace {

/**
 * A discrete LRU stack-depth profile: bucket b covers depths
 * (upperDepth[b-1], upperDepth[b]] (the first bucket starts at
 * depth 0) and is drawn with probability weight[b] / sum(weights).
 * Within a bucket, depths are uniform. The deepest bound is the
 * generator's steady-state footprint in granules.
 */
struct StackDepthProfile
{
    std::vector<std::uint64_t> upperDepth; //!< ascending bounds
    std::vector<double> weight;            //!< unnormalized

    /**
     * Log2-spaced buckets whose weights follow the Pareto tail
     * P(depth >= d) = ((d+1)/s0)^-theta — the law the default
     * suite generators implement, so a profile-driven stream with
     * this profile matches their miss-ratio-vs-size curve.
     * @param deepest footprint bound in granules (power of two).
     */
    static StackDepthProfile pareto(double theta, double s0,
                                    std::uint64_t deepest);

    /** Panics unless bounds are ascending, weights are
     *  non-negative with a positive sum, and sizes match. */
    void validate() const;
};

/** Parameters of the profile-driven multiprogram stream. */
struct SyntheticTraceParams
{
    /** Total references produced before the source reports
     *  exhaustion (warmup + measure; callers split). */
    std::uint64_t totalRefs = 100'000'000;
    /** Multiprogramming degree. */
    std::size_t processes = 4;
    /** Mean references between context switches (geometric). */
    std::uint64_t switchInterval = 20'000;
    /** Data stack-depth profile; empty uses per-process
     *  Pareto defaults with seeded jitter (suite-like mix). */
    StackDepthProfile profile;
    /** Granule size of the data stream in bytes (power of two). */
    std::uint64_t granuleBytes = 16;
    /** Fraction of instructions carrying a data reference. */
    double dataRefFraction = 0.5;
    /** Fraction of data references that are stores. */
    double storeFraction = 0.35;
};

/**
 * LRU-stack data-address generator driven by a StackDepthProfile.
 * The stack is pre-populated to the profile's deepest bound so the
 * configured reuse distribution holds from the first reference
 * (deep references hit old granules rather than allocating).
 */
class ProfileDataGenerator
{
  public:
    ProfileDataGenerator(const StackDepthProfile &profile,
                         std::uint64_t granule_bytes, Addr base,
                         std::uint64_t seed);

    /** Produce the next data byte address. */
    Addr next();

    /** Granules in the stack (== the profile's deepest bound). */
    std::uint64_t footprint() const { return stack_.size(); }

  private:
    std::vector<std::uint64_t> lowerDepth_; //!< per-bucket lo bound
    std::vector<std::uint64_t> upperDepth_;
    DiscreteSampler buckets_;
    std::uint64_t granuleBytes_;
    Addr base_;
    Rng rng_;
    LruStack stack_;
};

/** The finite multiprogrammed source described in the file
 *  comment. */
class SyntheticTraceSource : public TraceSource
{
  public:
    SyntheticTraceSource(const SyntheticTraceParams &params,
                         std::uint64_t seed);

    bool next(MemRef &ref) override;

    /** Tight scalar loop — no per-reference virtual call. */
    std::size_t nextBatch(MemRef *out, std::size_t n) override;

    const SyntheticTraceParams &params() const { return params_; }
    std::uint64_t totalRefs() const { return params_.totalRefs; }
    std::uint64_t produced() const { return produced_; }

  private:
    struct Process
    {
        LoopInstructionGenerator inst;
        ProfileDataGenerator data;
        Rng mix;
        double dataRefFraction;
        double storeFraction;
        std::uint16_t pid;
        bool dataPending = false;
        MemRef pending;
    };

    /** The body of next(), shared with the batch loop. */
    void step(MemRef &ref);

    void newSwitchInterval();

    SyntheticTraceParams params_;
    std::vector<Process> procs_;
    Rng switchRng_;
    std::size_t current_ = 0;
    std::uint64_t switchLeft_ = 0;
    std::uint64_t produced_ = 0;
};

} // namespace trace
} // namespace mlc

#endif // MLC_TRACE_SYNTHETIC_SOURCE_HH
