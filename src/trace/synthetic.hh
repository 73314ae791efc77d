/**
 * @file
 * Synthetic reference-stream generators.
 *
 * The paper drove its simulator with eight multiprogramming traces
 * (four ATUM VAX traces with OS activity, four interleaved MIPS
 * R2000 user traces). Those traces are not publicly available, so
 * this module provides generative models engineered to reproduce
 * the two stream properties the paper's conclusions rest on:
 *
 *  1. The solo read miss ratio of a cache falls by a roughly
 *     constant factor (the paper measures ~0.69) per doubling of
 *     cache size across 4KB..4MB. The data stream is produced by an
 *     LRU-stack generative model whose stack-depth distribution is
 *     a discrete Pareto: by construction, the miss ratio of a
 *     fully-associative LRU cache of S granules equals
 *     P(depth >= S) ~ (S / s0)^-theta, i.e. a constant factor
 *     2^-theta per doubling. theta = 0.535 gives the paper's 0.69.
 *
 *  2. Instruction fetches dominate references and are strongly
 *     sequential with loop/call structure; a loop-and-call Markov
 *     model over a Zipf-popular function table produces that.
 *
 * Generators are deterministic given their seed.
 */

#ifndef MLC_TRACE_SYNTHETIC_HH
#define MLC_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/mem_ref.hh"
#include "trace/lru_stack.hh"
#include "trace/source.hh"
#include "util/random.hh"

namespace mlc {
namespace trace {

/**
 * Samples LRU stack depths from a discrete Pareto distribution:
 * P(depth >= d) = min(1, ((d + 1) / s0)^-theta).
 */
class ParetoDepthSampler
{
  public:
    /**
     * @param theta tail exponent (> 0); miss ratio per size
     *        doubling changes by 2^-theta.
     * @param s0 locality scale (>= 1); larger values shift the
     *        whole miss-ratio curve up.
     */
    ParetoDepthSampler(double theta, double s0);

    /** Draw a depth (0 = most recently used granule). */
    std::uint64_t sample(Rng &rng) const;

    /** P(depth >= d): the fully-associative LRU miss ratio at d. */
    double tail(std::uint64_t d) const;

    double theta() const { return theta_; }

  private:
    double theta_;
    double s0_;
};

/** Parameters of the data-reference stack model. */
struct DataStreamParams
{
    /** Granule size in bytes (spatial-locality unit). */
    std::uint64_t granuleBytes = 16;
    /** Tail exponent; 0.535 yields the paper's 0.69/doubling. */
    double theta = 0.60;
    /** Locality scale; calibrates absolute miss levels. */
    double localityScale = 3.5;
    /** Footprint cap: beyond this many granules, deep references
     *  allocate new granules (compulsory misses). */
    std::uint64_t footprintGranules = 1u << 17;
    /**
     * Granules pre-installed in the stack at construction. A
     * warmed-up footprint makes deep references hit old data
     * instead of allocating, so the miss-ratio-vs-size curve is
     * the pure Pareto power law across the whole 4KB..4MB range
     * the paper sweeps (long-running real programs have touched
     * far more data than any trace window shows). Clamped to
     * footprintGranules.
     */
    std::uint64_t initialFootprintGranules = 1u << 17;
    /** Base byte address of the data segment. */
    Addr base = 0x40000000;
};

/**
 * LRU-stack generative model for data addresses. Each call draws a
 * stack depth; the granule at that depth is referenced and moved to
 * the top. Depths beyond the current stack (or the footprint cap)
 * allocate fresh granules.
 */
class StackDataGenerator
{
  public:
    StackDataGenerator(const DataStreamParams &params,
                       std::uint64_t seed);

    /** Produce the next data byte address. */
    Addr next();

    /** Current number of distinct granules touched. */
    std::uint64_t footprint() const { return stack_.size(); }

    const DataStreamParams &params() const { return params_; }

  private:
    DataStreamParams params_;
    ParetoDepthSampler depths_;
    Rng rng_;
    LruStack stack_;
    std::uint64_t nextGranule_ = 0;
};

/** Parameters of the instruction-fetch model. */
struct InstStreamParams
{
    /** Number of distinct functions in the program. */
    std::uint32_t numFunctions = 512;
    /** Zipf popularity exponent over functions. */
    double functionZipf = 1.2;
    /** Mean function length in instructions (geometric). */
    double meanFunctionLength = 96;
    /** Mean sequential run between branch decisions. */
    double meanRunLength = 8;
    /** At a branch point: probability of a backward loop branch. */
    double loopBranchProb = 0.46;
    /** ... of calling another function. */
    double callProb = 0.07;
    /** ... of returning to the caller. */
    double returnProb = 0.07;
    /** Mean backward branch displacement in instructions. */
    double meanLoopSpan = 24;
    /** Base byte address of the text segment. */
    Addr base = 0;
    /** Instruction size in bytes. */
    std::uint32_t instBytes = 4;
};

/**
 * Loop-and-call instruction-fetch model. A program is a table of
 * functions with Zipf-distributed call popularity; the generator
 * walks sequentially, takes backward loop branches, calls and
 * returns, yielding an instruction stream with realistic spatial
 * and temporal locality whose footprint is
 * numFunctions * meanFunctionLength * instBytes.
 */
class LoopInstructionGenerator
{
  public:
    LoopInstructionGenerator(const InstStreamParams &params,
                             std::uint64_t seed);

    /** Produce the next instruction-fetch byte address. */
    Addr next();

    const InstStreamParams &params() const { return params_; }

    /** Total text-segment bytes across all functions. */
    std::uint64_t textBytes() const { return textBytes_; }

  private:
    struct Function
    {
        Addr entry;
        std::uint32_t lengthInsts;
    };

    struct Frame
    {
        std::uint32_t function;
        std::uint32_t resumeOffset;
    };

    void enterFunction(std::uint32_t index);

    InstStreamParams params_;
    Rng rng_;
    std::vector<Function> functions_;
    std::unique_ptr<DiscreteSampler> callSampler_;
    std::vector<Frame> callStack_;
    std::uint32_t currentFunction_ = 0;
    std::uint32_t offset_ = 0;     //!< instruction offset in function
    std::uint32_t runLeft_ = 1;    //!< fetches before next decision
    std::uint64_t textBytes_ = 0;
};

/** Parameters combining both streams into a CPU workload. */
struct WorkloadParams
{
    InstStreamParams inst;
    DataStreamParams data;
    /** Fraction of instructions carrying a data reference
     *  (paper: ~50% of non-stall cycles). */
    double dataRefFraction = 0.5;
    /** Fraction of data references that are stores
     *  (companion thesis: ~35%). */
    double storeFraction = 0.35;
    /** Process id stamped on every reference. */
    std::uint16_t pid = 0;
};

/**
 * A complete single-process workload: per instruction, one ifetch
 * and possibly one data reference, matching the paper's RISC-like
 * CPU model.
 */
class WorkloadGenerator : public TraceSource
{
  public:
    WorkloadGenerator(const WorkloadParams &params,
                      std::uint64_t seed);

    bool next(MemRef &ref) override;

    const WorkloadParams &params() const { return params_; }

  private:
    WorkloadParams params_;
    Rng rng_;
    LoopInstructionGenerator inst_;
    StackDataGenerator data_;
    bool dataPending_ = false;
    MemRef pendingRef_;
};

/**
 * Build the default eight-trace workload suite used by the
 * benchmark harness: @p processes multiprogrammed processes with
 * slightly varied locality parameters per seed.
 */
WorkloadParams makeProcessParams(std::uint16_t pid,
                                 std::uint64_t variant);

} // namespace trace
} // namespace mlc

#endif // MLC_TRACE_SYNTHETIC_HH
