#include "trace/synthetic.hh"

#include <cmath>

#include "util/bits.hh"
#include "util/logging.hh"

namespace mlc {
namespace trace {

ParetoDepthSampler::ParetoDepthSampler(double theta, double s0)
    : theta_(theta), s0_(s0)
{
    if (theta <= 0.0)
        mlc_panic("ParetoDepthSampler theta must be positive, got ",
                  theta);
    if (s0 < 1.0)
        mlc_panic("ParetoDepthSampler s0 must be >= 1, got ", s0);
}

std::uint64_t
ParetoDepthSampler::sample(Rng &rng) const
{
    double u = rng.nextDouble();
    if (u <= 0.0)
        u = 0x1.0p-53;
    const double y = s0_ * std::pow(u, -1.0 / theta_);
    // Depth floor(y) - 1 makes P(depth >= d) == tail(d) exactly for
    // all integer d with (d + 1) >= s0.
    if (y >= 0x1.0p62)
        return std::uint64_t{1} << 62;
    const auto depth = static_cast<std::uint64_t>(y);
    return depth == 0 ? 0 : depth - 1;
}

double
ParetoDepthSampler::tail(std::uint64_t d) const
{
    const double x = (static_cast<double>(d) + 1.0) / s0_;
    if (x <= 1.0)
        return 1.0;
    return std::pow(x, -theta_);
}

StackDataGenerator::StackDataGenerator(const DataStreamParams &params,
                                       std::uint64_t seed)
    : params_(params),
      depths_(params.theta, params.localityScale),
      rng_(seed),
      // Warm the stack: oldest data deepest, newest on top.
      stack_(std::min(params.initialFootprintGranules,
                      params.footprintGranules)),
      nextGranule_(stack_.size())
{
    if (!isPowerOfTwo(params_.granuleBytes))
        mlc_panic("data granule size must be a power of two, got ",
                  params_.granuleBytes);
    if (params_.footprintGranules == 0)
        mlc_panic("data footprint must be non-zero");
}

Addr
StackDataGenerator::next()
{
    std::uint64_t depth = depths_.sample(rng_);
    std::uint64_t granule;

    if (depth >= stack_.size()) {
        if (stack_.size() < params_.footprintGranules) {
            // Compulsory reference: allocate the next granule
            // sequentially so freshly touched data is spatially
            // clustered, as heap/stack allocation makes it.
            granule = nextGranule_++;
            stack_.pushFront(granule);
        } else {
            // Footprint is capped: fold deep references into the
            // cold three-quarters of the stack so the tail keeps
            // producing far misses without growing memory.
            const std::size_t lo = stack_.size() / 4;
            depth = rng_.nextRange(lo, stack_.size() - 1);
            granule = stack_.moveToFront(depth);
        }
    } else {
        granule = stack_.moveToFront(depth);
    }

    const std::uint64_t words = params_.granuleBytes / 4;
    const std::uint64_t word = rng_.nextBounded(words);
    return params_.base + granule * params_.granuleBytes + word * 4;
}

LoopInstructionGenerator::LoopInstructionGenerator(
        const InstStreamParams &params, std::uint64_t seed)
    : params_(params), rng_(seed)
{
    if (params_.numFunctions == 0)
        mlc_panic("instruction model needs at least one function");
    if (params_.meanFunctionLength < 1.0 ||
        params_.meanRunLength < 1.0)
        mlc_panic("instruction model mean lengths must be >= 1");
    const double branch_total = params_.loopBranchProb +
                                params_.callProb + params_.returnProb;
    if (branch_total > 1.0)
        mlc_panic("instruction branch probabilities exceed 1: ",
                  branch_total);

    functions_.reserve(params_.numFunctions);
    Addr entry = params_.base;
    std::vector<double> weights(params_.numFunctions);
    for (std::uint32_t i = 0; i < params_.numFunctions; ++i) {
        const auto len = static_cast<std::uint32_t>(
            1 + rng_.nextGeometric(1.0 / params_.meanFunctionLength));
        functions_.push_back({entry, len});
        entry += static_cast<Addr>(len) * params_.instBytes;
        weights[i] = std::pow(static_cast<double>(i + 1),
                              -params_.functionZipf);
    }
    textBytes_ = entry - params_.base;
    callSampler_ = std::make_unique<DiscreteSampler>(weights);
    enterFunction(static_cast<std::uint32_t>(
        callSampler_->sample(rng_)));
    runLeft_ = 1 + static_cast<std::uint32_t>(
        rng_.nextGeometric(1.0 / params_.meanRunLength));
}

void
LoopInstructionGenerator::enterFunction(std::uint32_t index)
{
    currentFunction_ = index;
    offset_ = 0;
}

Addr
LoopInstructionGenerator::next()
{
    const Function &f = functions_[currentFunction_];
    const Addr addr =
        f.entry + static_cast<Addr>(offset_) * params_.instBytes;

    // Decide where the next fetch comes from.
    bool decide = false;
    if (runLeft_ > 1) {
        --runLeft_;
    } else {
        decide = true;
        runLeft_ = 1 + static_cast<std::uint32_t>(
            rng_.nextGeometric(1.0 / params_.meanRunLength));
    }

    auto returnOrJump = [this]() {
        if (!callStack_.empty()) {
            const Frame frame = callStack_.back();
            callStack_.pop_back();
            currentFunction_ = frame.function;
            offset_ = frame.resumeOffset;
            const std::uint32_t len =
                functions_[currentFunction_].lengthInsts;
            if (offset_ >= len)
                offset_ = len - 1;
        } else {
            enterFunction(static_cast<std::uint32_t>(
                callSampler_->sample(rng_)));
        }
    };

    if (decide) {
        const double u = rng_.nextDouble();
        if (u < params_.loopBranchProb) {
            // Backward branch within the function.
            const auto span = static_cast<std::uint32_t>(
                1 + rng_.nextGeometric(1.0 / params_.meanLoopSpan));
            offset_ = offset_ > span ? offset_ - span : 0;
        } else if (u < params_.loopBranchProb + params_.callProb) {
            // Call: remember the return point (bounded stack depth
            // keeps runaway recursion from accumulating state).
            if (callStack_.size() < 64)
                callStack_.push_back(
                    {currentFunction_, offset_ + 1});
            enterFunction(static_cast<std::uint32_t>(
                callSampler_->sample(rng_)));
        } else if (u < params_.loopBranchProb + params_.callProb +
                           params_.returnProb) {
            returnOrJump();
        } else {
            ++offset_;
        }
    } else {
        ++offset_;
    }

    if (offset_ >= functions_[currentFunction_].lengthInsts)
        returnOrJump();

    return addr;
}

WorkloadGenerator::WorkloadGenerator(const WorkloadParams &params,
                                     std::uint64_t seed)
    : params_(params),
      rng_(seed),
      inst_(params.inst, seed ^ 0x9e3779b97f4a7c15ULL),
      data_(params.data, seed ^ 0xc2b2ae3d27d4eb4fULL)
{
    if (params_.dataRefFraction < 0.0 ||
        params_.dataRefFraction > 1.0)
        mlc_panic("dataRefFraction out of [0,1]: ",
                  params_.dataRefFraction);
    if (params_.storeFraction < 0.0 || params_.storeFraction > 1.0)
        mlc_panic("storeFraction out of [0,1]: ",
                  params_.storeFraction);
}

bool
WorkloadGenerator::next(MemRef &ref)
{
    if (dataPending_) {
        ref = pendingRef_;
        dataPending_ = false;
        return true;
    }

    ref.addr = inst_.next();
    ref.type = RefType::IFetch;
    ref.size = 4;
    ref.pid = params_.pid;

    if (rng_.nextBool(params_.dataRefFraction)) {
        pendingRef_.addr = data_.next();
        pendingRef_.type = rng_.nextBool(params_.storeFraction)
                               ? RefType::Store
                               : RefType::Load;
        pendingRef_.size = 4;
        pendingRef_.pid = params_.pid;
        dataPending_ = true;
    }
    return true;
}

WorkloadParams
makeProcessParams(std::uint16_t pid, std::uint64_t variant)
{
    // Jitter the locality parameters per process so the
    // multiprogrammed mix is not eight copies of one program,
    // mirroring the varied VMS/Ultrix/user workloads in the paper.
    Rng jitter(0x8e51ab1eULL + variant * 1021 + pid);
    WorkloadParams p;
    p.pid = pid;
    // Scatter each process's segments within its address space:
    // congruent bases would make all processes' hot regions alias
    // into the same sets of any direct-mapped cache up to the
    // scatter range (16 MB), which real multiprogrammed physical
    // address streams do not do.
    const Addr text_scatter = jitter.nextBounded(1u << 24) & ~0xfffULL;
    const Addr data_scatter = jitter.nextBounded(1u << 24) & ~0xfffULL;
    p.inst.base = (static_cast<Addr>(pid) << 32) + text_scatter;
    p.inst.numFunctions =
        static_cast<std::uint32_t>(jitter.nextRange(256, 512));
    p.inst.functionZipf = 1.25 + 0.35 * jitter.nextDouble();
    p.inst.meanFunctionLength = 56 + 48 * jitter.nextDouble();
    p.data.base = (static_cast<Addr>(pid) << 32) + 0x40000000 +
                  data_scatter;
    p.data.theta = 0.64 + 0.10 * jitter.nextDouble();
    p.data.localityScale = 4.0 + 2.0 * jitter.nextDouble();
    p.dataRefFraction = 0.45 + 0.10 * jitter.nextDouble();
    p.storeFraction = 0.30 + 0.10 * jitter.nextDouble();
    return p;
}

} // namespace trace
} // namespace mlc
