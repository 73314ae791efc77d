#include "trace/synthetic_source.hh"

#include <algorithm>
#include <cmath>

#include "util/bits.hh"
#include "util/logging.hh"

namespace mlc {
namespace trace {

StackDepthProfile
StackDepthProfile::pareto(double theta, double s0,
                          std::uint64_t deepest)
{
    if (!isPowerOfTwo(deepest))
        mlc_panic("StackDepthProfile::pareto: deepest bound must "
                  "be a power of two, got ",
                  deepest);
    ParetoDepthSampler law(theta, s0);

    StackDepthProfile p;
    // Buckets [0,1], (1,3], (3,7], ... (deepest/2-1, deepest-1]:
    // log2 spacing matches how miss ratios are read off the
    // profile (per size doubling).
    std::uint64_t hi = 1;
    std::uint64_t lo_tailarg = 0;
    while (hi < deepest) {
        const std::uint64_t bound = hi - 1;
        const double mass =
            law.tail(lo_tailarg) - law.tail(bound + 1);
        p.upperDepth.push_back(bound);
        p.weight.push_back(std::max(mass, 0.0));
        lo_tailarg = bound + 1;
        hi *= 2;
    }
    // Terminal bucket: everything beyond the last bound up to the
    // footprint cap gets the law's remaining tail mass.
    p.upperDepth.push_back(deepest - 1);
    p.weight.push_back(law.tail(lo_tailarg));
    p.validate();
    return p;
}

void
StackDepthProfile::validate() const
{
    if (upperDepth.empty() ||
        upperDepth.size() != weight.size())
        mlc_panic("StackDepthProfile: need matching non-empty "
                  "bounds/weights, got ",
                  upperDepth.size(), " bounds and ", weight.size(),
                  " weights");
    double total = 0.0;
    for (std::size_t b = 0; b < upperDepth.size(); ++b) {
        if (b > 0 && upperDepth[b] <= upperDepth[b - 1])
            mlc_panic("StackDepthProfile: bounds must ascend "
                      "(bucket ",
                      b, ": ", upperDepth[b], " after ",
                      upperDepth[b - 1], ")");
        if (weight[b] < 0.0)
            mlc_panic("StackDepthProfile: negative weight in "
                      "bucket ",
                      b);
        total += weight[b];
    }
    if (total <= 0.0)
        mlc_panic("StackDepthProfile: weights sum to zero");
}

namespace {

/** Validate-then-pass helper so the sampler member can be built
 *  in the initializer list from a checked profile. */
const std::vector<double> &
validatedWeights(const StackDepthProfile &profile)
{
    profile.validate();
    return profile.weight;
}

} // namespace

ProfileDataGenerator::ProfileDataGenerator(
        const StackDepthProfile &profile,
        std::uint64_t granule_bytes, Addr base, std::uint64_t seed)
    : buckets_(validatedWeights(profile)),
      granuleBytes_(granule_bytes),
      base_(base),
      rng_(seed),
      // Pre-populate to the deepest bound so every bucket has
      // granules to hit from the first draw (cold-start would turn
      // deep reuse into compulsory allocations and distort the
      // profile).
      stack_(profile.upperDepth.back() + 1)
{
    if (!isPowerOfTwo(granule_bytes))
        mlc_panic("data granule size must be a power of two, "
                  "got ",
                  granule_bytes);
    upperDepth_ = profile.upperDepth;
    lowerDepth_.reserve(upperDepth_.size());
    std::uint64_t lo = 0;
    for (std::uint64_t hi : upperDepth_) {
        lowerDepth_.push_back(lo);
        lo = hi + 1;
    }
}

Addr
ProfileDataGenerator::next()
{
    const std::size_t b = buckets_.sample(rng_);
    const std::uint64_t depth =
        lowerDepth_[b] == upperDepth_[b]
            ? lowerDepth_[b]
            : rng_.nextRange(lowerDepth_[b], upperDepth_[b]);
    const std::uint64_t granule = stack_.moveToFront(depth);

    const std::uint64_t words = granuleBytes_ / 4;
    const std::uint64_t word = rng_.nextBounded(words);
    return base_ + granule * granuleBytes_ + word * 4;
}

namespace {

/** Per-process generator parameters, jittered like
 *  makeProcessParams so the mix is not N copies of one program. */
struct ProcSetup
{
    InstStreamParams inst;
    StackDepthProfile profile;
    Addr dataBase;
    double dataRefFraction;
    double storeFraction;
};

ProcSetup
makeProcSetup(const SyntheticTraceParams &params,
              std::uint16_t pid, std::uint64_t seed)
{
    Rng jitter(0x51ab1e00ULL + seed * 8191 + pid);
    ProcSetup s;
    const Addr text_scatter =
        jitter.nextBounded(1u << 24) & ~0xfffULL;
    const Addr data_scatter =
        jitter.nextBounded(1u << 24) & ~0xfffULL;
    s.inst.base = (static_cast<Addr>(pid) << 32) + text_scatter;
    s.inst.numFunctions =
        static_cast<std::uint32_t>(jitter.nextRange(256, 512));
    s.inst.functionZipf = 1.25 + 0.35 * jitter.nextDouble();
    s.inst.meanFunctionLength = 56 + 48 * jitter.nextDouble();
    s.dataBase = (static_cast<Addr>(pid) << 32) + 0x40000000 +
                 data_scatter;
    if (params.profile.upperDepth.empty()) {
        // Default: suite-like Pareto behaviour with per-process
        // locality jitter.
        s.profile = StackDepthProfile::pareto(
            0.64 + 0.10 * jitter.nextDouble(),
            4.0 + 2.0 * jitter.nextDouble(), std::uint64_t{1}
                                                 << 17);
        s.dataRefFraction = 0.45 + 0.10 * jitter.nextDouble();
        s.storeFraction = 0.30 + 0.10 * jitter.nextDouble();
    } else {
        // Explicit profile: every process realizes the same reuse
        // law (its own granules and seed), so the aggregate stream
        // matches the profile by construction.
        s.profile = params.profile;
        s.dataRefFraction = params.dataRefFraction;
        s.storeFraction = params.storeFraction;
    }
    return s;
}

} // namespace

SyntheticTraceSource::SyntheticTraceSource(
        const SyntheticTraceParams &params, std::uint64_t seed)
    : params_(params), switchRng_(seed ^ 0xdecafbadULL)
{
    if (params_.processes == 0)
        mlc_panic("SyntheticTraceSource needs at least one "
                  "process");
    if (params_.switchInterval == 0)
        mlc_panic("SyntheticTraceSource switch interval must be "
                  "non-zero");
    if (!params_.profile.upperDepth.empty())
        params_.profile.validate();

    procs_.reserve(params_.processes);
    for (std::size_t p = 0; p < params_.processes; ++p) {
        const auto pid = static_cast<std::uint16_t>(p);
        const ProcSetup s = makeProcSetup(params_, pid, seed);
        Rng forker(seed * 0x9e3779b9ULL + 0xc0ffee00ULL + p);
        procs_.push_back(Process{
            LoopInstructionGenerator(s.inst, forker.next()),
            ProfileDataGenerator(s.profile, params_.granuleBytes,
                                 s.dataBase, forker.next()),
            Rng(forker.next()), s.dataRefFraction, s.storeFraction,
            pid, false, MemRef{}});
    }
    newSwitchInterval();
}

void
SyntheticTraceSource::newSwitchInterval()
{
    const double p =
        1.0 / static_cast<double>(params_.switchInterval);
    switchLeft_ = 1 + switchRng_.nextGeometric(p);
}

void
SyntheticTraceSource::step(MemRef &ref)
{
    Process &proc = procs_[current_];
    if (proc.dataPending) {
        ref = proc.pending;
        proc.dataPending = false;
    } else {
        ref.addr = proc.inst.next();
        ref.type = RefType::IFetch;
        ref.size = 4;
        ref.pid = proc.pid;
        if (proc.mix.nextBool(proc.dataRefFraction)) {
            proc.pending.addr = proc.data.next();
            proc.pending.type =
                proc.mix.nextBool(proc.storeFraction)
                    ? RefType::Store
                    : RefType::Load;
            proc.pending.size = 4;
            proc.pending.pid = proc.pid;
            proc.dataPending = true;
        }
    }
    ++produced_;
    if (--switchLeft_ == 0) {
        current_ = (current_ + 1) % procs_.size();
        newSwitchInterval();
    }
}

bool
SyntheticTraceSource::next(MemRef &ref)
{
    if (produced_ >= params_.totalRefs)
        return false;
    step(ref);
    return true;
}

std::size_t
SyntheticTraceSource::nextBatch(MemRef *out, std::size_t n)
{
    const std::uint64_t left = params_.totalRefs - produced_;
    const std::size_t got = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, left));
    for (std::size_t i = 0; i < got; ++i)
        step(out[i]);
    return got;
}

} // namespace trace
} // namespace mlc
