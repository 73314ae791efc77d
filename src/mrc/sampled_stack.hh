/**
 * @file
 * Sampled LRU stack-distance analysis: full miss-ratio curves in
 * O(sample) memory.
 *
 * The exact trace::StackDistanceAnalyzer keeps one mark per
 * distinct granule forever, so its memory grows with the trace
 * footprint — fatal for larger-than-RAM streams. This analyzer
 * applies the SHARDS construction instead: only granules whose hash
 * passes the spatial filter enter the Fenwick tree, the measured
 * distance (distinct *sampled* granules between reuses) is scaled
 * up by 1/p, and every reference contributes weight 1/p to the
 * weighted histogram, so
 *
 *   missRatio(c) = (W_inf + W_over + sum_{d >= c} W_exact[d]) / W_total
 *
 * is an unbiased estimate of the full-stream FA-LRU miss ratio at
 * capacity c. The 1/p factors of numerator and denominator cancel
 * at fixed rate; under adaptive lowering each reference carries the
 * reciprocal of the rate in force when it was seen, which keeps the
 * estimator consistent across lowerings.
 *
 * At p = 1.0 every granule is kept with weight exactly 1.0, the
 * distances coincide with the exact analyzer's, and missRatio() is
 * bit-identical to trace::StackDistanceAnalyzer::missRatio.
 *
 * Adaptive mode (budget > 0): whenever the live sampled footprint
 * exceeds the budget the filter threshold halves and entries whose
 * hash no longer passes are evicted from the tree — memory is
 * O(budget) regardless of trace footprint.
 */

#ifndef MLC_MRC_SAMPLED_STACK_HH
#define MLC_MRC_SAMPLED_STACK_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "mrc/sampler.hh"
#include "trace/mem_ref.hh"

namespace mlc {
namespace mrc {

/** Online sampled stack-distance profiler. */
class SampledStackDistance
{
  public:
    /** Scaled distance reported for a sampled first touch. */
    static constexpr std::uint64_t kInfinite =
        std::numeric_limits<std::uint64_t>::max();
    /** Reported when the reference's granule is not sampled. */
    static constexpr std::uint64_t kNotSampled = kInfinite - 1;

    SampledStackDistance(std::uint64_t granule_bytes,
                         const SamplerConfig &sampler);

    /**
     * Record one reference.
     * @return the 1/p-scaled stack distance, kInfinite for a
     *         sampled first touch, or kNotSampled when the filter
     *         drops the granule.
     */
    std::uint64_t access(Addr addr);

    /** All references offered (sampled or not). */
    std::uint64_t references() const { return references_; }

    /** References that passed the filter. */
    std::uint64_t
    sampledReferences() const
    {
        return sampledReferences_;
    }

    /** Live sampled granules (what the adaptive budget bounds). */
    std::uint64_t distinctSampled() const { return last_.size(); }

    /** Estimated distinct granules in the full stream. */
    double infiniteWeight() const { return infiniteW_; }

    /** infiniteWeight() rounded to a count: the estimated
     *  compulsory misses, spelled like the exact analyzer's. */
    std::uint64_t
    infiniteCount() const
    {
        return static_cast<std::uint64_t>(std::llround(infiniteW_));
    }

    /** Current sampling rate (non-increasing in adaptive mode). */
    double rate() const { return sampler_.rate(); }

    /**
     * Estimated miss ratio of a fully-associative LRU cache of
     * @p capacity_granules granules over the stream so far; 0 when
     * nothing was sampled. Panics at or beyond the exact tracking
     * limit, like the exact analyzer.
     */
    double missRatio(std::uint64_t capacity_granules) const;

  private:
    struct Entry
    {
        std::size_t when;
        std::uint64_t hash;
    };

    void fenwickAdd(std::size_t pos, std::int64_t delta);
    std::int64_t fenwickPrefix(std::size_t pos) const;
    void compact();
    void recordDistance(std::uint64_t scaled, double weight);
    void enforceBudget();

    std::uint64_t granuleShift_;
    SpatialSampler sampler_;
    std::uint64_t references_ = 0;
    std::uint64_t sampledReferences_ = 0;

    // Fenwick tree over *sampled* time slots, 1-based, exactly the
    // exact analyzer's layout (compaction included).
    std::vector<std::int64_t> fenwick_;
    std::size_t now_ = 0;
    std::unordered_map<Addr, Entry> last_;

    // Weighted counterparts of the exact analyzer's histograms,
    // indexed by *scaled* distance.
    std::vector<double> exactW_;
    double overLimitW_ = 0;
    double infiniteW_ = 0;
    double totalW_ = 0;
    static constexpr std::size_t kExactLimit = 1u << 22;
};

} // namespace mrc
} // namespace mlc

#endif // MLC_MRC_SAMPLED_STACK_HH
