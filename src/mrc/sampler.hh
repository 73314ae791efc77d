/**
 * @file
 * Spatially-hashed reference sampling (the SHARDS construction).
 *
 * A reference stream is sampled *by block*, not by position: block
 * b is kept iff fnv(b) < p * 2^64. Because the filter is a pure
 * function of the block address, every reference to a kept block is
 * kept — which preserves reuse structure exactly on the sampled
 * subset — and any count accumulated over the subset is unbiased
 * after scaling by 1/p. That one property is what lets miss-ratio
 * curves over arbitrarily long traces fit in O(sample) memory
 * (Waldspurger et al., "Efficient MRC Construction with SHARDS").
 *
 * Two modes:
 *
 *  - fixed-rate: the threshold never moves; memory is O(p * blocks)
 *    and the caller picks p.
 *  - adaptive (budget s_max > 0): start at the configured rate and
 *    halve the threshold whenever the tracked live set outgrows the
 *    budget. Every lowering strictly shrinks the kept-block set
 *    (h < T/2 implies h < T), so an owner only ever *evicts* on a
 *    lowering, never back-fills — the correctness argument DESIGN.md
 *    §5i spells out. Counts recorded before a lowering keep their
 *    old 1/p weight ("per-ref effective rate").
 *
 * The hash is deterministic and seedless: two runs over the same
 * trace sample identical subsets, so sampled results are exactly
 * reproducible — the same discipline the rest of the repo's
 * bit-identity gates rely on.
 */

#ifndef MLC_MRC_SAMPLER_HH
#define MLC_MRC_SAMPLER_HH

#include <cstdint>
#include <string>

namespace mlc {
namespace mrc {

/** Threshold meaning "keep everything" (rate 1.0). A real
 *  comparison threshold never takes this value: rates below 1.0
 *  map to at most 2^64 - 2^11. */
constexpr std::uint64_t kKeepAll = ~std::uint64_t{0};

/** 64-bit FNV-1a over the 8 little-endian bytes of a block number.
 *  Cheap, well-mixed in the low and high bits, and already the
 *  repo's checksum/fingerprint hash family. */
inline std::uint64_t
hashBlock(std::uint64_t block)
{
    std::uint64_t h = 14695981039346656037ull;
    for (int i = 0; i < 8; ++i) {
        h ^= (block >> (i * 8)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

/** p * 2^64 as a comparison threshold; kKeepAll for p >= 1.
 *  Panics on p <= 0 or p > 1. */
std::uint64_t thresholdForRate(double rate);

/** The effective rate a threshold implements (1.0 for kKeepAll). */
double rateForThreshold(std::uint64_t threshold);

/** How a sampled engine component samples. */
struct SamplerConfig
{
    /** Initial sampling rate p in (0, 1]; 1.0 = exact. */
    double rate = 0.01;
    /**
     * SHARDS-adaptive live-set budget s_max; 0 = fixed-rate. With
     * a budget the owner starts at @ref rate (often 1.0) and the
     * sampler halves its threshold whenever the owner reports more
     * than s_max live sampled blocks, keeping memory bounded no
     * matter the trace footprint.
     */
    std::uint64_t budget = 0;
    /**
     * Per-member floor on miniature set counts for the sampled
     * ghost forest: a member never scales below min(minSets, its
     * full set count), which bounds cross-set variance — the only
     * error source of set sampling, and one that does NOT average
     * out with trace length (hot conflict sets stay hot). Members
     * at or below the floor run exact; the per-member effective
     * rate snaps to miniSets/fullSets so the scaling stays
     * unbiased. The default keeps the paper-grid family within the
     * bench/mrc_streaming 0.3%-absolute error gate at p = 0.01
     * while still sampling the large members at ~1/128 of their
     * sets; 4096-set members cost ~64KB of tags each, noise next
     * to the O(trace) state the engine exists to avoid.
     */
    std::uint64_t minSets = 4096;
    /**
     * Extra salt folded into every forest member's kept-set phase.
     * 0 (the default) keeps the canonical per-member subsets, so
     * existing results are bit-stable; distinct seeds re-draw which
     * sets each member keeps, giving independent estimates of the
     * same curve whose spread *measures* the cross-set variance —
     * bench/mrc_streaming's multi-salt error bars. Natural members
     * (p = 1.0 or at the minSets floor) keep every set under any
     * seed, so the exactness contract is seed-independent.
     */
    std::uint64_t saltSeed = 0;

    /** Canonical identity string over every knob above: equal keys
     *  sample identically (the query server's memo and batch keys
     *  carry it for mrc requests). */
    std::string key() const;
};

/** The hash filter itself: threshold + adaptive bookkeeping. */
class SpatialSampler
{
  public:
    /** Panics on rate outside (0, 1]. */
    explicit SpatialSampler(const SamplerConfig &cfg);

    /** Keep a block with this hash? */
    bool
    keep(std::uint64_t hash) const
    {
        return threshold_ == kKeepAll || hash < threshold_;
    }

    /** Current effective rate (monotonically non-increasing). */
    double rate() const { return rateForThreshold(threshold_); }

    std::uint64_t threshold() const { return threshold_; }

    bool adaptive() const { return budget_ != 0; }
    std::uint64_t budget() const { return budget_; }

    /** Bumped on every lowering; owners detect a change and prune
     *  entries whose hash no longer passes keep(). */
    std::uint64_t generation() const { return generation_; }

    /**
     * Halve the threshold (adaptive mode only; panics in fixed
     * mode). Every kept set after the call is a strict subset of
     * the kept set before it.
     */
    void lower();

  private:
    std::uint64_t threshold_;
    std::uint64_t budget_;
    std::uint64_t generation_ = 0;
};

} // namespace mrc
} // namespace mlc

#endif // MLC_MRC_SAMPLER_HH
