/**
 * @file
 * The engine layer: one way to price the Section 4 design space,
 * whichever engine does the pricing.
 *
 * Four engines can price an (L2 size x L2 cycle) grid of a base
 * machine over a trace suite (DESIGN.md §5k):
 *
 *  - timing simulates every cell in full (expt::runSuite);
 *  - onepass profiles every size in one exact pass per trace and
 *    prices the cells with the Equation 1-3 model (onepass::);
 *  - sampled replays a scheduled subset of each trace through the
 *    timing simulator, every cell sharing one warming pass per
 *    window (sample::runSweepCheckpointed);
 *  - mrc is the onepass pipeline over spatially-sampled sets
 *    (mrc::).
 *
 * A base with a third cache level turns onepass and mrc into the
 * cascade engine: the swept L2 sizes become the exactly-replayed
 * pivots and the fixed L3 the one ghost-swept member.
 *
 * This header owns what every caller used to repeat: the engine
 * names and their one parser, the cell -> machine mapping, the
 * cell layout, and the profile-cache hook. priceCells() prices a
 * grid; profileMachine() profiles one machine for a report.
 */

#ifndef MLC_ENGINE_ENGINE_HH
#define MLC_ENGINE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "expt/workload_suite.hh"
#include "hier/hierarchy_config.hh"
#include "mrc/sampler.hh"
#include "onepass/engine.hh"
#include "sample/sweep.hh"
#include "trace/binary.hh"

namespace mlc {
namespace engine {

enum class Kind
{
    Timing,
    OnePass,
    Sampled,
    Mrc,
};

/** The one engine-name parser: "timing", "onepass", "sampled" or
 *  "mrc". False (and @p kind untouched) on anything else. */
bool parseKind(std::string_view name, Kind &kind);

/** The name parseKind() accepts for @p kind. */
const char *kindName(Kind kind);

/** Every accepted name, for error messages:
 *  "'timing', 'onepass', 'sampled' or 'mrc'". */
const char *kindList();

/** What an engine can price beyond the base two-level grid. */
struct Traits
{
    /** Cost is one profiling pass per (workload, family); the
     *  cells then price in closed form, so pricing a union of
     *  cells costs no more than pricing one (the query server
     *  batches such queries), and profileMachine() applies. */
    bool profiled;
    /** Prices a base with a third cache level. */
    bool threeLevel;
    /** The query server accepts an explicit L2 associativity. */
    bool l2Assoc;
    /** Validates the mapped-trace ranges it replays itself, so a
     *  mapped trace may open with lazy validation. */
    bool lazyTrace;
};

Traits traits(Kind kind);

/**
 * The machine of grid cell (@p size, @p cycles): @p base with its
 * L2 resized to @p size bytes and timed at @p cycles CPU cycles,
 * associativity and everything else kept. Every engine prices
 * exactly this machine.
 */
hier::HierarchyParams cellMachine(const hier::HierarchyParams &base,
                                  std::uint64_t size,
                                  std::uint32_t cycles);

/** How to run an engine. Every field is consulted by the engines
 *  named in its comment and ignored by the rest. */
struct Options
{
    Kind kind = Kind::Timing;
    /** Worker threads; results are identical for any value. */
    std::size_t jobs = 1;
    /** onepass: set-partition shards (ProfileOptions::shards);
     *  results are identical for any value. */
    std::size_t shards = 1;
    /** mrc: sampling rate and adaptive budget. */
    mrc::SamplerConfig sampler;
    /** sampled: the window schedule (seed included). */
    sample::SampledOptions sampled;
    /** sampled: checkpoint farm (nullptr = in-memory warming). */
    ckpt::CheckpointStore *farm = nullptr;
    /** sampled: farm entries live under "<farmTag>/<trace name>"
     *  (just the trace name when empty). */
    std::string farmTag;

    /** The result-affecting knobs above, for memo keys: the
     *  sampled schedule or the mrc sampler, empty for timing and
     *  onepass (jobs and shards never change a result). */
    std::string key() const;
};

/**
 * Resident profiles that priceCells() reuses across calls
 * (serve::Server backs it with its ProfileCache). Entries are
 * whole-suite profile vectors keyed by family identity; @p kind
 * names the profile shape for traffic accounting: "onepass" or
 * "mrc" for two-level families, "cascade" or "mrc-cascade" for
 * three-level ones.
 */
class ProfileCache
{
  public:
    using Profiles =
        std::shared_ptr<const std::vector<onepass::TraceProfile>>;

    virtual ~ProfileCache() = default;
    /** nullptr on a miss. */
    virtual Profiles get(const std::string &key,
                         const std::string &kind) = 0;
    virtual void put(const std::string &key, Profiles profiles,
                     const std::string &kind) = 0;
};

/** What priceCells() returns. */
struct Cells
{
    /** Suite-mean relative execution time of every cell,
     *  row-major: rel[s * cycles.size() + c]. */
    std::vector<double> rel;
    /** Suite-mean L2 solo miss ratio per size (along the first
     *  cycle); empty unless asked for. */
    std::vector<double> solo;
    /** sampled: checkpoint-farm traffic (zero without a farm). */
    sample::FarmTraffic farm;
};

/**
 * Price every (size, cycle) cell of @p base over @p store with
 * opts.kind. Each cell is cellMachine(base, size, cycle); its value
 * depends on nothing else in the call (not on the other cells, the
 * cache, jobs or shards), which is what lets callers batch and
 * cache freely.
 *
 * With @p cache, profiled engines look their family up before
 * profiling and store it after. A two-level onepass family whose
 * sizes all lie on the paper's axis (expt::paperSizes) is profiled
 * whole, so every subset of that axis shares one entry.
 *
 * @p solo also measures the L2 solo miss ratio per size (Cells::
 * solo). Fatal when the engine cannot price @p base (see Traits).
 */
Cells priceCells(const Options &opts, const hier::HierarchyParams &base,
                 const std::vector<std::uint64_t> &sizes,
                 const std::vector<std::uint32_t> &cycles,
                 const expt::TraceStore &store,
                 ProfileCache *cache = nullptr, bool solo = false);

/**
 * One machine's profile over one trace with a profiled engine:
 * the L2 as a one-member family (two levels) or as the pivot above
 * a one-member L3 family (three levels). Solo counts follow
 * machine.measureSolo. With @p mapped, mrc streams the whole
 * mapped trace at two levels instead of replaying @p refs, and
 * validates @p refs first at three. Fatal for other engines and
 * deeper machines.
 */
onepass::TraceProfile
profileMachine(const Options &opts, const hier::HierarchyParams &machine,
               trace::RefSpan refs, std::uint64_t warmup_refs,
               const trace::MappedBinaryTrace *mapped = nullptr);

/**
 * Consume one engine command-line flag into @p opts: --engine=NAME,
 * --jobs=N, --shards=N, --sample-rate=P (0 < P <= 1) or
 * --sample-budget=N. Returns false when @p arg is none of them; a
 * bad value is fatal.
 */
bool parseFlag(std::string_view arg, Options &opts);

} // namespace engine
} // namespace mlc

#endif // MLC_ENGINE_ENGINE_HH
