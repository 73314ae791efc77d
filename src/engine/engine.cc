#include "engine/engine.hh"

#include <algorithm>
#include <utility>

#include "expt/design_space.hh"
#include "expt/runner.hh"
#include "mrc/engine.hh"
#include "onepass/cascade.hh"
#include "onepass/model_timing.hh"
#include "sample/engine.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/thread_pool.hh"

namespace mlc {
namespace engine {

namespace {

struct Named
{
    Kind kind;
    const char *name;
    Traits traits; //!< profiled, threeLevel, l2Assoc, lazyTrace
};

constexpr Named kEngines[] = {
    {Kind::Timing, "timing", {false, true, true, false}},
    {Kind::OnePass, "onepass", {true, true, true, false}},
    {Kind::Sampled, "sampled", {false, false, false, true}},
    {Kind::Mrc, "mrc", {true, true, true, true}},
};

const Named &
named(Kind kind)
{
    for (const Named &e : kEngines)
        if (e.kind == kind)
            return e;
    mlc_panic("engine: unknown kind ", static_cast<int>(kind));
}

/** True for a three-level machine (the cascade); fatal unless the
 *  machine has one or two downstream levels. */
bool
cascadeDepth(Kind kind, const hier::HierarchyParams &machine)
{
    const std::size_t levels = machine.levels.size();
    if (levels < 1 || levels > 2)
        mlc_fatal("the ", kindName(kind),
                  " engine prices two-level (L1 + one downstream "
                  "cache) and three-level (cascade) hierarchies; "
                  "this machine has ",
                  levels, " downstream levels");
    return levels == 2;
}

/** The cascade family of @p base: @p pivots at the L2's geometry
 *  above the base's own L3 as the single member. */
onepass::CascadeFamilySpec
cascadeFamily(const hier::HierarchyParams &base,
              const std::vector<std::uint64_t> &pivots)
{
    const cache::CacheGeometry &l2 = base.levels[0].geometry;
    const cache::CacheGeometry &l3 = base.levels[1].geometry;
    onepass::CascadeFamilySpec family;
    for (const std::uint64_t s : pivots)
        family.pivots.push_back({s, l2.assoc, l2.blockBytes});
    family.l3.configs.push_back({l3.sizeBytes, l3.assoc, l3.blockBytes});
    return family;
}

/** Profile one family over the suite, flattened: a two-level family
 *  gives one profile per trace (member = family index), a cascade
 *  one per (pivot, trace), pivot-major (member 0). */
std::vector<onepass::TraceProfile>
profileFamily(const Options &opts, const hier::HierarchyParams &base,
              const std::vector<std::uint64_t> &sizes, bool cascade,
              const expt::TraceStore &store, bool solo)
{
    const bool exact = opts.kind == Kind::OnePass;
    const onepass::ProfileOptions popts{.solo = solo,
                                        .shards = opts.shards};
    const mrc::MrcOptions mopts{.sampler = opts.sampler, .solo = solo};
    if (!cascade) {
        const auto family = onepass::FamilySpec::l2Grid(base, sizes);
        return exact ? onepass::profileSuite(base, family, store,
                                             opts.jobs, popts)
                     : mrc::profileSuite(base, family, store,
                                         opts.jobs, mopts);
    }
    const auto family = cascadeFamily(base, sizes);
    auto nested = exact ? onepass::profileCascadeSuite(
                              base, family, store, opts.jobs, popts)
                        : mrc::profileCascadeSuite(base, family, store,
                                                   opts.jobs, mopts);
    std::vector<onepass::TraceProfile> flat;
    for (auto &per_pivot : nested)
        for (auto &prof : per_pivot)
            flat.push_back(std::move(prof));
    return flat;
}

/** Profiled engines: one pass per family (or a cache hit), then
 *  every cell in closed form from EqTimingModel. */
Cells
priceProfiled(const Options &opts, const hier::HierarchyParams &base,
              const std::vector<std::uint64_t> &sizes,
              const std::vector<std::uint32_t> &cycles,
              const expt::TraceStore &store, ProfileCache *cache,
              bool solo)
{
    const bool cascade = cascadeDepth(opts.kind, base);
    const bool mrc = opts.kind == Kind::Mrc;
    // A cached exact two-level family inside the paper's size axis
    // widens to the whole axis, so one resident entry serves every
    // subset. Cascades (every pivot costs an exact filtered replay)
    // and sampled families are profiled exactly as asked.
    const std::vector<std::uint64_t> paper = expt::paperSizes();
    const bool widen =
        cache && !cascade && !mrc &&
        std::all_of(sizes.begin(), sizes.end(), [&](std::uint64_t s) {
            return std::find(paper.begin(), paper.end(), s) !=
                   paper.end();
        });
    const std::vector<std::uint64_t> &family = widen ? paper : sizes;

    ProfileCache::Profiles profiles;
    std::string key, kind;
    if (cache) {
        key = (solo ? "solo:" : "") +
              (mrc ? "mrc{" + opts.sampler.key() + "}" : "") +
              (cascade ? cascadeFamily(base, family).key()
                       : onepass::FamilySpec::l2Grid(base, family).key());
        kind = cascade ? "cascade" : "onepass";
        if (mrc)
            kind = cascade ? "mrc-cascade" : "mrc";
        profiles = cache->get(key, kind);
    }
    if (!profiles) {
        profiles = std::make_shared<
            const std::vector<onepass::TraceProfile>>(
            profileFamily(opts, base, family, cascade, store, solo));
        if (cache)
            cache->put(key, profiles, kind);
    }

    // Each requested size's member index within the family.
    std::vector<std::size_t> member;
    for (const std::uint64_t s : sizes)
        member.push_back(static_cast<std::size_t>(
            std::find(family.begin(), family.end(), s) -
            family.begin()));
    const std::size_t traces = store.size();
    const auto profileOf = [&](std::size_t s, std::size_t t)
        -> const onepass::TraceProfile & {
        return (*profiles)[cascade ? member[s] * traces + t : t];
    };

    // The model depends on the cycle axis only (size changes no
    // cost term), so one EqTimingModel serves a whole column.
    const std::size_t cols = cycles.size();
    const double n = static_cast<double>(traces);
    Cells out;
    out.rel.resize(sizes.size() * cols);
    for (std::size_t c = 0; c < cols; ++c) {
        const onepass::EqTimingModel model =
            onepass::EqTimingModel::forMachine(
                cellMachine(base, sizes[0], cycles[c]));
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            double rel = 0.0, solo_sum = 0.0;
            for (std::size_t t = 0; t < traces; ++t) {
                const onepass::TraceProfile &p = profileOf(s, t);
                rel += model.relExec(p, cascade ? 0 : member[s]);
                solo_sum += cascade ? p.pivotChain[0].solo.localMissRatio()
                                    : p.configs[member[s]]
                                          .solo.localMissRatio();
            }
            out.rel[s * cols + c] = rel / n;
            if (solo && c == 0)
                out.solo.push_back(solo_sum / n);
        }
    }
    return out;
}

/** Timing: every cell an independent serial runSuite, the cells
 *  spread over the workers (expt::parallelBuildGrid's schedule). */
Cells
priceTiming(const Options &opts, const hier::HierarchyParams &base,
            const std::vector<std::uint64_t> &sizes,
            const std::vector<std::uint32_t> &cycles,
            const expt::TraceStore &store, bool solo)
{
    const std::size_t cols = cycles.size();
    Cells out;
    out.rel.resize(sizes.size() * cols);
    out.solo.resize(solo ? sizes.size() : 0);
    parallelFor(opts.jobs, out.rel.size(), [&](std::size_t i) {
        const std::size_t s = i / cols, c = i % cols;
        hier::HierarchyParams p = cellMachine(base, sizes[s], cycles[c]);
        p.measureSolo = solo && c == 0;
        const expt::SuiteResults r = expt::runSuite(p, store, 1);
        out.rel[i] = r.relExecTime;
        if (p.measureSolo)
            out.solo[s] = r.soloMiss[0];
    });
    return out;
}

/** Sampled: per trace, one checkpointed sweep covers every cell. */
Cells
priceSampled(const Options &opts, const hier::HierarchyParams &base,
             const std::vector<std::uint64_t> &sizes,
             const std::vector<std::uint32_t> &cycles,
             const expt::TraceStore &store, bool solo)
{
    if (base.levels.size() != 1)
        mlc_fatal("the sampled engine sweeps two-level machines only; "
                  "this machine has ",
                  base.levels.size(), " downstream levels");
    Cells out;
    out.rel = sample::gridCellsCheckpointed(
        base, sizes, cycles, store, opts.sampled, opts.jobs, opts.farm,
        opts.farmTag, &out.farm);
    if (!solo)
        return out;
    // Solo curves need observation caches, which the shared warm
    // state cannot carry (warmCompatible rejects them), so the first
    // column reruns straight-line for the ratios: exact over the
    // replayed subset, sampled with respect to the whole trace.
    out.solo.resize(sizes.size());
    parallelFor(opts.jobs, sizes.size(), [&](std::size_t s) {
        hier::HierarchyParams p = cellMachine(base, sizes[s], cycles[0]);
        p.measureSolo = true;
        const sample::SampledSuiteResults r =
            sample::runSuiteSampled(p, store, opts.sampled);
        double sum = 0.0;
        for (const sample::SampledResult &tr : r.perTrace)
            sum += tr.functional.levels[1].soloMissRatio;
        out.solo[s] = sum / static_cast<double>(r.perTrace.size());
    });
    return out;
}

} // namespace

bool
parseKind(std::string_view name, Kind &kind)
{
    for (const Named &e : kEngines) {
        if (name == e.name) {
            kind = e.kind;
            return true;
        }
    }
    return false;
}

const char *
kindName(Kind kind)
{
    return named(kind).name;
}

const char *
kindList()
{
    return "'timing', 'onepass', 'sampled' or 'mrc'";
}

Traits
traits(Kind kind)
{
    return named(kind).traits;
}

hier::HierarchyParams
cellMachine(const hier::HierarchyParams &base, std::uint64_t size,
            std::uint32_t cycles)
{
    return base.withL2(size, cycles, base.levels.at(0).geometry.assoc);
}

std::string
Options::key() const
{
    if (kind == Kind::Sampled)
        return sampled.key();
    return kind == Kind::Mrc ? sampler.key() : "";
}

Cells
priceCells(const Options &opts, const hier::HierarchyParams &base,
           const std::vector<std::uint64_t> &sizes,
           const std::vector<std::uint32_t> &cycles,
           const expt::TraceStore &store, ProfileCache *cache, bool solo)
{
    if (sizes.empty() || cycles.empty() || store.size() == 0)
        mlc_panic("priceCells: empty sizes, cycles or trace store");
    if (opts.kind == Kind::Timing)
        return priceTiming(opts, base, sizes, cycles, store, solo);
    if (opts.kind == Kind::Sampled)
        return priceSampled(opts, base, sizes, cycles, store, solo);
    return priceProfiled(opts, base, sizes, cycles, store, cache, solo);
}

onepass::TraceProfile
profileMachine(const Options &opts, const hier::HierarchyParams &machine,
               trace::RefSpan refs, std::uint64_t warmup_refs,
               const trace::MappedBinaryTrace *mapped)
{
    if (!traits(opts.kind).profiled)
        mlc_fatal("the ", kindName(opts.kind), " engine does not profile");
    const bool exact = opts.kind == Kind::OnePass;
    const onepass::ProfileOptions popts{.solo = machine.measureSolo,
                                        .shards = opts.shards};
    const mrc::MrcOptions mopts{.sampler = opts.sampler,
                                .solo = machine.measureSolo};
    const std::uint64_t l2 = machine.levels.at(0).geometry.sizeBytes;
    if (cascadeDepth(opts.kind, machine)) {
        const auto family = cascadeFamily(machine, {l2});
        // The cascade profiler replays the span in place: vet mapped
        // records first (profileMapped's chunked validation does not
        // apply here).
        if (!exact && mapped)
            mapped->validateRange(0, refs.size);
        return std::move(
            exact ? onepass::profileCascadeTrace(machine, family, refs,
                                                 warmup_refs, popts)[0]
                  : mrc::profileCascadeTrace(machine, family, refs,
                                             warmup_refs, mopts)[0]);
    }
    const auto family = onepass::FamilySpec::l2Grid(machine, {l2});
    if (exact)
        return onepass::profileTrace(machine, family, refs, warmup_refs,
                                     popts);
    // A mapped trace streams whole through the profiler (chunked
    // validation, pages released as consumed), so it never needs to
    // fit in RAM.
    return mapped ? mrc::profileMapped(machine, family, *mapped,
                                       warmup_refs, mopts)
                  : mrc::profileTrace(machine, family, refs, warmup_refs,
                                      mopts);
}

bool
parseFlag(std::string_view arg, Options &opts)
{
    const std::size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? "" : arg.substr(eq + 1);
    unsigned long long n = 0;
    double rate = 0.0;
    bool ok = true;
    std::string expected;
    if (flag == "--engine") {
        ok = parseKind(value, opts.kind);
        expected = std::string(" (expected ") + kindList() + ")";
    } else if (flag == "--jobs" || flag == "--shards") {
        ok = parseUnsigned(value, n) && n >= 1;
        (flag == "--jobs" ? opts.jobs : opts.shards) =
            static_cast<std::size_t>(n);
    } else if (flag == "--sample-rate") {
        ok = parseDouble(value, rate) && rate > 0.0 && rate <= 1.0;
        opts.sampler.rate = rate;
        expected = " (expected a rate in (0, 1])";
    } else if (flag == "--sample-budget") {
        ok = parseUnsigned(value, n);
        opts.sampler.budget = n;
    } else {
        return false;
    }
    if (!ok || eq == std::string_view::npos)
        mlc_fatal("bad ", flag, " value in '", arg, "'", expected);
    return true;
}

} // namespace engine
} // namespace mlc
