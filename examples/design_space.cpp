/**
 * @file
 * Design-space exploration: sweep the second-level cache's size and
 * cycle time, print the relative-execution-time surface, and report
 * the best configuration under a simple technology rule — the
 * paper's Section 4 methodology as a reusable tool.
 *
 *   $ ./design_space [l1_total_bytes] [--jobs=N] [--shards=N]
 *                    [--engine=timing|onepass|sampled|mrc]
 *                    [--sample-rate=P] [--sample-budget=N]
 *                    [--l3=SIZE[,CYCLES[,ASSOC]]]
 *
 * Pass a different L1 budget (e.g. 32768) to watch the optimal L2
 * design point move toward larger-and-slower, the paper's central
 * observation. Cells are evaluated on N workers (default: MLC_JOBS
 * or all cores); the output is identical for every N.
 *
 * --engine=onepass profiles every L2 size in a single pass over
 * the trace (exact read miss ratios, including the solo curve) and
 * prices the cells with the Equation 1-3 analytical model instead
 * of simulating each one — the same table shape, slightly
 * different values (modelled rather than simulated timing), and a
 * large speedup on wide sweeps.
 *
 * --engine=sampled keeps the full timing model but replays only a
 * scheduled subset of the trace per cell (statistical sampling,
 * DESIGN.md §5d): estimated CPI with a confidence interval, solo
 * miss ratios measured exactly over the replayed subset. The grid
 * itself is swept checkpoint-and-branch style (DESIGN.md §5e): all
 * cells share one warming pass per window, bit-identical to
 * warming each cell separately. On this deliberately small
 * interactive trace it exists to demonstrate the plumbing; the
 * speedup case is long traces (see bench/checkpoint_persist).
 *
 * --engine=mrc is the one-pass pipeline over a spatially-sampled
 * subset of each cache's sets (DESIGN.md §5i): same table shape,
 * approximate miss ratios at a fraction of the tag state, exact at
 * --sample-rate=1.0. --sample-budget=N additionally bounds live
 * sampled lines (adaptive mode). Built for traces too big to
 * profile exactly; on this interactive trace it demonstrates the
 * plumbing.
 *
 * --l3=SIZE[,CYCLES[,ASSOC]] appends a fixed third cache level
 * (size in bytes, access time in CPU cycles — default 6 cycles,
 * 2-way) below the swept L2 axis. The timing engine simulates the
 * three-level machine cell by cell; --engine=onepass and
 * --engine=mrc switch to the cascade engine (DESIGN.md §5j): the
 * swept L2 sizes become the exactly-replayed pivots, the fixed L3
 * is the ghost-swept member, and every cell is priced from one
 * trace pass with the depth-3 Equation 1-3 model. The solo column
 * reports the pivot's (L2's) solo miss ratio, so the Equation-2
 * slope analysis below the table keeps its meaning. Not supported
 * with --engine=sampled.
 *
 * --paired=SIZEA,SIZEB additionally compares the two L2 sizes (in
 * bytes, at the 3-cycle row) with the sampled engine's matched-pair
 * estimator, whichever engine priced the table: both machines
 * measure the same windows from the same warm state, so the
 * CPI-delta interval is much narrower than either absolute
 * interval.
 *
 * Every engine runs through engine::priceCells (DESIGN.md §5k);
 * an unknown --flag is rejected by name.
 */

#include <iostream>
#include <string_view>

#include "engine/engine.hh"
#include "expt/design_space.hh"
#include "model/miss_rate.hh"
#include "model/tradeoff.hh"
#include "sample/sweep.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/units.hh"

using namespace mlc;

int
main(int argc, char **argv)
{
    std::uint64_t l1_total = 4096;
    engine::Options opts;
    opts.jobs = defaultJobs();
    std::uint64_t paired_a = 0, paired_b = 0;
    std::uint64_t l3_size = 0;
    std::uint32_t l3_cycles = 6, l3_assoc = 2;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (engine::parseFlag(arg, opts))
            continue;
        if (startsWith(arg, "--paired=")) {
            const std::string value(arg.substr(9));
            const std::size_t comma = value.find(',');
            unsigned long long a = 0, b = 0;
            if (comma == std::string::npos ||
                !parseUnsigned(value.substr(0, comma), a) ||
                !parseUnsigned(value.substr(comma + 1), b) ||
                a == 0 || b == 0)
                mlc_fatal("bad --paired value in '", argv[i],
                          "' (expected two L2 byte sizes, e.g. "
                          "--paired=65536,131072)");
            paired_a = a;
            paired_b = b;
        } else if (startsWith(arg, "--l3=")) {
            const std::vector<std::string> parts =
                split(arg.substr(5), ',');
            std::uint64_t size = 0;
            unsigned long long cyc = 6, assoc = 2;
            if (parts.empty() || parts.size() > 3 ||
                !parseSize(parts[0], size) || size == 0 ||
                (parts.size() > 1 &&
                 (!parseUnsigned(parts[1], cyc) || cyc == 0)) ||
                (parts.size() > 2 &&
                 (!parseUnsigned(parts[2], assoc) || assoc == 0)))
                mlc_fatal("bad --l3 value in '", argv[i],
                          "' (expected SIZE[,CYCLES[,ASSOC]], "
                          "e.g. --l3=1M,6,4)");
            l3_size = size;
            l3_cycles = static_cast<std::uint32_t>(cyc);
            l3_assoc = static_cast<std::uint32_t>(assoc);
        } else if (startsWith(arg, "--")) {
            mlc_fatal("unknown option '", arg, "'");
        } else if (!parseSize(arg, l1_total) || l1_total == 0) {
            mlc_fatal("bad L1 size '", arg,
                      "' (expected total I+D bytes, e.g. 32768)");
        }
    }

    hier::HierarchyParams base =
        hier::HierarchyParams::baseMachine().withL1Total(l1_total);
    if (l3_size != 0) {
        if (!engine::traits(opts.kind).threeLevel)
            mlc_fatal("--l3 requires --engine=timing, onepass or "
                      "mrc (the ", engine::kindName(opts.kind),
                      " engine sweeps two-level machines only)");
        cache::CacheParams l3;
        l3.name = "l3";
        l3.geometry.sizeBytes = l3_size;
        l3.geometry.blockBytes = base.levels[0].geometry.blockBytes;
        l3.geometry.assoc = l3_assoc;
        l3.cycleNs = base.cpuCycleNs * l3_cycles;
        base.levels.push_back(l3);
        base.busWidthWords.push_back(base.busWidthWords.back());
    }
    std::cout << "machine: " << base.summary() << "\n";

    // A compact sweep (one trace, reduced axes) to stay
    // interactive; the bench binaries run the full grids.
    std::vector<expt::TraceSpec> specs = {expt::paperSuite()[0]};
    specs[0].warmupRefs = 200'000;
    specs[0].measureRefs = 500'000;
    const expt::TraceStore store =
        expt::TraceStore::materialize(specs, opts.jobs);

    std::vector<std::uint64_t> sizes;
    for (std::uint64_t s = 16 << 10; s <= (2 << 20); s *= 4)
        sizes.push_back(s);
    const std::vector<std::uint32_t> cycles = {1, 2, 3, 4,
                                               5, 7, 10};

    // A sampling schedule proportioned to the interactive trace:
    // ~40 windows with high warming coverage, so the containment
    // contract holds even at this small scale (DESIGN.md §5d). The
    // sampled engine prices with it, and --paired compares with it.
    opts.sampled.period = store.span(0).size / 40;
    opts.sampled.measureRefs = opts.sampled.period / 5;
    opts.sampled.detailWarmRefs = 2'000;
    opts.sampled.functionalWarmRefs = (opts.sampled.period * 3) / 5;

    // Every cell plus the solo miss curve (measured along the
    // 1-cycle column); identical output for any --jobs.
    const engine::Cells cells = engine::priceCells(
        opts, base, sizes, cycles, store, nullptr, /*solo=*/true);
    const expt::DesignSpaceGrid grid(sizes, cycles, cells.rel);
    std::vector<std::pair<std::uint64_t, double>> miss_points;
    for (std::size_t s = 0; s < sizes.size(); ++s)
        miss_points.emplace_back(sizes[s], cells.solo[s]);

    Table t;
    t.addColumn("L2 size", Align::Left);
    for (auto c : cycles)
        t.addColumn(std::to_string(c) + "cyc");
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        t.newRow().cell(formatSize(sizes[s]));
        for (std::size_t c = 0; c < cycles.size(); ++c)
            t.cell(grid.at(s, c), 3);
    }
    std::cout << "\nrelative execution time:\n";
    t.print(std::cout);

    if (paired_a != 0) {
        // Same windows, same warm state, two machines: the delta
        // interval shows what matched pairs buy over differencing
        // two absolute estimates.
        const sample::PairedResult pr = sample::runPaired(
            engine::cellMachine(base, paired_a, 3),
            engine::cellMachine(base, paired_b, 3), store.span(0),
            opts.sampled, opts.jobs);
        std::cout << "\nmatched-pair " << formatSize(paired_a)
                  << " vs " << formatSize(paired_b)
                  << " (3-cycle L2, " << pr.windowsPaired
                  << " paired windows):\n"
                  << "  CPI A               " << pr.a.estCpi
                  << " +- " << pr.a.cpiInterval.halfWidth << "\n"
                  << "  CPI B               " << pr.b.estCpi
                  << " +- " << pr.b.cpiInterval.halfWidth << "\n"
                  << "  delta (B-A)         " << pr.deltaInterval.mean
                  << " +- " << pr.deltaInterval.halfWidth
                  << " (95% CI)\n"
                  << "  window correlation  "
                  << pr.pairs.correlation() << "\n";
    }

    // Best design under a toy technology rule: each quadrupling of
    // SRAM costs one CPU cycle of access time starting from 2.
    std::cout << "\nunder 'quadrupling costs +1 cycle from 2':\n";
    double best = 1e9;
    std::size_t best_s = 0, best_c = 0;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        const auto tech_cycles =
            static_cast<std::uint32_t>(2 + s);
        for (std::size_t c = 0; c < cycles.size(); ++c) {
            if (cycles[c] != tech_cycles)
                continue;
            if (grid.at(s, c) < best) {
                best = grid.at(s, c);
                best_s = s;
                best_c = c;
            }
        }
    }
    std::cout << "  best realizable: "
              << formatSize(sizes[best_s]) << " at "
              << cycles[best_c] << " cycles (rel " << best
              << ")\n";

    // Compare with the analytic Equation-2 account.
    const model::MissRateModel fit =
        model::MissRateModel::fit(miss_points);
    std::cout << "\nfitted solo miss curve: factor "
              << fit.doublingFactor()
              << " per doubling; Equation 2 predicts the allowed "
                 "cycle-time slope per doubling at 64KB as "
              << [&] {
                     model::TwoLevelModel m;
                     m.ml1 = 0.095;
                     m.nMMread = 27.0;
                     return model::SpeedSizeAnalysis(m, fit,
                                                     model::RefMix{})
                         .slopePerDoubling(64 << 10);
                 }()
              << " CPU cycles.\n";
    return 0;
}
