/**
 * @file
 * Google-benchmark microbenchmarks of the individual kernels: GBWT record
 * decode, CachedGBWT lookups (hit and miss paths), minimizer extraction,
 * seeding, clustering, gapless extension, the full critical-function
 * pipeline per read, and scheduler dispatch overhead.  These are the
 * building blocks behind every table/figure harness.
 *
 * Before the gbench pass, a match-kernel sweep times the packed SWAR
 * match run (util::matchRunPacked, the one the extender runs) against the
 * per-base oracle (util::matchRunScalar) over a range of spans and prints
 * a bases/cycle table (bases/ns where no cycle counter is available).
 *
 *   bench_kernels --guard    perf guard (ctest perf_guard_hotpath): the
 *                            same sweep cell at span 32, interleaved
 *                            SWAR/scalar samples, pass iff the lower 95%
 *                            bootstrap bound of the median ratio >= 4.0
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "map/cluster.h"
#include "map/seeding.h"
#include "sched/scheduler.h"
#include "stats/bootstrap.h"
#include "util/dna.h"
#include "util/rng.h"
#include "util/timer.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace {

/** Lazily built single world shared by all kernels. */
const mg::bench::World&
world()
{
    static std::unique_ptr<mg::bench::World> w =
        mg::bench::buildWorld("B-yeast", 0.2);
    return *w;
}

const mg::io::SeedCapture&
capture()
{
    static mg::io::SeedCapture c =
        world().parent().capturePreprocessing(world().set.reads);
    return c;
}

void
BM_GbwtDecodeRecord(benchmark::State& state)
{
    const auto& gbwt = world().gbwt();
    size_t num_nodes = world().graph().numNodes();
    mg::graph::NodeId id = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            gbwt.decodeRecord(mg::graph::Handle(id, false)));
        id = id % num_nodes + 1;
    }
}
BENCHMARK(BM_GbwtDecodeRecord);

void
BM_CachedGbwtHit(benchmark::State& state)
{
    mg::gbwt::CachedGbwt cache(world().gbwt(), 4096);
    mg::graph::Handle handle(1, false);
    cache.record(handle);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.record(handle));
    }
}
BENCHMARK(BM_CachedGbwtHit);

void
BM_CachedGbwtMissStream(benchmark::State& state)
{
    // Fresh cache per iteration batch: every access decodes.
    size_t num_nodes = world().graph().numNodes();
    mg::gbwt::CachedGbwt cache(world().gbwt(), 0);
    mg::graph::NodeId id = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.record(mg::graph::Handle(id, false)));
        id = id % num_nodes + 1;
    }
}
BENCHMARK(BM_CachedGbwtMissStream);

void
BM_Minimizers(benchmark::State& state)
{
    const std::string& seq = world().set.pangenome.sequences[0];
    std::string read = seq.substr(0, 150);
    mg::index::MinimizerParams params;
    params.k = 15;
    params.w = 8;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mg::index::minimizersOf(read, params));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Minimizers);

void
BM_FindSeeds(benchmark::State& state)
{
    const auto& reads = world().set.reads.reads;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mg::map::findSeeds(world().minimizers, reads[i]));
        i = (i + 1) % reads.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FindSeeds);

void
BM_ClusterSeeds(benchmark::State& state)
{
    const auto& entries = capture().entries;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mg::map::clusterSeeds(
            world().graph(), world().distance, entries[i].seeds,
            mg::map::ClusterParams()));
        i = (i + 1) % entries.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterSeeds);

void
BM_MapFromSeeds(benchmark::State& state)
{
    // The proxy's whole critical path, one read at a time.
    mg::map::MapperParams params;
    mg::map::Mapper mapper(world().graph(), world().gbwt(),
                           world().minimizers, world().distance, params);
    auto mapper_state = mapper.makeState();
    const auto& entries = capture().entries;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.mapFromSeeds(
            entries[i].read, entries[i].seeds, *mapper_state));
        i = (i + 1) % entries.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MapFromSeeds);

void
BM_SchedulerDispatch(benchmark::State& state)
{
    auto kind = static_cast<mg::sched::SchedulerKind>(state.range(0));
    auto scheduler = mg::sched::makeScheduler(kind);
    for (auto _ : state) {
        scheduler->run(4096, 64, 4, [](size_t, size_t begin, size_t end) {
            benchmark::DoNotOptimize(begin + end);
        });
    }
    state.SetLabel(mg::sched::schedulerName(kind));
}
BENCHMARK(BM_SchedulerDispatch)->Arg(0)->Arg(1)->Arg(2);

// ----------------------------------------------------- match-kernel sweep

/** Match-run signature shared by the swept kernels: common-prefix length
 *  (up to span) of the packed ranges at a[abase] and b[bbase]. */
using MatchRunFn = uint32_t (*)(const uint64_t* a, uint64_t abase,
                                const uint64_t* b, uint64_t bbase,
                                uint32_t span, uint64_t& words_compared);

uint32_t
scalarRun(const uint64_t* a, uint64_t abase, const uint64_t* b,
          uint64_t bbase, uint32_t span, uint64_t& /*words_compared*/)
{
    return mg::util::matchRunScalar(a, abase, b, bbase, span);
}

/** One timeable kernel: a display name plus its function. */
struct SweepKernel
{
    const char* name;
    MatchRunFn fn;
};

constexpr SweepKernel kScalar{"scalar", scalarRun};
constexpr SweepKernel kSwar{"swar", mg::util::matchRunPacked};

#if defined(__x86_64__) || defined(_M_X64)
constexpr bool kCycles = true;
#else
constexpr bool kCycles = false;
#endif

/**
 * Identical random packed sequences on both sides: every timed call is
 * the all-match case, so the kernel streams its full span.  Offsets
 * rotate through all 32 intra-word phases so the shift-carry path is
 * exercised, not just the aligned fast case.
 */
class MatchSweep
{
  public:
    MatchSweep()
    {
        mg::util::Rng rng(0x51313d);
        const std::string seq = rng.randomDna(kBases);
        a_.assign(mg::util::packedBufferWords(kBases), 0);
        b_.assign(mg::util::packedBufferWords(kBases), 0);
        mg::util::packAsciiInto(seq, a_.data(), 0);
        mg::util::packAsciiInto(seq, b_.data(), 0);
    }

    /** One sweep cell: bases/cycle (bases/ns without a cycle counter) of
     *  `fn` at `span`, over ~2M bases after an equal warm-up pass. */
    double
    basesPerTick(MatchRunFn fn, uint32_t span) const
    {
        const uint32_t max_off = kBases - span;
        const uint32_t reps = std::max<uint32_t>(1, (1u << 21) / span);
        uint64_t sink = 0;
        uint64_t words = 0;
        for (uint32_t r = 0; r < reps; ++r) {
            const uint64_t off = (r * 33) % max_off;
            sink += fn(a_.data(), off, b_.data(), off, span, words);
        }
#if defined(__x86_64__) || defined(_M_X64)
        const uint64_t t0 = __rdtsc();
#endif
        mg::util::WallTimer timer;
        for (uint32_t r = 0; r < reps; ++r) {
            const uint64_t off = (r * 33) % max_off;
            sink += fn(a_.data(), off, b_.data(), off, span, words);
        }
#if defined(__x86_64__) || defined(_M_X64)
        const double ticks = static_cast<double>(__rdtsc() - t0);
#else
        const double ticks = timer.seconds() * 1e9;
#endif
        benchmark::DoNotOptimize(sink);
        const double bases =
            static_cast<double>(span) * static_cast<double>(reps);
        return ticks > 0.0 ? bases / ticks : 0.0;
    }

  private:
    static constexpr uint32_t kBases = 1u << 16;
    std::vector<uint64_t> a_;
    std::vector<uint64_t> b_;
};

/** Print the sweep table: bases/tick per kernel x span. */
void
printMatchKernelTable()
{
    constexpr uint32_t kSpans[] = {32, 128, 512, 4096};
    const MatchSweep sweep;
    std::printf("match-kernel sweep, %s per kernel x span, all-match "
                "inputs:\n",
                kCycles ? "bases/cycle" : "bases/ns");
    std::printf("%10s", "");
    for (uint32_t span : kSpans) {
        std::printf("  span=%-5u", span);
    }
    std::printf("\n");
    for (const SweepKernel& kernel : {kScalar, kSwar}) {
        std::printf("%10s", kernel.name);
        for (uint32_t span : kSpans) {
            std::printf("  %10.2f", sweep.basesPerTick(kernel.fn, span));
        }
        std::printf("\n");
    }
}

double
median(std::vector<double> values)
{
    const size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    if (values.size() % 2 == 1) {
        return values[mid];
    }
    return 0.5 * (values[mid] + *std::max_element(values.begin(),
                                                  values.begin() + mid));
}

/**
 * Perf guard for the extension kernel's compare loop.  Span 32 is the
 * regime graph nodes put the kernel in (anchors average ~48 bases over
 * nodes of a few bases).  Each sample times one SWAR and one scalar
 * sweep cell back to back, alternating which goes first, so drift and
 * frequency changes hit both sides; the verdict is the lower bound of the
 * 95% bootstrap CI on the median SWAR/scalar ratio.
 */
int
guardRun()
{
    constexpr uint32_t kSpan = 32;
    constexpr int kSamples = 15;
    constexpr double kFloor = 4.0;
    const MatchSweep sweep;
    std::vector<double> ratios;
    for (int i = 0; i < kSamples; ++i) {
        double swar = 0.0;
        double scalar = 0.0;
        if (i % 2 == 0) {
            swar = sweep.basesPerTick(kSwar.fn, kSpan);
            scalar = sweep.basesPerTick(kScalar.fn, kSpan);
        } else {
            scalar = sweep.basesPerTick(kScalar.fn, kSpan);
            swar = sweep.basesPerTick(kSwar.fn, kSpan);
        }
        if (scalar > 0.0) {
            ratios.push_back(swar / scalar);
        }
    }
    if (ratios.size() < 2) {
        std::fprintf(stderr, "FAIL: the scalar match run never timed\n");
        return 1;
    }
    const mg::stats::ConfidenceInterval ci =
        mg::stats::bootstrapCi(ratios, median);
    std::printf("perf-guard: swar/scalar match-run ratio at span %u, "
                "median %.2f, 95%% CI [%.2f, %.2f] over %zu samples "
                "(floor %.1f on the lower bound)\n",
                kSpan, ci.pointEstimate, ci.lower, ci.upper, ratios.size(),
                kFloor);
    if (ci.lower < kFloor) {
        std::fprintf(stderr,
                     "FAIL: SWAR match run is not %.1fx the scalar oracle "
                     "(CI lower bound %.2f)\n",
                     kFloor, ci.lower);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--guard") == 0) {
        return guardRun();
    }
    printMatchKernelTable();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
