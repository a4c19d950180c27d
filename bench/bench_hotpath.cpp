/**
 * @file
 * Hot-path benchmark harness (perf trajectory anchor).  Measures the
 * seed-and-extend kernel the paper identifies as memory-bound: single-thread
 * mapping throughput (reads/sec), heap bytes allocated per read and per
 * steady-state extension (via a global operator-new counter), and the
 * CachedGBWT hit rate, on input-set analogs A and B.  Emits
 * `BENCH_hotpath.json` so every future PR can compare against a recorded
 * baseline.
 *
 * Modes:
 *   bench_hotpath [--scale=S] [--out=PATH] [--baseline=PATH] [gbench
 *       flags]                                              full run + JSON
 *   bench_hotpath --smoke [--scale=S]                       quick CTest run
 *
 * The smoke mode (CTest label `perf-smoke`) enforces machine-independent
 * invariants of the optimized kernel — zero heap allocations in the
 * steady-state extend loop and a sane cache hit rate — and runs one quick
 * throughput repetition so gross (>20%) kernel regressions surface in CI
 * timing logs.
 *
 * The obs-guard mode (bench_hotpath --guard-obs=PATH, ctest
 * perf_guard_obs) protects the telemetry layer's "pay only a pointer
 * test" promise: it times the mapping kernel with live metrics off and on
 * (same process, A and B analogs) and fails if metrics cost more than 2%
 * of throughput.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common.h"
#include "io/file.h"
#include "machine/host.h"
#include "obs/hub.h"
#include "obs/json.h"
#include "stats/latency.h"
#include "util/timer.h"

// ------------------------------------------------------------------------
// Global allocation counter: every operator new/delete in the process is
// counted, so a delta around a measured region gives exact heap traffic.

namespace {

std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_alloc_calls{0};

struct AllocSnapshot
{
    uint64_t bytes = 0;
    uint64_t calls = 0;
};

AllocSnapshot
allocNow()
{
    return {g_alloc_bytes.load(std::memory_order_relaxed),
            g_alloc_calls.load(std::memory_order_relaxed)};
}

AllocSnapshot
allocDelta(const AllocSnapshot& since)
{
    AllocSnapshot now = allocNow();
    return {now.bytes - since.bytes, now.calls - since.calls};
}

void*
countedAlloc(std::size_t size)
{
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}
void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

// ------------------------------------------------------------------------

namespace mg::bench {
namespace {

double g_scale = 0.1;

/** One prepared workload: world + seed capture, built once per input set. */
struct Workload
{
    std::unique_ptr<World> world;
    io::SeedCapture capture;
};

const Workload&
workload(const std::string& input_set)
{
    static std::vector<std::pair<std::string, Workload>> cache;
    for (const auto& [name, wl] : cache) {
        if (name == input_set) {
            return wl;
        }
    }
    Workload wl;
    wl.world = buildWorld(input_set, g_scale);
    wl.capture =
        wl.world->parent().capturePreprocessing(wl.world->set.reads);
    cache.emplace_back(input_set, std::move(wl));
    return cache.back().second;
}

/** Result of one measured mapping pass over a whole capture. */
struct PassResult
{
    double readsPerSec = 0.0;
    double bytesPerRead = 0.0;
    double allocsPerRead = 0.0;
    double hitRate = 0.0;
    /** Per-read latency tail (nanoseconds), from the mapper's histogram. */
    double p50Nanos = 0.0;
    double p99Nanos = 0.0;
    double p999Nanos = 0.0;
};

/**
 * Map every read in the capture `reps` times with one reused MapperState
 * (warm-up pass excluded from both the clock and the allocation counter).
 * When `hub` is set the measured loop runs with live metrics attached —
 * per-read funnel increments plus one flush per pass, the same cadence a
 * batch scheduler produces — so the obs guard can price the telemetry.
 *
 * When `trace_every` is N > 0, one read in N maps with a StageAccumulator
 * bound (the per-request span context a traced daemon request carries;
 * untraced reads pay the same null pointer test the daemon's do) — so the
 * trace guard can price request tracing at a head-sampling rate.
 */
PassResult
measureMapping(const Workload& wl, int reps, obs::Hub* hub = nullptr,
               int trace_every = 0)
{
    map::MapperParams params;
    map::Mapper mapper(wl.world->graph(), wl.world->gbwt(),
                       wl.world->minimizers, wl.world->distance, params);
    auto state = mapper.makeState();
    const auto& entries = wl.capture.entries;
    // Warm-up: touches every read once so caches/scratch reach capacity.
    for (const auto& entry : entries) {
        mapper.mapFromSeeds(entry.read, entry.seeds, *state);
    }
    if (hub != nullptr) { // bind after warm-up: measure steady state only
        state->metrics = hub->slab(0);
        state->metricIds = &hub->map();
    }
    const gbwt::CacheStats warm = state->totalStats();
    state->resilience.latency.clear(); // drop warm-up samples
    obs::StageAccumulator trace_accum;
    size_t read_index = 0;
    AllocSnapshot before = allocNow();
    util::WallTimer timer;
    for (int rep = 0; rep < reps; ++rep) {
        for (const auto& entry : entries) {
            if (trace_every > 0) {
                state->stageTrace =
                    read_index % static_cast<size_t>(trace_every) == 0
                        ? &trace_accum
                        : nullptr;
                ++read_index;
            }
            benchmark::DoNotOptimize(
                mapper.mapFromSeeds(entry.read, entry.seeds, *state));
        }
        if (hub != nullptr) {
            state->flushMetrics();
        }
    }
    state->stageTrace = nullptr;
    double seconds = timer.seconds();
    AllocSnapshot delta = allocDelta(before);
    const gbwt::CacheStats total = state->totalStats();

    PassResult out;
    double reads =
        static_cast<double>(entries.size()) * static_cast<double>(reps);
    out.readsPerSec = reads / seconds;
    out.bytesPerRead = static_cast<double>(delta.bytes) / reads;
    out.allocsPerRead = static_cast<double>(delta.calls) / reads;
    uint64_t lookups = total.lookups - warm.lookups;
    uint64_t hits = total.hits - warm.hits;
    out.hitRate = lookups == 0
        ? 0.0
        : static_cast<double>(hits) / static_cast<double>(lookups);
    const stats::LatencyHistogram& latency = state->resilience.latency;
    out.p50Nanos = latency.p50();
    out.p99Nanos = latency.p99();
    out.p999Nanos = latency.p999();
    return out;
}

/**
 * The steady-state extend loop in isolation: repeatedly extend a fixed
 * sample of seeds with a warm cache.  The optimized kernel must allocate
 * nothing here (the acceptance criterion of the hot-path overhaul).
 */
struct ExtendSample
{
    const io::ReadWithSeeds* entry = nullptr;
    size_t seedIndex = 0;
    std::string oriented; // the orientation the seed was found on
};

std::vector<ExtendSample>
pickExtendSamples(const Workload& wl, size_t max_samples)
{
    std::vector<ExtendSample> samples;
    for (const auto& entry : wl.capture.entries) {
        if (samples.size() >= max_samples) {
            break;
        }
        for (size_t s = 0; s < entry.seeds.size(); ++s) {
            if (samples.size() >= max_samples) {
                break;
            }
            ExtendSample sample;
            sample.entry = &entry;
            sample.seedIndex = s;
            sample.oriented = entry.seeds[s].onReverseRead
                ? util::reverseComplement(entry.read.sequence)
                : entry.read.sequence;
            samples.push_back(std::move(sample));
        }
    }
    return samples;
}

struct ExtendResult
{
    double extendsPerSec = 0.0;
    double bytesPerExtend = 0.0;
    double allocsPerExtend = 0.0;
    /** 32-base chunks examined per extension. */
    double wordsPerExtend = 0.0;
};

ExtendResult
measureExtend(const Workload& wl, int reps)
{
    map::Extender extender(wl.world->graph(), map::MapperParams().extend);
    gbwt::CachedGbwt cache(wl.world->gbwt());
    map::ExtendScratch scratch;
    std::vector<ExtendSample> samples = pickExtendSamples(wl, 256);
    MG_ASSERT(!samples.empty());
    // Warm-up: every sample extended once (cache fills, scratch spills).
    for (const ExtendSample& sample : samples) {
        extender.extendSeed(sample.entry->seeds[sample.seedIndex],
                            sample.oriented, cache, scratch);
    }
    scratch.wordsCompared = 0;
    AllocSnapshot before = allocNow();
    util::WallTimer timer;
    for (int rep = 0; rep < reps; ++rep) {
        for (const ExtendSample& sample : samples) {
            benchmark::DoNotOptimize(extender.extendSeed(
                sample.entry->seeds[sample.seedIndex], sample.oriented,
                cache, scratch));
        }
    }
    double seconds = timer.seconds();
    AllocSnapshot delta = allocDelta(before);
    double extends =
        static_cast<double>(samples.size()) * static_cast<double>(reps);
    ExtendResult out;
    out.extendsPerSec = extends / seconds;
    out.bytesPerExtend = static_cast<double>(delta.bytes) / extends;
    out.allocsPerExtend = static_cast<double>(delta.calls) / extends;
    out.wordsPerExtend = static_cast<double>(scratch.wordsCompared) / extends;
    return out;
}

// ------------------------------------------------------------------ gbench

void
BM_MapFromSeeds(benchmark::State& state, const char* input_set)
{
    const Workload& wl = workload(input_set);
    map::Mapper mapper(wl.world->graph(), wl.world->gbwt(),
                       wl.world->minimizers, wl.world->distance,
                       map::MapperParams());
    auto mapper_state = mapper.makeState();
    const auto& entries = wl.capture.entries;
    size_t i = 0;
    for (const auto& entry : entries) { // warm-up
        mapper.mapFromSeeds(entry.read, entry.seeds, *mapper_state);
    }
    AllocSnapshot before = allocNow();
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.mapFromSeeds(
            entries[i].read, entries[i].seeds, *mapper_state));
        i = (i + 1) % entries.size();
    }
    AllocSnapshot delta = allocDelta(before);
    state.SetItemsProcessed(state.iterations());
    state.counters["bytes_per_read"] = benchmark::Counter(
        static_cast<double>(delta.bytes) /
        static_cast<double>(state.iterations()));
    state.counters["hit_rate"] =
        benchmark::Counter(mapper_state->totalStats().hitRate());
}

void
BM_ExtendSteady(benchmark::State& state, const char* input_set)
{
    const Workload& wl = workload(input_set);
    map::Extender extender(wl.world->graph(),
                           map::MapperParams().extend);
    gbwt::CachedGbwt cache(wl.world->gbwt());
    std::vector<ExtendSample> samples = pickExtendSamples(wl, 256);
    for (const ExtendSample& sample : samples) { // warm-up
        extender.extendSeed(sample.entry->seeds[sample.seedIndex],
                            sample.oriented, cache);
    }
    size_t i = 0;
    AllocSnapshot before = allocNow();
    for (auto _ : state) {
        const ExtendSample& sample = samples[i];
        benchmark::DoNotOptimize(extender.extendSeed(
            sample.entry->seeds[sample.seedIndex], sample.oriented,
            cache));
        i = (i + 1) % samples.size();
    }
    AllocSnapshot delta = allocDelta(before);
    state.SetItemsProcessed(state.iterations());
    state.counters["bytes_per_extend"] = benchmark::Counter(
        static_cast<double>(delta.bytes) /
        static_cast<double>(state.iterations()));
}

// --------------------------------------------------------------- reporting

/** Everything measured on one input set. */
struct InputRecord
{
    PassResult map;   // the mapping loop, whole capture
    ExtendResult ext; // the steady-state extend loop
};

/** Packed-arena footprint of one world's graph. */
void
emitArenaJson(obs::JsonWriter& w, const graph::VariationGraph& g,
              const char* name)
{
    const graph::SequenceStore& store = g.sequenceStore();
    size_t stored = 2 * store.totalBases();
    // The pre-packing layout held both strands as one byte per base.
    double reduction =
        store.arenaBytes()
            ? static_cast<double>(stored) /
                  static_cast<double>(store.arenaBytes())
            : 0.0;
    w.key(name).beginObject();
    w.field("resident_bytes", static_cast<uint64_t>(store.footprintBytes()));
    w.field("arena_bytes", static_cast<uint64_t>(store.arenaBytes()));
    w.field("offset_table_bytes",
            static_cast<uint64_t>(store.offsetTableBytes()));
    w.field("reserved_bytes", static_cast<uint64_t>(store.reservedBytes()));
    w.field("bits_per_stored_base",
            stored ? 8.0 * static_cast<double>(store.arenaBytes()) /
                         static_cast<double>(stored)
                   : 0.0);
    w.field("byte_arena_reduction", reduction);
    w.field("sanitized_bases",
            static_cast<uint64_t>(store.sanitizedBases()));
    w.endObject();
}

/**
 * extends_per_sec for one analog from a committed BENCH JSON, or < 0
 * when the file or field is missing.
 */
double
baselineExtendsPerSec(const std::string& path, const char* analog)
{
    try {
        std::string text = io::readFileText(path);
        obs::json::Value doc = obs::json::parse(text, path);
        const obs::json::Value* results = doc.find("results");
        const obs::json::Value* entry =
            results != nullptr ? results->find(analog) : nullptr;
        const obs::json::Value* value =
            entry != nullptr ? entry->find("extends_per_sec") : nullptr;
        return value != nullptr && value->isNumber() ? value->number : -1.0;
    } catch (const util::Error&) {
        return -1.0;
    }
}

void
writeJson(const std::string& path, const std::string& baseline_path,
          const InputRecord& a, const InputRecord& b)
{
    obs::JsonWriter w;
    auto emit = [&](const char* name, const InputRecord& r) {
        w.key(name).beginObject();
        w.field("reads_per_sec", r.map.readsPerSec);
        w.field("bytes_per_read", r.map.bytesPerRead);
        w.field("allocs_per_read", r.map.allocsPerRead);
        w.field("cache_hit_rate", r.map.hitRate);
        w.field("extends_per_sec", r.ext.extendsPerSec);
        w.field("bytes_per_extend", r.ext.bytesPerExtend);
        w.field("allocs_per_extend", r.ext.allocsPerExtend);
        w.field("words_per_extend", r.ext.wordsPerExtend);
        w.field("read_latency_p50_ns", r.map.p50Nanos);
        w.field("read_latency_p99_ns", r.map.p99Nanos);
        w.field("read_latency_p999_ns", r.map.p999Nanos);
        w.endObject();
    };
    w.beginObject();
    w.field("benchmark", "bench_hotpath");
    w.field("scale", g_scale);
    w.key("cpu").beginObject();
    w.field("arch", machine::hostCpu().arch);
    w.endObject();
    w.key("results").beginObject();
    emit("A-human", a);
    emit("B-yeast", b);
    w.endObject();
    w.key("packed_arena").beginObject();
    emitArenaJson(w, workload("A-human").world->graph(), "A-human");
    emitArenaJson(w, workload("B-yeast").world->graph(), "B-yeast");
    w.endObject();
    // The gain over a committed record when a baseline is given.
    if (!baseline_path.empty()) {
        w.key("guard").beginObject();
        double base_a = baselineExtendsPerSec(baseline_path, "A-human");
        double base_b = baselineExtendsPerSec(baseline_path, "B-yeast");
        if (base_a > 0.0 && base_b > 0.0) {
            w.field("speedup_vs_packed_A", a.ext.extendsPerSec / base_a);
            w.field("speedup_vs_packed_B", b.ext.extendsPerSec / base_b);
        } else {
            std::fprintf(stderr,
                         "bench_hotpath: baseline %s unreadable; "
                         "speedup_vs_packed omitted\n",
                         baseline_path.c_str());
        }
        w.endObject();
    }
    w.endObject();
    try {
        w.writeFile(path);
    } catch (const util::Error& e) {
        std::fprintf(stderr, "bench_hotpath: %s\n", e.what());
        return;
    }
    std::printf("wrote %s\n", path.c_str());
}

// ------------------------------------------------------------------- guard

/** Minimal scan for `"key": <number>` in a JSON text; < 0 if absent. */
double
jsonNumber(const std::string& text, const std::string& key)
{
    size_t at = text.find("\"" + key + "\"");
    if (at == std::string::npos) {
        return -1.0;
    }
    at = text.find(':', at);
    if (at == std::string::npos) {
        return -1.0;
    }
    return std::atof(text.c_str() + at + 1);
}

/**
 * Obs guard: price the live-metrics layer.  Per input set, time the
 * mapping kernel with metrics off and on in the same process (best of
 * up to five interleaved attempts, so machine speed and drift cancel) and
 * fail if the on/off throughput ratio drops below 0.98 — the telemetry
 * layer promises a pointer test plus ~20 buffered increments per read,
 * which must stay under 2%.  The committed BENCH record is read for a
 * context line only; the verdict is machine-independent.
 */
int
guardObsRun(const std::string& committed_path)
{
    try {
        std::string text = io::readFileText(committed_path);
        double committed = jsonNumber(text, "reads_per_sec");
        if (committed > 0.0) {
            std::printf("perf-guard-obs: committed record %s "
                        "(%.0f reads/s at record time)\n",
                        committed_path.c_str(), committed);
        }
    } catch (const util::Error& e) {
        std::printf("perf-guard-obs: no committed record (%s)\n",
                    e.what());
    }
    int failures = 0;
    for (const char* input_set : { "A-human", "B-yeast" }) {
        const Workload& wl = workload(input_set);
        double best = 0.0;
        for (int attempt = 0; attempt < 5 && best < 0.98; ++attempt) {
            obs::Hub hub(1);
            PassResult off = measureMapping(wl, 2);
            PassResult on = measureMapping(wl, 2, &hub);
            if (off.readsPerSec > 0.0) {
                best = std::max(best, on.readsPerSec / off.readsPerSec);
            }
        }
        std::printf("perf-guard-obs %s: metrics-on/off throughput ratio "
                    "%.4f (floor 0.98)\n",
                    input_set, best);
        if (best < 0.98) {
            std::fprintf(stderr,
                         "FAIL: live metrics cost >2%% of mapping "
                         "throughput on %s (ratio %.4f)\n",
                         input_set, best);
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

/**
 * Trace guard: price end-to-end request tracing at a realistic
 * head-sampling rate.  Per input set, time the mapping kernel with
 * tracing off and with one read in 100 carrying a StageAccumulator
 * (best of up to five interleaved attempts) and fail if the on/off
 * throughput ratio drops below 0.98 — tracing promises "a null pointer
 * test per untraced read, two clock reads per stage on traced ones",
 * which at 1%% sampling must be noise.  The committed BENCH record is
 * read for a context line only; the verdict is machine-independent.
 */
int
guardTraceRun(const std::string& committed_path)
{
    try {
        std::string text = io::readFileText(committed_path);
        double committed = jsonNumber(text, "reads_per_sec");
        if (committed > 0.0) {
            std::printf("perf-guard-trace: committed record %s "
                        "(%.0f reads/s at record time)\n",
                        committed_path.c_str(), committed);
        }
    } catch (const util::Error& e) {
        std::printf("perf-guard-trace: no committed record (%s)\n",
                    e.what());
    }
    int failures = 0;
    for (const char* input_set : { "A-human", "B-yeast" }) {
        const Workload& wl = workload(input_set);
        double best = 0.0;
        double best_full = 0.0;
        for (int attempt = 0; attempt < 5 && best < 0.98; ++attempt) {
            PassResult off = measureMapping(wl, 2);
            PassResult sampled = measureMapping(wl, 2, nullptr, 100);
            PassResult full = measureMapping(wl, 2, nullptr, 1);
            if (off.readsPerSec > 0.0) {
                best =
                    std::max(best, sampled.readsPerSec / off.readsPerSec);
                best_full =
                    std::max(best_full, full.readsPerSec / off.readsPerSec);
            }
        }
        std::printf("perf-guard-trace %s: 1%%-sampled/off throughput "
                    "ratio %.4f (floor 0.98); every-read ratio %.4f "
                    "(context)\n",
                    input_set, best, best_full);
        if (best < 0.98) {
            std::fprintf(stderr,
                         "FAIL: request tracing at 1%% sampling costs "
                         ">2%% of mapping throughput on %s (ratio %.4f)\n",
                         input_set, best);
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

int
smokeRun()
{
    // One quick repetition on the A analog: fast enough for CTest, long
    // enough that a >20% kernel regression is visible in the logged
    // reads/sec, with hard failures only on machine-independent invariants.
    const Workload& wl = workload("A-human");
    PassResult map_a = measureMapping(wl, 1);
    ExtendResult ext_a = measureExtend(wl, 4);
    std::printf("perf-smoke A-human: %.0f reads/s, %.1f B/read, "
                "hit %.3f, extend %.0f/s, %.1f B/extend\n",
                map_a.readsPerSec, map_a.bytesPerRead, map_a.hitRate,
                ext_a.extendsPerSec, ext_a.bytesPerExtend);
    std::printf("perf-smoke A-human latency: p50 %s, p99 %s, p999 %s\n",
                stats::formatNanos(map_a.p50Nanos).c_str(),
                stats::formatNanos(map_a.p99Nanos).c_str(),
                stats::formatNanos(map_a.p999Nanos).c_str());
    int failures = 0;
    if (ext_a.bytesPerExtend != 0.0 || ext_a.allocsPerExtend != 0.0) {
        std::fprintf(stderr,
                     "FAIL: steady-state extend loop allocates "
                     "(%.1f bytes, %.2f allocs per extend); the kernel "
                     "must be allocation-free\n",
                     ext_a.bytesPerExtend, ext_a.allocsPerExtend);
        ++failures;
    }
    if (map_a.hitRate < 0.5) {
        std::fprintf(stderr,
                     "FAIL: CachedGBWT hit rate %.3f < 0.5; the per-read "
                     "cache reset is losing its entries\n",
                     map_a.hitRate);
        ++failures;
    }
    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace mg::bench

int
main(int argc, char** argv)
{
    using namespace mg::bench;
    bool smoke = false;
    std::string out_path = "BENCH_hotpath.json";
    std::string baseline_path;
    std::string guard_obs_path;
    std::string guard_trace_path;
    std::vector<char*> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strncmp(argv[i], "--guard-obs=", 12) == 0) {
            guard_obs_path = argv[i] + 12;
        } else if (std::strncmp(argv[i], "--guard-trace=", 14) == 0) {
            guard_trace_path = argv[i] + 14;
        } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
            g_scale = std::atof(argv[i] + 8);
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            out_path = argv[i] + 6;
        } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
            baseline_path = argv[i] + 11;
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    if (smoke || !guard_obs_path.empty() || !guard_trace_path.empty()) {
        if (g_scale > 0.05) {
            g_scale = 0.05; // keep CTest fast regardless of the default
        }
        if (!guard_obs_path.empty()) {
            return guardObsRun(guard_obs_path);
        }
        if (!guard_trace_path.empty()) {
            return guardTraceRun(guard_trace_path);
        }
        return smokeRun();
    }

    banner("hotpath", "Hot-path kernel throughput, allocation, and cache "
                      "behaviour (single thread)");
    std::printf("cpu: %s\n", mg::machine::hostCpu().arch.c_str());

    // Deterministic measurement passes for the JSON record.
    auto record = [](const Workload& wl) {
        InputRecord r;
        r.map = measureMapping(wl, 3);
        r.ext = measureExtend(wl, 20);
        return r;
    };
    auto report = [](const char* name, const InputRecord& r) {
        std::printf(
            "%s: %10.0f reads/s  %8.1f B/read  %6.2f allocs/read"
            "  hit %.4f\n         %10.0f ext/s    %8.1f B/extend  "
            "%6.2f words/ext\n         read latency: p50 %s, p99 %s, "
            "p999 %s\n",
            name, r.map.readsPerSec, r.map.bytesPerRead,
            r.map.allocsPerRead, r.map.hitRate, r.ext.extendsPerSec,
            r.ext.bytesPerExtend, r.ext.wordsPerExtend,
            mg::stats::formatNanos(r.map.p50Nanos).c_str(),
            mg::stats::formatNanos(r.map.p99Nanos).c_str(),
            mg::stats::formatNanos(r.map.p999Nanos).c_str());
    };
    InputRecord rec_a = record(workload("A-human"));
    InputRecord rec_b = record(workload("B-yeast"));
    report("A-human", rec_a);
    report("B-yeast", rec_b);
    writeJson(out_path, baseline_path, rec_a, rec_b);

    // Google-benchmark pass (iteration-level timing, same kernels).
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::RegisterBenchmark("BM_MapFromSeeds/A", BM_MapFromSeeds,
                                 "A-human");
    benchmark::RegisterBenchmark("BM_MapFromSeeds/B", BM_MapFromSeeds,
                                 "B-yeast");
    benchmark::RegisterBenchmark("BM_ExtendSteady/A", BM_ExtendSteady,
                                 "A-human");
    benchmark::RegisterBenchmark("BM_ExtendSteady/B", BM_ExtendSteady,
                                 "B-yeast");
    benchmark::Initialize(&bench_argc, passthrough.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
