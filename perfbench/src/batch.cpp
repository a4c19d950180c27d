// The two batch workloads.  human-proxy runs giraffe::ProxyRunner on the
// A-human analog's seed capture; yeast-giraffe runs the parent pipeline
// FASTQ text -> ParentEmulator -> GAF text on the B-yeast analog.  Both
// alternate nproc-thread and 1-thread passes over the whole read set for
// the timed phase, check every pass's output, and (traced) replay the
// reads through the layer functions on one thread.
#include <algorithm>
#include <functional>
#include <memory>

#include "giraffe/parent.h"
#include "giraffe/proxy.h"
#include "harness.h"
#include "io/extensions_io.h"
#include "io/fastq.h"
#include "io/file.h"
#include "io/gaf.h"
#include "io/mgz.h"
#include "io/reads_bin.h"
#include "replay.h"
#include "util/timer.h"

namespace perfbench {

namespace {

constexpr int kSetups = 9;

/** Set-up samples: total, pangenome load, capture load, page faults. */
struct SetupSamples
{
    std::vector<double> total;
    std::vector<double> load;
    std::vector<double> capture;
    std::vector<double> faults;
    double rssAfterMb = 0.0;
};

/** Timed-phase samples of the alternating nproc / 1-thread passes. */
struct PassSamples
{
    std::vector<double> wallN;
    std::vector<double> wall1;
    std::vector<double> cpuN;
};

/**
 * Alternate `pass(true)` (nproc threads) and `pass(false)` (1 thread)
 * for `seconds`, every mode at least twice.  A pass maps the whole read
 * set.  1-thread passes are several times longer, so they get 60% of the
 * time: their median needs samples as much as the parallel one does.
 */
PassSamples
alternatePasses(double seconds, const std::function<void(bool)>& pass)
{
    PassSamples s;
    double used_n = 0.0;
    double used_1 = 0.0;
    mg::util::WallTimer elapsed;
    auto parallel_next = [&] { return 3 * used_n <= 2 * used_1; };
    for (;;) {
        const bool parallel = parallel_next();
        const double cpu0 = processCpuSeconds();
        mg::util::WallTimer timer;
        pass(parallel);
        const double wall = timer.seconds();
        if (parallel) {
            s.wallN.push_back(wall);
            s.cpuN.push_back(processCpuSeconds() - cpu0);
            used_n += wall;
        } else {
            s.wall1.push_back(wall);
            used_1 += wall;
        }
        if (s.wallN.size() >= 2 && s.wall1.size() >= 2) {
            const double next =
                parallel_next() ? s.wallN.back() : s.wall1.back();
            if (elapsed.seconds() + next > seconds) {
                return s;
            }
        }
    }
}

std::vector<double>
rates(const std::vector<double>& walls, double reads)
{
    std::vector<double> out;
    for (double w : walls) {
        out.push_back(reads / w);
    }
    return out;
}

/** End-to-end rows shared by both batch workloads. */
void
recordBatchEndToEnd(Record& record, const SetupSamples& setup,
                    const PassSamples& passes, double reads)
{
    record.setMedian("setup_s", setup.total, "s", "median of set-ups");
    record.setMedian("reads_per_s", rates(passes.wallN, reads), "1/s",
                     "median over nproc-thread passes");
    record.setMedian("reads_per_s_1t", rates(passes.wall1, reads), "1/s",
                     "median over 1-thread passes");
    std::vector<double> cpu;
    for (double c : passes.cpuN) {
        cpu.push_back(c * 1e6 / reads);
    }
    record.setMedian("cpu_ms_per_kread", std::move(cpu), "ms",
                     "process user+sys per 1000 reads, nproc threads");
    record.set("peak_rss_mb", peakRssMb(), "MB", 1,
               "ru_maxrss after the timed phase");
}

/** Per-layer rows from set-up and the untraced timed phase. */
void
recordBatchLayers(Record& record, const SetupSamples& setup,
                  const PassSamples& passes, double reads, size_t nproc,
                  const mg::stats::LatencyHistogram& readLatency)
{
    record.set("io.load_s", median(setup.load), "s", setup.load.size(),
               "io::loadPangenome");
    record.set("io.setup_page_faults", median(setup.faults), "count",
               setup.faults.size(), "page faults per set-up");
    record.set("mem.rss_after_setup_mb", setup.rssAfterMb, "MB", 1);
    const double rate_n = median(rates(passes.wallN, reads));
    const double rate_1 = median(rates(passes.wall1, reads));
    record.set("sched.efficiency",
               rate_n / (static_cast<double>(nproc) * rate_1), "ratio",
               passes.wallN.size() + passes.wall1.size(),
               "reads_per_s / (nproc x reads_per_s_1t)");
    record.set("sched.read_p50_us", readLatency.p50() * 1e-3, "us",
               readLatency.count(), "ResilienceStats latency histogram");
    record.set("sched.read_p99_us", readLatency.p99() * 1e-3, "us",
               readLatency.count(), "ResilienceStats latency histogram");
}

/** Rows of layers a batch workload never calls. */
void
recordBatchNotRun(Record& record)
{
    const char* why = "batch workload, no daemon";
    for (const char* name : {"serve.queue_p99_ms", "serve.map_p99_ms",
                             "serve.other_p50_ms"}) {
        record.notRun(name, "ms", why);
    }
    record.notRun("serve.encode_ns", "ns", why);
    record.notRun("serve.decode_ns", "ns", why);
    for (const char* name :
         {"serve.shed", "serve.bad_frames", "serve.accepted"}) {
        record.notRun(name, "count", why);
    }
    record.notRun("loadgen.late_share", "ratio", why);
    for (const char* name : {"loadgen.late_p99_ms", "req_p50_ms",
                             "req_p99_ms", "bulk_p99_ms"}) {
        record.notRun(name, "ms", why);
    }
    record.notRun("rps_at_slo", "1/s", why);
}

/** The per-read counters of two runs over the same reads agree (caches
 *  start at their initial capacity for every read). */
bool
sameCacheWork(const mg::gbwt::CacheStats& a, const mg::gbwt::CacheStats& b)
{
    return a.lookups == b.lookups && a.hits == b.hits &&
           a.decodes == b.decodes && a.rehashes == b.rehashes &&
           a.probes == b.probes;
}

/** Reads whose extensions differ between two runs (same read order). */
uint64_t
mismatchedReads(const std::vector<mg::io::ReadExtensions>& a,
                const std::vector<mg::io::ReadExtensions>& b)
{
    if (a.size() != b.size()) {
        return std::max(a.size(), b.size());
    }
    uint64_t bad = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].readName != b[i].readName ||
            a[i].extensions != b[i].extensions) {
            ++bad;
        }
    }
    return bad;
}

/** Tracing overhead of a batch replay against the untraced 1-thread rate. */
void
recordReplayOverhead(Record& record, const SpanLog& log,
                     const ReplayRoot& root, uint64_t reads,
                     double untraced1t, uint64_t samples)
{
    recordTraceQuality(record, log, root,
                       1.0 - replayRate(log, root, reads) / untraced1t,
                       samples,
                       "1 - traced replay / untraced reads_per_s_1t");
}

} // namespace

void
runHumanProxy(const Options& options, Record& record)
{
    struct World
    {
        mg::io::IndexedPangenome pangenome;
        mg::io::SeedCapture capture;
        std::unique_ptr<mg::giraffe::ProxyRunner> parallel;
        std::unique_ptr<mg::giraffe::ProxyRunner> single;
    };
    // The paper's defaults: OpenMP dynamic, batch 512, cache capacity 256.
    mg::giraffe::ProxyParams params;
    params.scheduler = mg::sched::SchedulerKind::OmpDynamic;
    params.batchSize = 512;
    params.mapper.gbwtCacheCapacity = 256;

    SetupSamples setup;
    std::unique_ptr<World> world;
    for (int i = 0; i < kSetups; ++i) {
        world.reset();
        FaultMeter faults;
        mg::util::WallTimer timer;
        auto w = std::make_unique<World>();
        w->pangenome = mg::io::loadPangenome(options.dir + "/pangenome.mgz3");
        const double load = timer.seconds();
        w->capture =
            mg::io::loadSeedCapture(options.dir + "/capture.seeds.bin");
        const double capture = timer.seconds() - load;
        params.numThreads = options.nproc;
        w->parallel = std::make_unique<mg::giraffe::ProxyRunner>(
            w->pangenome.graph, w->pangenome.gbwt, w->pangenome.distance,
            params);
        params.numThreads = 1;
        w->single = std::make_unique<mg::giraffe::ProxyRunner>(
            w->pangenome.graph, w->pangenome.gbwt, w->pangenome.distance,
            params);
        setup.total.push_back(timer.seconds());
        setup.load.push_back(load);
        setup.capture.push_back(capture);
        setup.faults.push_back(faults.read());
        world = std::move(w);
    }
    setup.rssAfterMb = currentRssMb();

    const std::vector<mg::io::ReadExtensions> expected =
        mg::io::loadExtensions(options.dir + "/expected.ext");
    const double reads = static_cast<double>(world->capture.entries.size());
    world->parallel->run(world->capture); // warm-up, untimed

    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;
    mg::stats::LatencyHistogram latency;
    mg::gbwt::CacheStats cache;
    std::vector<mg::io::ReadExtensions> last;
    // The traced run spends half its time on the untraced passes.
    const double seconds =
        options.trace ? options.seconds / 2 : options.seconds;
    PassSamples passes = alternatePasses(seconds, [&](bool parallel) {
        mg::giraffe::ProxyOutputs out =
            (parallel ? world->parallel : world->single)->run(world->capture);
        if (parallel) {
            latency.merge(out.resilience.latency);
        }
        cache = out.cacheStats;
        attempted += world->capture.entries.size();
        const uint64_t bad = mismatchedReads(expected, out.extensions);
        mismatched += bad;
        failed += std::max<uint64_t>(bad, out.failures.poisoned.size() +
                                              out.resilience.degradedReads());
        last = std::move(out.extensions);
    });
    record.count(attempted, failed);
    record.check("proxy extensions == parent extensions", mismatched == 0,
                 std::to_string(mismatched) + " mismatched reads over " +
                     std::to_string(passes.wallN.size() +
                                    passes.wall1.size()) +
                     " passes");
    recordBatchEndToEnd(record, setup, passes, reads);
    if (!options.trace) {
        return;
    }

    recordBatchLayers(record, setup, passes, reads, options.nproc, latency);
    record.set("io.capture_load_s", median(setup.capture), "s",
               setup.capture.size(), "io::loadSeedCapture");
    record.notRun("io.fastq_ns_per_read", "ns", "input is the seed capture");
    record.notRun("io.gaf_ns_per_read", "ns", "the proxy writes no GAF");
    recordBatchNotRun(record);

    const mg::io::IndexedPangenome& pg = world->pangenome;
    mg::map::Mapper mapper(pg.graph, pg.gbwt, pg.minimizers, pg.distance,
                           params.mapper);
    SpanLog log(world->capture.entries.size() * 3 + 1);
    ReplayRoot root(log);
    ReplayResult replay = replayCapture(mapper, pg.distance, world->capture,
                                        log, root.index());
    root.end();
    const uint64_t diverged = mismatchedReads(last, replay.extensions);
    record.check("traced replay == untraced run",
                 diverged == 0 && sameCacheWork(replay.counts.cache, cache),
                 std::to_string(diverged) +
                     " reads differ; CacheStats compared too");
    uint64_t decodes = 0;
    const double decode_ns = timeRecordDecode(pg.gbwt, options.seed, &decodes);
    recordLayers(record, log, replay.counts, decode_ns, decodes, false,
                 false);
    recordReplayOverhead(record, log, root, replay.counts.reads,
                         median(rates(passes.wall1, reads)),
                         passes.wall1.size());
    log.write(options.dir + "/spans.csv");
}

void
runYeastGiraffe(const Options& options, Record& record)
{
    struct World
    {
        mg::io::IndexedPangenome pangenome;
        std::string fastq;
        std::unique_ptr<mg::giraffe::ParentEmulator> parallel;
        std::unique_ptr<mg::giraffe::ParentEmulator> single;
    };
    mg::giraffe::ParentParams params;

    SetupSamples setup;
    std::unique_ptr<World> world;
    for (int i = 0; i < kSetups; ++i) {
        world.reset();
        FaultMeter faults;
        mg::util::WallTimer timer;
        auto w = std::make_unique<World>();
        w->pangenome = mg::io::loadPangenome(options.dir + "/pangenome.mgz3");
        setup.load.push_back(timer.seconds());
        w->fastq = mg::io::readFileText(options.dir + "/reads.fastq");
        const mg::io::IndexedPangenome& pg = w->pangenome;
        params.numThreads = options.nproc;
        w->parallel = std::make_unique<mg::giraffe::ParentEmulator>(
            pg.graph, pg.gbwt, pg.minimizers, pg.distance, params);
        params.numThreads = 1;
        w->single = std::make_unique<mg::giraffe::ParentEmulator>(
            pg.graph, pg.gbwt, pg.minimizers, pg.distance, params);
        setup.total.push_back(timer.seconds());
        setup.faults.push_back(faults.read());
        world = std::move(w);
    }
    setup.rssAfterMb = currentRssMb();

    const mg::graph::VariationGraph& graph = world->pangenome.graph;
    // FASTQ text -> mapping -> GAF text, the whole parent pipeline.
    auto pipeline = [&](const mg::giraffe::ParentEmulator& parent,
                        mg::giraffe::ParentOutputs& out) {
        mg::map::ReadSet reads = mg::io::parseFastq(world->fastq);
        out = parent.run(reads);
        return mg::io::formatGaf(out.alignments, reads, graph);
    };
    mg::giraffe::ParentOutputs warm;
    const std::string reference = pipeline(*world->parallel, warm);
    const double reads = static_cast<double>(warm.alignments.size());

    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatched_passes = 0;
    mg::stats::LatencyHistogram latency;
    mg::gbwt::CacheStats cache;
    std::string gaf_n;
    std::string gaf_1;
    // The traced run spends half its time on the untraced passes.
    const double seconds =
        options.trace ? options.seconds / 2 : options.seconds;
    PassSamples passes = alternatePasses(seconds, [&](bool parallel) {
        mg::giraffe::ParentOutputs out;
        std::string gaf =
            pipeline(parallel ? *world->parallel : *world->single, out);
        if (parallel) {
            latency.merge(out.resilience.latency);
        }
        cache = out.cacheStats;
        uint64_t degraded = out.failures.poisoned.size();
        for (const mg::giraffe::Alignment& a : out.alignments) {
            degraded += a.degraded != mg::resilience::CancelReason::None;
        }
        attempted += out.alignments.size();
        if (gaf != reference) {
            ++mismatched_passes;
            degraded = out.alignments.size();
        }
        failed += degraded;
        (parallel ? gaf_n : gaf_1) = std::move(gaf);
    });
    record.count(attempted, failed);
    record.check("GAF at nproc threads == GAF at 1 thread",
                 mismatched_passes == 0 && gaf_n == gaf_1,
                 std::to_string(mismatched_passes) +
                     " passes differ from the first nproc-thread GAF");
    recordBatchEndToEnd(record, setup, passes, reads);
    if (!options.trace) {
        return;
    }

    recordBatchLayers(record, setup, passes, reads, options.nproc, latency);
    record.notRun("io.capture_load_s", "s", "reads come from FASTQ text");
    recordBatchNotRun(record);

    const mg::io::IndexedPangenome& pg = world->pangenome;
    mg::map::Mapper mapper(pg.graph, pg.gbwt, pg.minimizers, pg.distance,
                           params.mapper);
    SpanLog log(static_cast<size_t>(reads) * 5 + 3);
    ReplayRoot root(log);
    mg::map::ReadSet parsed;
    {
        SpanScope span(log, "io.parseFastq", root.index(), 0);
        parsed = mg::io::parseFastq(world->fastq);
    }
    ReplayResult replay =
        replayReads(mapper, pg.minimizers, pg.distance, parsed.reads,
                    params.post, log, root.index());
    std::string gaf;
    {
        SpanScope span(log, "io.formatGaf", root.index(), 0);
        gaf = mg::io::formatGaf(replay.alignments, parsed, pg.graph);
    }
    root.end();
    record.check("traced replay == untraced run",
                 gaf == reference && sameCacheWork(replay.counts.cache, cache),
                 "GAF bytes and CacheStats of the replay vs the untraced "
                 "passes");
    record.set("io.fastq_ns_per_read",
               static_cast<double>(log.total("io.parseFastq")) / reads, "ns",
               parsed.size(), "io::parseFastq span");
    record.set("io.gaf_ns_per_read",
               static_cast<double>(log.total("io.formatGaf")) / reads, "ns",
               parsed.size(), "io::formatGaf span");
    uint64_t decodes = 0;
    const double decode_ns = timeRecordDecode(pg.gbwt, options.seed, &decodes);
    recordLayers(record, log, replay.counts, decode_ns, decodes, true, true);
    recordReplayOverhead(record, log, root, replay.counts.reads,
                         median(rates(passes.wall1, reads)),
                         passes.wall1.size());
    log.write(options.dir + "/spans.csv");
}

} // namespace perfbench
