/**
 * @file
 * The full mapper as a command-line tool: map a FASTQ of short reads
 * against an MGZ pangenome and emit GAF alignments — the parent-emulator
 * counterpart of minigiraffe_app (which runs the critical functions only).
 *
 * Run:  ./examples/giraffe_app <graph.mgz|graph.mgz3> <reads.fastq>
 *           [--threads N] [--batch-size B] [--paired]
 *           [--gaf out.gaf] [--k 15] [--w 8]
 *           [--index out.mgz3]
 *
 * Build-once / map-many: `--index out.mgz3` writes a zero-copy MGZ v3
 * container (graph + GBWT + prebuilt minimizer/distance indexes) on the
 * first run and memory-maps it on every later run, skipping both the
 * parse and the index builds.  A v3 path can also be passed directly as
 * the positional graph argument.
 */
#include <cstdio>
#include <memory>

#include "fault/fault.h"
#include "giraffe/checkpoint_run.h"
#include "giraffe/parent.h"
#include "giraffe/run_summary.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/fastq.h"
#include "io/file.h"
#include "io/gaf.h"
#include "io/mgz.h"
#include "obs/emitter.h"
#include "obs/hub.h"
#include "obs/trace.h"
#include "serve/stop.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

/** Per-site fault counters for the final metrics snapshot. */
std::vector<mg::obs::MetricValue>
faultExtras()
{
    std::vector<mg::obs::MetricValue> extras;
    for (const auto& [site, stats] : mg::fault::allStats()) {
        mg::obs::MetricValue hits;
        hits.name = "mg_fault_hits_total{site=\"" + site + "\"}";
        hits.help = "Times the fault site was evaluated.";
        hits.value = stats.hits;
        extras.push_back(std::move(hits));
        mg::obs::MetricValue fires;
        fires.name = "mg_fault_fires_total{site=\"" + site + "\"}";
        fires.help = "Times the fault site injected its fault.";
        fires.value = stats.fires;
        extras.push_back(std::move(fires));
    }
    return extras;
}

} // namespace

int
main(int argc, char** argv)
try {
    mg::util::Flags flags("giraffe_app");
    flags.define("threads", "1", "worker thread count")
         .define("batch-size", "512", "reads per scheduler batch")
         .define("paired", "false",
                 "treat consecutive reads as mate pairs")
         .define("gaf", "", "write GAF alignments to this file")
         .define("k", "15", "minimizer k-mer length")
         .define("w", "8", "minimizer window size")
         .define("index", "",
                 "MGZ v3 container: mmap it when present, else build "
                 "the indexes once and write it (build-once/map-many)")
         .define("index-build-threads", "0",
                 "worker threads for index construction when parsing "
                 "(0 = hardware)")
         .define("fault", "",
                 "arm fault injection, e.g. 'sched.worker=throw,limit=2'")
         .define("deadline", "0",
                 "wall-clock budget in seconds (0 = unlimited); reads "
                 "past the deadline degrade to best-so-far")
         .define("max-extend-steps", "0",
                 "per-read cap on extension walk states (0 = unlimited)")
         .define("max-gbwt-lookups", "0",
                 "per-read cap on GBWT lookups (0 = unlimited)")
         .define("watchdog", "false",
                 "supervise workers; stalled batches are cancelled "
                 "cooperatively")
         .define("watchdog-stall", "5.0",
                 "seconds without a heartbeat before a worker counts "
                 "as stalled")
         .define("checkpoint", "",
                 "checkpoint directory: flush durable GAF shards and "
                 "resume from them (unpaired reads only)")
         .define("checkpoint-shard", "2048",
                 "reads per checkpoint shard")
         .define("metrics-out", "",
                 "write metrics here (.prom = Prometheus text, anything "
                 "else = JSON snapshot series)")
         .define("metrics-interval", "0",
                 "rewrite --metrics-out every N seconds (0 = final only)")
         .define("trace-out", "",
                 "write a Chrome trace-event JSON timeline (implies "
                 "region profiling; non-checkpoint runs only)")
         .define("flight-ring", "16",
                 "flight-recorder entries per worker")
         .define("summary-json", "",
                 "write the machine-readable run summary here");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }
    if (flags.positional().size() != 2) {
        std::fprintf(stderr,
                     "usage: giraffe_app <graph.mgz> <reads.fastq> "
                     "[flags]\n");
        return 1;
    }

    if (!flags.str("fault").empty()) {
        mg::fault::armFromText(flags.str("fault"));
    }
    // SIGTERM/SIGINT request a graceful stop: the current unit of work
    // (batch, or checkpoint shard) finishes, outputs flush, exit is 0.
    mg::serve::installStopHandlers();

    mg::util::WallTimer timer;
    mg::io::LoadOptions load_options;
    load_options.minimizer.k = static_cast<int>(flags.integer("k"));
    load_options.minimizer.w = static_cast<int>(flags.integer("w"));
    load_options.buildThreads =
        static_cast<unsigned>(flags.uinteger("index-build-threads"));
    const std::string index_path = flags.str("index");
    mg::io::IndexedPangenome pangenome;
    if (!index_path.empty() && mg::io::fileExists(index_path)) {
        pangenome = mg::io::loadPangenome(index_path, load_options);
    } else {
        pangenome = mg::io::loadPangenome(flags.positional()[0],
                                          load_options);
        if (!index_path.empty()) {
            mg::io::saveMgz3(index_path, pangenome.graph, pangenome.gbwt,
                             pangenome.minimizers, pangenome.distance);
            std::printf("wrote %s (map it on the next run)\n",
                        index_path.c_str());
        }
    }
    mg::map::ReadSet reads = mg::io::loadFastq(flags.positional()[1]);
    if (flags.boolean("paired")) {
        mg::util::require(reads.size() % 2 == 0,
                          "--paired needs an even number of reads");
        reads.pairedEnd = true;
        for (size_t i = 0; i + 1 < reads.size(); i += 2) {
            reads.reads[i].mate = i + 1;
            reads.reads[i + 1].mate = i;
        }
    }
    std::printf("loaded %zu nodes / %zu reads in %.2f s "
                "(%s load: %.3f s, %zu minimizer keys)\n",
                pangenome.graph.numNodes(), reads.size(), timer.seconds(),
                mg::io::loadModeName(pangenome.info.mode),
                pangenome.info.loadSeconds,
                pangenome.minimizers.numKeys());
    timer.reset();

    mg::giraffe::ParentParams params;
    params.numThreads = flags.uinteger("threads");
    params.batchSize = flags.uinteger("batch-size");
    params.budget.wallSeconds = flags.real("deadline");
    params.budget.maxExtendSteps = flags.uinteger("max-extend-steps");
    params.budget.maxGbwtLookups = flags.uinteger("max-gbwt-lookups");
    params.watchdog = flags.boolean("watchdog");
    params.watchdogParams.stallSeconds = flags.real("watchdog-stall");
    if (flags.str("checkpoint").empty()) {
        // Checkpointed runs stop at shard granularity instead (see
        // CheckpointRunParams::stopFlag) — a mid-chunk stop would flush
        // a shard claiming coverage it does not have.
        params.stopFlag = mg::serve::stopFlag();
    }
    mg::giraffe::ParentEmulator giraffe(pangenome.graph, pangenome.gbwt,
                                        pangenome.minimizers,
                                        pangenome.distance, params);

    // Telemetry hub: live metrics + flight recorder, shared by the plain
    // and checkpointed paths.
    const bool telemetry = !flags.str("metrics-out").empty() ||
                           !flags.str("trace-out").empty() ||
                           params.watchdog;
    std::unique_ptr<mg::obs::Hub> hub;
    std::unique_ptr<mg::obs::MetricsEmitter> emitter;
    if (telemetry) {
        hub = std::make_unique<mg::obs::Hub>(
            params.numThreads,
            flags.uinteger("flight-ring"));
        mg::obs::installCrashHandler(&hub->flight());
        if (!flags.str("metrics-out").empty()) {
            emitter = std::make_unique<mg::obs::MetricsEmitter>(
                hub->registry(), flags.str("metrics-out"),
                flags.real("metrics-interval"));
            emitter->start();
        }
    }

    if (!flags.str("checkpoint").empty()) {
        // Checkpointed mode: the parent emulator drives shard-at-a-time
        // mapping with durable flushes, resuming from whatever the
        // directory already holds; the stitched GAF is byte-identical to
        // an uninterrupted run.
        mg::giraffe::CheckpointRunParams cp;
        cp.dir = flags.str("checkpoint");
        cp.shardReads = flags.uinteger("checkpoint-shard");
        cp.hub = hub.get();
        cp.stopFlag = mg::serve::stopFlag();
        mg::giraffe::CheckpointRunResult result =
            mg::giraffe::runCheckpointed(giraffe, reads, cp);
        if (result.stopped) {
            std::printf("graceful stop: in-progress shard flushed, GAF "
                        "holds the contiguous prefix; resume with the "
                        "same --checkpoint dir\n");
        }
        std::printf("checkpointed run: %llu resumed + %llu mapped reads "
                    "in %.3f s (%llu dropped shards)\n",
                    static_cast<unsigned long long>(result.resumedReads),
                    static_cast<unsigned long long>(result.mappedReads),
                    result.wallSeconds,
                    static_cast<unsigned long long>(result.droppedShards));
        std::printf("resilience: %s\n",
                    result.resilience.summary().c_str());
        if (!result.failures.ok()) {
            std::printf("failures: %s\n",
                        result.failures.summary().c_str());
        }
        if (emitter) {
            emitter->finalize(faultExtras());
            std::printf("wrote %s\n", flags.str("metrics-out").c_str());
        }
        if (!flags.str("summary-json").empty()) {
            mg::io::writeFileText(flags.str("summary-json"),
                                  mg::giraffe::summaryJson(result, cp));
            std::printf("wrote %s\n", flags.str("summary-json").c_str());
        }
        if (!flags.str("gaf").empty()) {
            mg::io::writeFileText(flags.str("gaf"), result.gaf);
            std::printf("wrote %s\n", flags.str("gaf").c_str());
        }
        if (hub) {
            mg::obs::installCrashHandler(nullptr);
        }
        return 0;
    }

    mg::perf::Profiler profiler(!flags.str("trace-out").empty());
    mg::giraffe::ParentOutputs outputs = giraffe.run(
        reads, profiler.enabled() ? &profiler : nullptr, nullptr,
        hub.get());

    size_t mapped = 0;
    for (const mg::giraffe::Alignment& alignment : outputs.alignments) {
        if (alignment.mapped) {
            ++mapped;
        }
    }
    if (outputs.stopped) {
        std::printf("graceful stop: running batches finished, later ones "
                    "never started; unvisited reads are unmapped "
                    "placeholders\n");
    }
    std::printf("mapped %zu / %zu reads in %.3f s "
                "(GBWT cache hit rate %.3f)\n",
                mapped, reads.size(), outputs.wallSeconds,
                outputs.cacheStats.hitRate());
    std::printf("resilience: %s\n", outputs.resilience.summary().c_str());
    auto read_name = [&](uint64_t index) -> std::string {
        return index < reads.size() ? reads.reads[index].name : "?";
    };
    for (const mg::sched::WatchdogEvent& event : outputs.watchdogEvents) {
        std::printf("watchdog cancel: worker %zu batch [%zu,%zu) stalled "
                    "%.2f s\n",
                    event.worker, event.batchBegin, event.batchEnd,
                    static_cast<double>(event.stalledNanos) / 1e9);
        for (const mg::obs::FlightEntry& entry : event.flight) {
            const double age =
                event.atNanos > entry.stageEnterNanos
                    ? static_cast<double>(event.atNanos -
                                          entry.stageEnterNanos) / 1e9
                    : 0.0;
            std::printf("  read %llu (%s): in %s for %.3f s\n",
                        static_cast<unsigned long long>(entry.readIndex),
                        read_name(entry.readIndex).c_str(),
                        mg::obs::stageName(entry.stage), age);
        }
    }
    if (!outputs.failures.ok()) {
        std::printf("failures: %s\n", outputs.failures.summary().c_str());
        for (const mg::sched::ItemFailure& item :
             outputs.failures.poisoned) {
            std::printf("  quarantined read %zu (%s): %s\n", item.index,
                        reads.reads[item.index].name.c_str(),
                        item.what.c_str());
        }
        if (hub && !outputs.failures.poisoned.empty()) {
            std::printf("%s", hub->flight()
                                  .report(mg::util::nowNanos(), read_name)
                                  .c_str());
        }
    }
    for (const auto& [site, stats] : mg::fault::allStats()) {
        std::printf("fault site %s: %llu hits, %llu fires\n", site.c_str(),
                    static_cast<unsigned long long>(stats.hits),
                    static_cast<unsigned long long>(stats.fires));
    }
    if (reads.pairedEnd) {
        size_t proper = 0;
        for (const mg::giraffe::PairResult& pair : outputs.pairs) {
            if (pair.properPair) {
                ++proper;
            }
        }
        std::printf("proper pairs: %zu / %zu\n", proper,
                    outputs.pairs.size());
    }

    if (emitter) {
        emitter->finalize(faultExtras());
        std::printf("wrote %s\n", flags.str("metrics-out").c_str());
    }
    if (!flags.str("trace-out").empty()) {
        std::vector<mg::obs::TraceInstant> instants;
        for (const mg::sched::WatchdogEvent& event :
             outputs.watchdogEvents) {
            instants.push_back(mg::obs::TraceInstant{
                "watchdog cancel", event.worker, event.atNanos });
        }
        mg::obs::writeChromeTrace(flags.str("trace-out"), profiler,
                                  instants, "giraffe_app");
        std::printf("wrote %s\n", flags.str("trace-out").c_str());
    }
    if (!flags.str("summary-json").empty()) {
        pangenome.refreshResidency(); // post-run page-cache footprint
        mg::io::writeFileText(flags.str("summary-json"),
                              mg::giraffe::summaryJson(
                                  outputs, params, &pangenome.info));
        std::printf("wrote %s\n", flags.str("summary-json").c_str());
    }
    if (!flags.str("gaf").empty()) {
        mg::io::saveGaf(flags.str("gaf"), outputs.alignments, reads,
                        pangenome.graph);
        std::printf("wrote %s\n", flags.str("gaf").c_str());
    }
    if (hub) {
        mg::obs::installCrashHandler(nullptr);
    }
    return 0;
} catch (const mg::util::Error& e) {
    std::fprintf(stderr, "giraffe_app: %s\n", e.what());
    return 1;
}
