/**
 * @file
 * miniGiraffe — the proxy application itself, mirroring the paper's
 * binary.  Inputs are the pangenome container and the reads+seeds capture;
 * the run executes only the critical functions (cluster_seeds and
 * process_until_threshold_c / extension) and writes the raw mapping
 * results.  The three Section VII-B tuning parameters are command-line
 * flags, as are instrumentation toggles.
 *
 * Run:  ./examples/minigiraffe_app <graph.mgz|graph.mgz3> <seeds.bin>
 *           [--threads N] [--batch-size B] [--cache-capacity C]
 *           [--scheduler openmp|vg|steal]
 *           [--prefilter F] [--output out.ext]
 *           [--profile regions.csv] [--metrics-out m.prom|m.json]
 *           [--trace-out trace.json] [--summary-json summary.json]
 */
#include <cstdio>
#include <memory>

#include "fault/fault.h"
#include "giraffe/proxy.h"
#include "giraffe/run_summary.h"
#include "index/distance.h"
#include "io/extensions_io.h"
#include "io/file.h"
#include "io/mgz.h"
#include "io/reads_bin.h"
#include "obs/emitter.h"
#include "obs/hub.h"
#include "obs/trace.h"
#include "serve/stop.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

/** Per-site fault counters, appended to the final metrics snapshot (the
 *  set of armed sites is only known at end of run). */
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

/** Flight-recorder dump of one watchdog cancellation, naming the reads
 *  that were on the operating table when the stall was detected. */
void
printWatchdogEvent(const mg::sched::WatchdogEvent& event,
                   const std::function<std::string(uint64_t)>& read_name)
{
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

} // namespace

int
main(int argc, char** argv)
try {
    mg::util::Flags flags("minigiraffe");
    flags.define("threads", "1", "worker thread count")
         .define("batch-size", "512", "reads per scheduler batch")
         .define("cache-capacity", "256",
                 "initial CachedGBWT capacity (0 = no caching)")
         .define("scheduler", "openmp", "openmp | vg | steal")
         .define("prefilter", "0",
                 "skip seeds scoring below this fraction of the read's "
                 "best chain (0 = off; output is no longer golden)")
         .define("output", "", "write raw extensions to this file")
         .define("profile", "", "dump per-region timing records (CSV)")
         .define("fault", "",
                 "arm fault injection, e.g. 'sched.worker=throw,limit=2'")
         .define("deadline", "0",
                 "wall-clock budget in seconds (0 = unlimited)")
         .define("max-extend-steps", "0",
                 "per-read cap on extension walk states (0 = unlimited)")
         .define("max-gbwt-lookups", "0",
                 "per-read cap on GBWT lookups (0 = unlimited)")
         .define("watchdog", "false",
                 "supervise workers; stalled batches are cancelled")
         .define("watchdog-stall", "5.0",
                 "seconds without a heartbeat before a worker counts "
                 "as stalled")
         .define("metrics-out", "",
                 "write metrics here (.prom = Prometheus text, anything "
                 "else = JSON snapshot series)")
         .define("metrics-interval", "0",
                 "rewrite --metrics-out every N seconds (0 = final only)")
         .define("trace-out", "",
                 "write a Chrome trace-event JSON timeline (implies "
                 "region profiling)")
         .define("flight-ring", "16",
                 "flight-recorder entries per worker")
         .define("summary-json", "",
                 "write the machine-readable run summary here");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }
    if (flags.positional().size() != 2) {
        std::fprintf(stderr,
                     "usage: minigiraffe <graph.mgz> <seeds.bin> [flags]\n");
        return 1;
    }

    if (!flags.str("fault").empty()) {
        mg::fault::armFromText(flags.str("fault"));
    }
    // SIGTERM/SIGINT request a graceful stop: running batches finish,
    // results written so far still flush, and the exit code stays 0.
    mg::serve::installStopHandlers();

    // Unified load path: v1/v2 containers parse and build the indexes,
    // v3 containers mmap near-instantly (the seeds arrive precomputed in
    // the capture, but a v3 file carries the minimizer tables anyway).
    mg::io::IndexedPangenome pangenome =
        mg::io::loadPangenome(flags.positional()[0]);
    mg::io::SeedCapture capture =
        mg::io::loadSeedCapture(flags.positional()[1]);
    std::printf("pangenome: %zu nodes, %s load in %.3f s\n",
                pangenome.graph.numNodes(),
                mg::io::loadModeName(pangenome.info.mode),
                pangenome.info.loadSeconds);

    mg::giraffe::ProxyParams params;
    params.numThreads = flags.uinteger("threads");
    params.batchSize = flags.uinteger("batch-size");
    params.mapper.gbwtCacheCapacity = flags.uinteger("cache-capacity");
    params.scheduler = mg::sched::schedulerFromName(flags.str("scheduler"));
    params.mapper.prefilterFraction = flags.real("prefilter");
    params.budget.wallSeconds = flags.real("deadline");
    params.budget.maxExtendSteps = flags.uinteger("max-extend-steps");
    params.budget.maxGbwtLookups = flags.uinteger("max-gbwt-lookups");
    params.watchdog = flags.boolean("watchdog");
    params.watchdogParams.stallSeconds = flags.real("watchdog-stall");
    params.stopFlag = mg::serve::stopFlag();

    mg::giraffe::ProxyRunner proxy(pangenome.graph, pangenome.gbwt,
                                   pangenome.distance, params);
    mg::perf::Profiler profiler(!flags.str("profile").empty() ||
                                !flags.str("trace-out").empty());

    // Telemetry hub: live metrics + flight recorder.  Created whenever an
    // observability output was requested or the watchdog is on (so its
    // cancellation events carry flight-recorder context).
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

    mg::giraffe::ProxyOutputs outputs = proxy.run(
        capture, profiler.enabled() ? &profiler : nullptr, nullptr,
        hub.get());

    uint64_t total_extensions = 0;
    for (const mg::io::ReadExtensions& entry : outputs.extensions) {
        total_extensions += entry.extensions.size();
    }
    if (outputs.stopped) {
        std::printf("graceful stop: running batches finished, later ones "
                    "never started\n");
    }
    std::printf("miniGiraffe: mapped %llu reads -> %llu extensions in "
                "%.3f s (makespan)\n",
                static_cast<unsigned long long>(outputs.readsMapped),
                static_cast<unsigned long long>(total_extensions),
                outputs.wallSeconds);
    std::printf("scheduler=%s batch=%zu capacity=%zu threads=%zu\n",
                mg::sched::schedulerName(params.scheduler),
                params.batchSize, params.mapper.gbwtCacheCapacity,
                params.numThreads);
    std::printf("CachedGBWT: %.3f hit rate, %llu decodes, %llu rehashes\n",
                outputs.cacheStats.hitRate(),
                static_cast<unsigned long long>(outputs.cacheStats.decodes),
                static_cast<unsigned long long>(
                    outputs.cacheStats.rehashes));
    std::printf("resilience: %s\n", outputs.resilience.summary().c_str());
    auto read_name = [&](uint64_t index) -> std::string {
        return index < capture.entries.size()
                   ? capture.entries[index].read.name
                   : "?";
    };
    for (const mg::sched::WatchdogEvent& event : outputs.watchdogEvents) {
        printWatchdogEvent(event, read_name);
    }
    if (!outputs.failures.ok()) {
        std::printf("failures: %s\n", outputs.failures.summary().c_str());
        for (const mg::sched::ItemFailure& item :
             outputs.failures.poisoned) {
            std::printf("  quarantined read %zu (%s): %s\n", item.index,
                        capture.entries[item.index].read.name.c_str(),
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
                                  instants, "minigiraffe");
        std::printf("wrote %s\n", flags.str("trace-out").c_str());
    }
    if (!flags.str("summary-json").empty()) {
        pangenome.refreshResidency(); // post-run page-cache footprint
        mg::io::writeFileText(flags.str("summary-json"),
                              mg::giraffe::summaryJson(
                                  outputs, params, &pangenome.info));
        std::printf("wrote %s\n", flags.str("summary-json").c_str());
    }

    if (!flags.str("output").empty()) {
        mg::io::saveExtensions(flags.str("output"), outputs.extensions);
        std::printf("wrote %s\n", flags.str("output").c_str());
    }
    if (!flags.str("profile").empty()) {
        profiler.dumpCsv(flags.str("profile"));
        std::printf("wrote %s\n", flags.str("profile").c_str());
    }
    if (hub) {
        mg::obs::installCrashHandler(nullptr);
    }
    return 0;
} catch (const mg::util::Error& e) {
    std::fprintf(stderr, "minigiraffe: %s\n", e.what());
    return 1;
}
