/**
 * @file
 * mg_loadgen — open-loop Poisson load generator for mgd.  Replays reads
 * from an input-set analog as mapping requests at configured per-tenant
 * rates, retrying shed requests with the client's capped backoff (so the
 * tool doubles as a backpressure-contract demo), and reports per-tenant
 * throughput, shed/error counts, and response latency percentiles.
 *
 * Open-loop: arrival times are drawn up front from an exponential
 * inter-arrival distribution and do not slow down when the server does —
 * that is what makes overload visible.  Each tenant runs --connections
 * independent Poisson substreams (splitting the tenant rate), so up to
 * that many requests are in flight per tenant and a saturated daemon
 * sheds instead of being spared by a self-throttling sender; when the
 * schedule still outruns a connection, the late arrivals are counted
 * and reported, never silently dropped.
 *
 * With --swap-every N and --swap-path, a swapper thread issues a RELOAD
 * control frame every N seconds mid-run — hot-swap under sustained load —
 * and the report breaks latency/shed/retry counts down by the index
 * generation that answered each request.
 *
 * Run:  ./examples/mg_loadgen --socket /tmp/mgd.sock \
 *           [--tenants gold:200,free:100] [--duration 10] [--scale 0.05] \
 *           [--swap-every 2 --swap-path graph.mgz3]
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "serve/client.h"
#include "serve/stop.h"
#include "sim/input_sets.h"
#include "stats/latency.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

/** One tenant's traffic spec: name and request rate (per second). */
struct TenantLoad
{
    std::string name;
    double rate = 0.0;
};

/** Parse "gold:200,free:100" (rate defaults to 10/s when omitted). */
std::vector<TenantLoad>
parseLoadSpec(const std::string& spec)
{
    std::vector<TenantLoad> loads;
    size_t begin = 0;
    while (begin <= spec.size()) {
        size_t end = spec.find(',', begin);
        if (end == std::string::npos) {
            end = spec.size();
        }
        std::string part = spec.substr(begin, end - begin);
        begin = end + 1;
        if (part.empty()) {
            continue;
        }
        TenantLoad load;
        const size_t colon = part.find(':');
        if (colon == std::string::npos) {
            load.name = part;
            load.rate = 10.0;
        } else {
            load.name = part.substr(0, colon);
            load.rate = std::strtod(part.c_str() + colon + 1, nullptr);
        }
        mg::util::require(!load.name.empty() && load.rate > 0.0,
                          "bad tenant load spec: ", part);
        loads.push_back(std::move(load));
    }
    mg::util::require(!loads.empty(), "empty tenant load spec");
    return loads;
}

/** Per-index-generation slice of one tenant's traffic (hot-swap runs). */
struct GenerationStats
{
    mg::stats::LatencyHistogram latency;
    uint64_t ok = 0;
    uint64_t shed = 0;
    uint64_t deadlineShed = 0;
    uint64_t retries = 0;
};

/** What one tenant thread measured. */
struct TenantOutcome
{
    mg::serve::ClientStats client;
    mg::stats::LatencyHistogram latency;
    uint64_t mappedReads = 0;
    uint64_t degradedReads = 0;
    uint64_t arrivals = 0;
    uint64_t late = 0;
    /** Keyed by the generation tag the final response carried. */
    std::map<uint64_t, GenerationStats> perGeneration;
    /**
     * Per-stage breakdown of traced requests, from the trace echo on
     * each response: daemon queue wait, daemon mapping time, and the
     * remainder of the client-observed latency (wire + framing + any
     * retry backoff).  Reconciled against the daemon's own stage
     * histograms at end of run.
     */
    mg::stats::LatencyHistogram traceQueue;
    mg::stats::LatencyHistogram traceMap;
    mg::stats::LatencyHistogram traceOther;
};

/** Daemon-side stage summary pulled from a STATS snapshot for the
 *  reconciliation report ("client saw X, daemon attributes Y"). */
void
printDaemonStages(mg::serve::Client& client)
{
    mg::serve::Response response;
    mg::util::Status status = client.queryStats(response);
    if (!status.ok() ||
        response.status != mg::serve::ResponseStatus::StatsOk) {
        std::printf("daemon stages: unavailable (%s)\n",
                    status.ok()
                        ? mg::serve::responseStatusName(response.status)
                        : status.toString().c_str());
        return;
    }
    const mg::obs::json::Value snap =
        mg::obs::json::parse(response.message, "mgd stats");
    const mg::obs::json::Value* stages = snap.find("stages");
    if (stages == nullptr || !stages->isArray()) {
        return;
    }
    std::printf("daemon stage attribution (STATS snapshot):\n");
    for (const mg::obs::json::Value& stage : stages->items) {
        const mg::obs::json::Value* name = stage.find("stage");
        const mg::obs::json::Value* count = stage.find("count");
        const mg::obs::json::Value* mean = stage.find("mean_ns");
        const mg::obs::json::Value* p99 = stage.find("p99_ns");
        if (name == nullptr || count == nullptr ||
            count->asUint() == 0) {
            continue;
        }
        std::printf("  %-12s %8llu spans, mean %8.3f ms, p99 %8.3f ms\n",
                    name->text.c_str(),
                    static_cast<unsigned long long>(count->asUint()),
                    (mean != nullptr ? mean->number : 0.0) / 1e6,
                    (p99 != nullptr ? p99->number : 0.0) / 1e6);
    }
}

} // namespace

int
main(int argc, char** argv)
try {
    mg::util::Flags flags("mg_loadgen");
    flags.define("socket", "", "mgd socket path")
         .define("tenants", "default:50",
                 "per-tenant request rates 'name:rate,name2:rate' "
                 "(requests per second)")
         .define("duration", "5", "seconds of traffic per tenant")
         .define("input-set", "B-yeast",
                 "input-set analog supplying the replayed reads")
         .define("scale", "0.05", "input-set read-count scale")
         .define("reads-per-request", "8", "reads bundled per request")
         .define("deadline", "0",
                 "per-request wall budget in seconds (0 = unlimited)")
         .define("max-extend-steps", "0",
                 "per-read extension-step cap (0 = unlimited)")
         .define("max-gbwt-lookups", "0",
                 "per-read GBWT-lookup cap (0 = unlimited)")
         .define("max-attempts", "8", "attempts per request (1 + retries)")
         .define("connections", "4",
                 "concurrent connections per tenant (independent Poisson "
                 "substreams splitting the tenant rate)")
         .define("capture", "",
                 "capture frames to <prefix>-<tenant>.mgreq/.mgresp "
                 "for mg_verify")
         .define("swap-every", "0",
                 "issue a RELOAD control frame every N seconds mid-run "
                 "(0 = never); requires --swap-path")
         .define("swap-path", "",
                 "container the RELOAD frames name (the daemon hot-swaps "
                 "to this .mgz/.mgz3)")
         .define("trace-sample", "0",
                 "probability a request carries a client-minted trace "
                 "id; traced responses echo the daemon's queue/map "
                 "attribution for the per-stage breakdown")
         .define("seed", "1", "jitter/arrival RNG seed");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }
    if (flags.str("socket").empty()) {
        std::fprintf(stderr,
                     "usage: mg_loadgen --socket <path> [flags]\n");
        return 1;
    }
    mg::serve::installStopHandlers();

    const std::vector<TenantLoad> loads =
        parseLoadSpec(flags.str("tenants"));
    const double duration = flags.real("duration");
    const size_t per_request = flags.uinteger("reads-per-request");
    mg::util::require(per_request > 0, "--reads-per-request must be > 0");

    // The replayed reads: one input-set analog, shared by every tenant
    // (each cycles through it from a different offset).
    mg::sim::InputSet input = mg::sim::buildInputSet(
        mg::sim::inputSetSpec(flags.str("input-set")),
        flags.real("scale"));
    mg::util::require(input.reads.size() > 0, "input set produced 0 reads");
    std::printf("mg_loadgen: %s x%.3g -> %zu reads, %zu tenants, %.1f s\n",
                input.name.c_str(), flags.real("scale"),
                input.reads.size(), loads.size(), duration);

    mg::resilience::WorkBudget budget;
    budget.wallSeconds = flags.real("deadline");
    budget.maxExtendSteps = flags.uinteger("max-extend-steps");
    budget.maxGbwtLookups = flags.uinteger("max-gbwt-lookups");

    const size_t connections = static_cast<size_t>(
        std::max<long long>(1, flags.integer("connections")));
    std::vector<TenantOutcome> outcomes(loads.size() * connections);
    std::vector<std::thread> threads;
    threads.reserve(outcomes.size());
    for (size_t t = 0; t < loads.size(); ++t) {
      for (size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, t, c] {
            const TenantLoad& load = loads[t];
            const size_t slot = t * connections + c;
            TenantOutcome& outcome = outcomes[slot];
            // Superposition: N independent Poisson streams at rate/N
            // offer the tenant's full rate with up to N in flight.
            const double rate = load.rate / static_cast<double>(connections);
            mg::serve::ClientParams cparams;
            cparams.socketPath = flags.str("socket");
            cparams.maxAttempts =
                static_cast<uint32_t>(flags.uinteger("max-attempts"));
            cparams.seed = flags.uinteger("seed") + slot;
            cparams.traceSample = flags.real("trace-sample");
            if (!flags.str("capture").empty()) {
                cparams.capturePrefix =
                    flags.str("capture") + "-" + load.name;
                if (connections > 1) {
                    cparams.capturePrefix += "-c" + std::to_string(c);
                }
            }
            mg::serve::Client client(cparams);
            mg::util::Rng rng(cparams.seed * 7919 + 17);

            // Open-loop arrivals: exponential gaps at this stream's rate.
            mg::util::WallTimer clock;
            double next_arrival = 0.0;
            size_t cursor = slot * 131; // desynchronize read cycles
            while (clock.seconds() < duration &&
                   !mg::serve::stopRequested()) {
                const double u = rng.uniformReal();
                next_arrival += -std::log(1.0 - u) / rate;
                const double now = clock.seconds();
                if (next_arrival > duration) {
                    break;
                }
                if (now < next_arrival) {
                    std::this_thread::sleep_for(std::chrono::duration<double>(
                        next_arrival - now));
                } else {
                    ++outcome.late; // schedule outran the in-flight slot
                }
                ++outcome.arrivals;
                std::vector<mg::map::Read> reads;
                reads.reserve(per_request);
                for (size_t i = 0; i < per_request; ++i) {
                    reads.push_back(
                        input.reads.reads[cursor % input.reads.size()]);
                    ++cursor;
                }
                mg::serve::Response response;
                const mg::serve::ClientStats before = client.stats();
                mg::util::WallTimer rt;
                mg::util::Status status =
                    client.mapReads(load.name, reads, budget, response);
                if (status.ok() &&
                    response.status == mg::serve::ResponseStatus::Ok) {
                    const uint64_t total = rt.nanos();
                    outcome.latency.record(total);
                    outcome.mappedReads += response.mappedReads;
                    outcome.degradedReads += response.degradedReads;
                    if (response.traceId != 0) {
                        // Trace echo: split the client-observed latency
                        // into the daemon's queue wait, its mapping
                        // time, and everything else (wire + backoff).
                        const uint64_t attributed =
                            response.queueNanos + response.mapNanos;
                        outcome.traceQueue.record(response.queueNanos);
                        outcome.traceMap.record(response.mapNanos);
                        outcome.traceOther.record(
                            total > attributed ? total - attributed : 0);
                    }
                }
                if (status.ok()) {
                    // Attribute the call to the generation tag on its
                    // final response; the stats delta folds in any
                    // sheds/retries the call absorbed along the way.
                    const mg::serve::ClientStats& after = client.stats();
                    GenerationStats& gen =
                        outcome.perGeneration[response.generation];
                    if (response.status ==
                        mg::serve::ResponseStatus::Ok) {
                        ++gen.ok;
                        gen.latency.record(rt.nanos());
                    }
                    gen.shed += after.shed - before.shed;
                    gen.deadlineShed +=
                        after.deadlineShed - before.deadlineShed;
                    gen.retries += after.retries - before.retries;
                }
            }
            outcome.client = client.stats();
        });
      }
    }
    // Optional swapper: one RELOAD control frame every --swap-every
    // seconds, exercising the daemon's hot-swap path under the load
    // the tenant threads are offering.
    const double swap_every = flags.real("swap-every");
    const std::string swap_path = flags.str("swap-path");
    mg::util::require(swap_every <= 0.0 || !swap_path.empty(),
                      "--swap-every requires --swap-path");
    uint64_t swaps_ok = 0;
    uint64_t swaps_rejected = 0;
    std::thread swapper;
    if (swap_every > 0.0) {
        swapper = std::thread([&] {
            mg::serve::ClientParams cparams;
            cparams.socketPath = flags.str("socket");
            cparams.seed = flags.uinteger("seed");
            mg::serve::Client client(cparams);
            mg::util::WallTimer clock;
            double next_swap = swap_every;
            while (clock.seconds() < duration &&
                   !mg::serve::stopRequested()) {
                const double now = clock.seconds();
                if (now < next_swap) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(
                            std::min(next_swap - now, 0.05)));
                    continue;
                }
                next_swap += swap_every;
                mg::serve::Response response;
                mg::util::Status status =
                    client.reload(swap_path, response);
                if (status.ok() &&
                    response.status ==
                        mg::serve::ResponseStatus::ReloadOk) {
                    ++swaps_ok;
                    std::printf("swap: generation %llu published "
                                "(t=%.1f s)\n",
                                static_cast<unsigned long long>(
                                    response.generation),
                                clock.seconds());
                } else {
                    ++swaps_rejected;
                    std::printf("swap: REJECTED (%s, t=%.1f s)\n",
                                status.ok() ? response.message.c_str()
                                            : status.toString().c_str(),
                                clock.seconds());
                }
                std::fflush(stdout);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    if (swapper.joinable()) {
        swapper.join();
    }

    bool any_ok = false;
    for (size_t t = 0; t < loads.size(); ++t) {
        const TenantLoad& load = loads[t];
        // Fold the tenant's per-connection substreams into one report.
        TenantOutcome o;
        for (size_t c = 0; c < connections; ++c) {
            const TenantOutcome& part = outcomes[t * connections + c];
            o.client.sent += part.client.sent;
            o.client.ok += part.client.ok;
            o.client.shed += part.client.shed;
            o.client.shuttingDown += part.client.shuttingDown;
            o.client.errors += part.client.errors;
            o.client.reconnects += part.client.reconnects;
            o.client.retries += part.client.retries;
            o.client.exhausted += part.client.exhausted;
            o.client.deadlineShed += part.client.deadlineShed;
            o.client.traced += part.client.traced;
            o.latency.merge(part.latency);
            o.traceQueue.merge(part.traceQueue);
            o.traceMap.merge(part.traceMap);
            o.traceOther.merge(part.traceOther);
            o.mappedReads += part.mappedReads;
            o.degradedReads += part.degradedReads;
            o.arrivals += part.arrivals;
            o.late += part.late;
            for (const auto& [generation, stats] : part.perGeneration) {
                GenerationStats& gen = o.perGeneration[generation];
                gen.ok += stats.ok;
                gen.shed += stats.shed;
                gen.deadlineShed += stats.deadlineShed;
                gen.retries += stats.retries;
                gen.latency.merge(stats.latency);
            }
        }
        any_ok = any_ok || o.client.ok > 0;
        std::printf(
            "tenant %-10s rate %.0f/s: %llu arrivals (%llu late), "
            "%llu sent, %llu ok, %llu shed, %llu shutting-down, "
            "%llu errors, %llu retries, %llu exhausted, %llu reconnects\n",
            load.name.c_str(), load.rate,
            static_cast<unsigned long long>(o.arrivals),
            static_cast<unsigned long long>(o.late),
            static_cast<unsigned long long>(o.client.sent),
            static_cast<unsigned long long>(o.client.ok),
            static_cast<unsigned long long>(o.client.shed),
            static_cast<unsigned long long>(o.client.shuttingDown),
            static_cast<unsigned long long>(o.client.errors),
            static_cast<unsigned long long>(o.client.retries),
            static_cast<unsigned long long>(o.client.exhausted),
            static_cast<unsigned long long>(o.client.reconnects));
        std::printf(
            "  %llu reads mapped (%llu degraded); latency p50 %.2f ms, "
            "p99 %.2f ms, mean %.2f ms over %llu ok responses\n",
            static_cast<unsigned long long>(o.mappedReads),
            static_cast<unsigned long long>(o.degradedReads),
            o.latency.p50() / 1e6, o.latency.p99() / 1e6,
            o.latency.meanNanos() / 1e6,
            static_cast<unsigned long long>(o.latency.count()));
        if (o.traceQueue.count() > 0) {
            std::printf(
                "  traced breakdown (%llu tagged, %llu echoed): "
                "queue p50 %.2f / p99 %.2f ms, map p50 %.2f / p99 %.2f "
                "ms, other p50 %.2f / p99 %.2f ms\n",
                static_cast<unsigned long long>(o.client.traced),
                static_cast<unsigned long long>(o.traceQueue.count()),
                o.traceQueue.p50() / 1e6, o.traceQueue.p99() / 1e6,
                o.traceMap.p50() / 1e6, o.traceMap.p99() / 1e6,
                o.traceOther.p50() / 1e6, o.traceOther.p99() / 1e6);
        }
        if (o.perGeneration.size() > 1 || swap_every > 0.0) {
            for (const auto& [generation, gen] : o.perGeneration) {
                std::printf(
                    "  gen %-4llu: %llu ok, %llu shed, %llu deadline-shed, "
                    "%llu retries; p50 %.2f ms, p99 %.2f ms\n",
                    static_cast<unsigned long long>(generation),
                    static_cast<unsigned long long>(gen.ok),
                    static_cast<unsigned long long>(gen.shed),
                    static_cast<unsigned long long>(gen.deadlineShed),
                    static_cast<unsigned long long>(gen.retries),
                    gen.latency.p50() / 1e6, gen.latency.p99() / 1e6);
            }
        }
    }
    if (swap_every > 0.0) {
        std::printf("swaps: %llu published, %llu rejected\n",
                    static_cast<unsigned long long>(swaps_ok),
                    static_cast<unsigned long long>(swaps_rejected));
    }
    if (flags.real("trace-sample") > 0.0) {
        // Reconcile the client-side breakdown against the daemon's own
        // stage histograms: queue/map above should track QueueWait and
        // Seed+Cluster+Extend+GafEmit here.
        mg::serve::ClientParams cparams;
        cparams.socketPath = flags.str("socket");
        mg::serve::Client stats_client(cparams);
        printDaemonStages(stats_client);
    }
    if (!flags.str("capture").empty()) {
        std::printf("captures at %s-<tenant>.mgreq/.mgresp (validate "
                    "with mg_verify)\n",
                    flags.str("capture").c_str());
    }
    return any_ok ? 0 : 1;
} catch (const mg::util::Error& e) {
    std::fprintf(stderr, "mg_loadgen: %s\n", e.what());
    return 1;
}
