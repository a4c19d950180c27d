// yeast-serve: an in-process serve::Daemon over the B-yeast index, driven
// open loop by two tenants on one admission queue.  `interactive` sends
// small requests at a fixed rate, `bulk` sends large ones beside it.  The
// untraced run measures the fixed load for the whole timed phase.  The
// traced run splits it: an untraced fixed-load phase for the latency
// percentiles, a phase whose requests carry trace ids (the daemon echoes
// queue and map time), and a ladder that steps the interactive rate up to
// find the highest rate that meets the latency limit.  Every Ok response's
// GAF is checked against a direct MapSession::map of the same reads, and
// that pass over the fixed load is the 1-thread rate.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "giraffe/session.h"
#include "harness.h"
#include "io/fastq.h"
#include "io/gaf.h"
#include "io/mgz.h"
#include "loadgen.h"
#include "replay.h"
#include "serve/daemon.h"
#include "util/common.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

namespace {

constexpr int kSetups = 9;
constexpr uint32_t kInteractive = 0;
constexpr uint32_t kBulk = 1;
constexpr size_t kInteractiveReads = 4;
constexpr size_t kBulkReads = 256;
/** Fixed offered load (requests per second). */
constexpr double kInteractiveRate = 400.0;
constexpr double kBulkRate = 12.0;
/** Interactive rates of the capacity ladder (requests per second). */
constexpr double kLadder[] = {2000, 4000, 6000, 8000,
                              10000, 12000, 14000, 16000};
constexpr size_t kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
/** A send more than this late counts in loadgen.late_share. */
constexpr double kLateMs = 1.0;
constexpr double kDrainSeconds = 5.0;
/** Latency charged to a failed request: beyond any limit, but finite. */
constexpr double kFailedLatencyMs = 1e6;

/** One open-loop phase: its requests, their schedule and outcomes. */
struct Phase
{
    std::vector<mg::serve::Request> requests;
    std::vector<Arrival> arrivals;
    LoadResult result;
    double seconds = 0.0;
    double cpuSeconds = 0.0;
    /** Reads in Ok responses, and the time from start to the last one. */
    uint64_t servedReads = 0;
    double servedSeconds = 0.0;
};

/**
 * Seeded arrivals of both tenants over [0, seconds): rate x seconds
 * arrivals per tenant at uniformly random times (a Poisson process given
 * its count, so every seed offers the same load), reads taken in order
 * from the read set.
 */
Phase
makePhase(double seconds, double interactiveRate, double bulkRate,
          bool traced, const std::vector<mg::map::Read>& reads,
          mg::util::Rng& rng, size_t& cursor)
{
    struct Due
    {
        double at;
        uint32_t tenant;
    };
    std::vector<Due> due;
    for (uint32_t tenant : {kInteractive, kBulk}) {
        const double rate = tenant == kInteractive ? interactiveRate : bulkRate;
        const size_t n = std::max<size_t>(
            1, static_cast<size_t>(std::llround(rate * seconds)));
        for (size_t i = 0; i < n; ++i) {
            due.push_back(Due{rng.uniformReal() * seconds, tenant});
        }
    }
    std::sort(due.begin(), due.end(),
              [](const Due& a, const Due& b) { return a.at < b.at; });

    Phase phase;
    phase.seconds = seconds;
    for (size_t i = 0; i < due.size(); ++i) {
        mg::serve::Request request;
        request.id = i + 1;
        request.tenant = due[i].tenant == kInteractive ? "interactive" : "bulk";
        const size_t n =
            due[i].tenant == kInteractive ? kInteractiveReads : kBulkReads;
        for (size_t r = 0; r < n; ++r) {
            request.reads.push_back(reads[cursor]);
            cursor = (cursor + 1) % reads.size();
        }
        // Tagged requests echo their queue wait and map time.
        request.traceId = traced ? i + 1 : 0;
        Arrival arrival;
        arrival.atNanos = static_cast<uint64_t>(due[i].at * 1e9);
        arrival.connection = due[i].tenant;
        arrival.reads = static_cast<uint32_t>(n);
        arrival.frame =
            mg::serve::frameBytes(mg::serve::encodeRequest(request));
        phase.arrivals.push_back(std::move(arrival));
        phase.requests.push_back(std::move(request));
    }
    return phase;
}

void
runPhase(const std::string& socket, Phase& phase)
{
    const double cpu0 = processCpuSeconds();
    phase.result = runOpenLoop(socket, 2, phase.arrivals, kDrainSeconds);
    // The daemon's share: the generator's own threads are left out.
    phase.cpuSeconds = processCpuSeconds() - cpu0 -
                       phase.result.generatorCpuSeconds;
    uint64_t last = phase.result.startNanos;
    for (size_t i = 0; i < phase.arrivals.size(); ++i) {
        const Outcome& o = phase.result.outcomes[i];
        if (o.ok()) {
            phase.servedReads += phase.arrivals[i].reads;
            last = std::max(last, o.received);
        }
    }
    phase.servedSeconds =
        static_cast<double>(last - phase.result.startNanos) * 1e-9;
}

/** Consecutive phases as one (request ids restart in every part). */
Phase
concat(std::vector<Phase>&& parts)
{
    Phase all;
    for (Phase& p : parts) {
        std::move(p.requests.begin(), p.requests.end(),
                  std::back_inserter(all.requests));
        std::move(p.arrivals.begin(), p.arrivals.end(),
                  std::back_inserter(all.arrivals));
        std::move(p.result.outcomes.begin(), p.result.outcomes.end(),
                  std::back_inserter(all.result.outcomes));
        all.seconds += p.seconds;
        all.cpuSeconds += p.cpuSeconds;
        all.servedReads += p.servedReads;
        all.servedSeconds += p.servedSeconds;
    }
    return all;
}

/** Client-side tallies of one or more phases. */
struct Tally
{
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t shed = 0;
    uint64_t deadlineShed = 0;
    uint64_t errors = 0;
    uint64_t shuttingDown = 0;
    uint64_t lost = 0;
    uint64_t sendErrors = 0;
    uint64_t stray = 0;

    void
    add(const LoadResult& run)
    {
        for (const Outcome& o : run.outcomes) {
            if (o.sent == 0) {
                continue;
            }
            ++sent;
            if (o.received == 0) {
                continue;
            }
            switch (o.response.status) {
              case mg::serve::ResponseStatus::Ok: ++ok; break;
              case mg::serve::ResponseStatus::RetryAfter: ++shed; break;
              case mg::serve::ResponseStatus::DeadlineShed:
                ++deadlineShed;
                break;
              case mg::serve::ResponseStatus::ShuttingDown:
                ++shuttingDown;
                break;
              default: ++errors; break;
            }
        }
        lost += run.lost;
        sendErrors += run.sendErrors;
        stray += run.strayResponses;
    }

    /** Error, shed, refused and unanswered requests. */
    uint64_t failed() const { return sent - ok + sendErrors; }
};

/** Latencies (ms from schedule) of one tenant; a failure counts as
 *  kFailedLatencyMs. */
std::vector<double>
latencies(const Phase& phase, uint32_t connection)
{
    std::vector<double> out;
    for (size_t i = 0; i < phase.arrivals.size(); ++i) {
        if (phase.arrivals[i].connection == connection) {
            const Outcome& o = phase.result.outcomes[i];
            out.push_back(o.ok() ? o.latencyMs() : kFailedLatencyMs);
        }
    }
    return out;
}

double
tail(const std::vector<double>& values)
{
    return quantile(values, tailQuantileLevel(values.size()));
}

/** One rung of the ladder. */
struct Rung
{
    double offered = 0.0;
    /** Interactive Ok responses per second. */
    double achieved = 0.0;
    double p99 = 0.0;
    bool failures = false;
    bool growing = false;
    bool pass = false;
};

Rung
judgeRung(const Phase& phase, double offered, double limitMs)
{
    const LoadResult& r = phase.result;
    Tally t;
    t.add(r);
    // Backlog: requests unanswered at the rung's end must not exceed those
    // unanswered at its midpoint by more than a few.
    auto backlog = [&](uint64_t at) {
        uint64_t n = 0;
        for (const Outcome& o : r.outcomes) {
            n += o.scheduled <= at && (o.received == 0 || o.received > at);
        }
        return n;
    };
    const uint64_t span = static_cast<uint64_t>(phase.seconds * 1e9);
    Rung rung;
    rung.offered = offered;
    rung.p99 = tail(latencies(phase, kInteractive));
    uint64_t ok = 0;
    for (size_t i = 0; i < phase.arrivals.size(); ++i) {
        ok += phase.arrivals[i].connection == kInteractive &&
              r.outcomes[i].ok();
    }
    rung.achieved = static_cast<double>(ok) / phase.seconds;
    rung.failures = t.failed() != 0;
    rung.growing =
        backlog(r.startNanos + span) > backlog(r.startNanos + span / 2) + 8;
    rung.pass = !rung.failures && !rung.growing && rung.p99 <= limitMs;
    return rung;
}

/**
 * The highest interactive rate meeting the limit: the last passing rung's
 * achieved rate, interpolated towards the first failing rung when that
 * one failed on latency alone.
 */
double
rateAtSlo(const std::vector<Rung>& rungs, double limitMs)
{
    double rate = 0.0;
    for (size_t i = 0; i < rungs.size(); ++i) {
        if (rungs[i].pass) {
            rate = rungs[i].achieved;
            continue;
        }
        if (i > 0 && !rungs[i].failures && !rungs[i].growing &&
            rungs[i].p99 > rungs[i - 1].p99) {
            const double f = (limitMs - rungs[i - 1].p99) /
                             (rungs[i].p99 - rungs[i - 1].p99);
            rate += f * (rungs[i].achieved - rungs[i - 1].achieved);
        }
        break;
    }
    return rate;
}

} // namespace

void
runYeastServe(const Options& options, Record& record)
{
    const std::vector<mg::map::Read> reads =
        mg::io::loadFastq(options.dir + "/reads.fastq").reads;
    const std::string index_path = options.dir + "/pangenome.mgz3";

    mg::serve::DaemonParams params;
    // One core stays with the load generator.
    params.workers = std::max<size_t>(1, options.nproc - 1);
    params.queueCapacity = 256;
    // Bulk may hold all but one worker, so interactive always has one.
    params.tenants = {
        mg::serve::TenantConfig{"interactive", 4, 0, 0},
        mg::serve::TenantConfig{"bulk", 1,
                                std::max<size_t>(1, params.workers - 1), 0},
    };

    // Set-up: load the container, construct and start the daemon.
    std::vector<double> setup_total;
    std::vector<double> setup_load;
    std::vector<double> setup_faults;
    std::unique_ptr<mg::serve::Daemon> daemon;
    for (int i = 0; i < kSetups; ++i) {
        if (daemon) {
            daemon->stop();
            daemon.reset();
        }
        FaultMeter faults;
        params.socketPath = "mgd-" + std::to_string(i) + ".sock";
        mg::util::WallTimer timer;
        mg::io::IndexedPangenome pg = mg::io::loadPangenome(index_path);
        setup_load.push_back(timer.seconds());
        daemon = std::make_unique<mg::serve::Daemon>(std::move(pg),
                                                     index_path, params);
        daemon->start();
        setup_total.push_back(timer.seconds());
        setup_faults.push_back(faults.read());
    }
    const double rss_after_setup = currentRssMb();
    const std::string socket = params.socketPath;

    // The reference for every Ok response: MapSession::map on one thread
    // over its own mapping of the same container.
    mg::io::IndexedPangenome pg = mg::io::loadPangenome(index_path);
    mg::giraffe::MapSession session(pg.graph, pg.gbwt, pg.minimizers,
                                    pg.distance, mg::giraffe::SessionParams{});
    session.warmup();
    uint64_t checked = 0;
    uint64_t wrong = 0;
    // Checks a phase; returns the reads per second of the direct pass.
    auto verify = [&](const Phase& phase) {
        uint64_t reads = 0;
        mg::util::WallTimer timer;
        for (size_t i = 0; i < phase.requests.size(); ++i) {
            const Outcome& o = phase.result.outcomes[i];
            if (o.ok()) {
                reads += phase.requests[i].reads.size();
                ++checked;
                wrong += session.map(0, phase.requests[i].reads, {}).gaf !=
                         o.response.gaf;
            }
        }
        return static_cast<double>(reads) / timer.seconds();
    };

    mg::util::Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 17);
    size_t cursor = 0;
    Tally tally;

    // Untraced fixed load (the whole timed phase, or its first 35% when
    // traced) in segments.  The direct pass over each segment's requests
    // runs right after it, so the 1-thread rate samples the host over the
    // whole run like the serving does.
    const size_t segments = options.trace ? 4 : 15;
    const double segment_seconds =
        options.seconds * (options.trace ? 0.35 : 1.0) / segments;
    std::vector<Phase> parts;
    std::vector<double> direct_rates;
    std::vector<double> cpu_per_kread;
    for (size_t i = 0; i < segments; ++i) {
        parts.push_back(makePhase(segment_seconds, kInteractiveRate,
                                  kBulkRate, false, reads, rng, cursor));
        Phase& part = parts.back();
        runPhase(socket, part);
        tally.add(part.result);
        direct_rates.push_back(verify(part));
        cpu_per_kread.push_back(part.cpuSeconds * 1e6 /
                                static_cast<double>(part.servedReads));
        if (!options.trace) {
            // Checked; only the traced replay needs the reads and GAF
            // again.  Keeps the generator's memory out of peak_rss_mb.
            std::vector<mg::serve::Request>().swap(part.requests);
            for (Outcome& o : part.result.outcomes) {
                std::string().swap(o.response.gaf);
            }
            for (Arrival& a : part.arrivals) {
                std::vector<uint8_t>().swap(a.frame);
            }
        }
    }
    Phase fixed = concat(std::move(parts));

    Phase traced;
    std::vector<Rung> rungs;
    if (options.trace) {
        traced = makePhase(options.seconds * 0.25, kInteractiveRate,
                           kBulkRate, true, reads, rng, cursor);
        runPhase(socket, traced);
        tally.add(traced.result);
        verify(traced);
    }
    // failed_share covers the fixed-load phases; ladder rungs past the
    // limit are expected to fail and only end the ladder.
    record.count(tally.sent + tally.sendErrors, tally.failed());
    if (options.trace) {
        // Capacity ladder: each rung is its own open-loop phase at a higher
        // interactive rate (bulk unchanged); it stops at the first miss.
        for (double rate : kLadder) {
            Phase rung = makePhase(options.seconds * 0.4 / kRungs, rate,
                                   kBulkRate, false, reads, rng, cursor);
            runPhase(socket, rung);
            tally.add(rung.result);
            verify(rung);
            rungs.push_back(judgeRung(rung, rate, options.sloP99Ms));
            if (!rungs.back().pass) {
                break;
            }
        }
    }
    const double peak_rss = peakRssMb();

    daemon->stop();
    const mg::serve::DaemonReport report = daemon->report();
    daemon.reset();
    const bool reconciled =
        report.badFrames == 0 && report.completed == tally.ok &&
        report.accepted == report.completed + report.errors &&
        report.shed == tally.shed &&
        report.deadlineShed == tally.deadlineShed &&
        tally.sent == tally.ok + tally.shed + tally.deadlineShed +
                          tally.errors + tally.shuttingDown + tally.lost &&
        tally.stray == 0;
    record.check(
        "client counts == DaemonReport", reconciled,
        mg::util::cat("sent ", tally.sent, " ok ", tally.ok, " shed ",
                      tally.shed, " lost ", tally.lost, " | daemon accepted ",
                      report.accepted, " completed ", report.completed,
                      " shed ", report.shed, " errors ", report.errors,
                      " bad_frames ", report.badFrames));
    record.check("served GAF == MapSession::map", wrong == 0 && checked > 0,
                 std::to_string(wrong) + " of " + std::to_string(checked) +
                     " Ok responses differ");

    const double served = static_cast<double>(fixed.servedReads);
    record.setMedian("setup_s", setup_total, "s",
                     "median of set-ups (load + Daemon::start)");
    record.set("reads_per_s", served / fixed.servedSeconds, "1/s",
               fixed.servedReads, "reads served, both tenants, fixed load");
    record.setMedian("reads_per_s_1t", direct_rates, "1/s",
                     "same requests via MapSession::map, 1 thread; median "
                     "over segments");
    record.setMedian("cpu_ms_per_kread", std::move(cpu_per_kread), "ms",
                     "process user+sys minus the generator's, per 1000 "
                     "reads served; median over segments");
    record.set("peak_rss_mb", peak_rss, "MB", 1,
               "ru_maxrss after the timed phase");

    std::vector<double> late;
    uint64_t late_count = 0;
    for (const Outcome& o : fixed.result.outcomes) {
        if (o.sent != 0) {
            late.push_back(o.lateMs());
            late_count += o.lateMs() > kLateMs;
        }
    }
    record.set("loadgen.late_share",
               late.empty() ? 0.0
                            : static_cast<double>(late_count) /
                                  static_cast<double>(late.size()),
               "ratio", late.size(), "sends more than 1 ms late");
    record.set("loadgen.late_p99_ms", tail(late), "ms", late.size(),
               tailLabel(late.size()) + " of send - scheduled");
    if (late_count * 100 > late.size()) {
        record.invalid("generator sent over 1% of requests late");
    }
    if (!options.trace) {
        return;
    }

    const std::vector<double> interactive = latencies(fixed, kInteractive);
    const std::vector<double> bulk = latencies(fixed, kBulk);
    record.set("req_p50_ms", median(interactive), "ms", interactive.size(),
               "interactive, from scheduled arrival");
    record.set("req_p99_ms", tail(interactive), "ms", interactive.size(),
               "interactive " + tailLabel(interactive.size()) +
                   ", from scheduled arrival");
    record.set("bulk_p99_ms", tail(bulk), "ms", bulk.size(),
               "bulk " + tailLabel(bulk.size()) +
                   ", from scheduled arrival");
    std::string ladder_note = mg::util::cat("limit ", options.sloP99Ms,
                                            " ms;");
    for (const Rung& rung : rungs) {
        ladder_note += mg::util::cat(" ", rung.offered, ":",
                                     rung.pass ? "ok" : "miss", "(p99 ",
                                     rung.p99, ")");
    }
    record.set("rps_at_slo", rateAtSlo(rungs, options.sloP99Ms), "1/s",
               rungs.size(), ladder_note);

    record.set("io.load_s", median(setup_load), "s", setup_load.size(),
               "io::loadPangenome");
    record.set("io.setup_page_faults", median(setup_faults), "count",
               setup_faults.size(), "page faults per set-up");
    record.set("mem.rss_after_setup_mb", rss_after_setup, "MB", 1);
    record.notRun("io.capture_load_s", "s", "requests carry reads");
    record.notRun("io.fastq_ns_per_read", "ns", "requests carry reads");
    const char* no_sched = "requests are mapped whole by one daemon worker";
    record.notRun("sched.efficiency", "ratio", no_sched);
    record.notRun("sched.read_p50_us", "us", no_sched);
    record.notRun("sched.read_p99_us", "us", no_sched);
    record.set("serve.shed",
               static_cast<double>(report.shed + report.deadlineShed +
                                   report.drainShed),
               "count", tally.sent, "DaemonReport");
    record.set("serve.bad_frames", static_cast<double>(report.badFrames),
               "count", tally.sent, "DaemonReport");
    record.set("serve.accepted", static_cast<double>(report.accepted),
               "count", tally.sent, "DaemonReport");

    // Daemon-side split of the tagged interactive requests.
    std::vector<double> queue_ms;
    std::vector<double> map_ms;
    std::vector<double> other_ms;
    for (size_t i = 0; i < traced.arrivals.size(); ++i) {
        const Outcome& o = traced.result.outcomes[i];
        if (traced.arrivals[i].connection != kInteractive || !o.ok() ||
            o.response.traceId == 0) {
            continue;
        }
        const double q = static_cast<double>(o.response.queueNanos) * 1e-6;
        const double m = static_cast<double>(o.response.mapNanos) * 1e-6;
        queue_ms.push_back(q);
        map_ms.push_back(m);
        other_ms.push_back(static_cast<double>(o.received - o.sent) * 1e-6 -
                           q - m);
    }
    record.set("serve.queue_p99_ms", tail(queue_ms), "ms", queue_ms.size(),
               tailLabel(queue_ms.size()) + " of Response.queueNanos");
    record.set("serve.map_p99_ms", tail(map_ms), "ms", map_ms.size(),
               tailLabel(map_ms.size()) + " of Response.mapNanos");
    record.set("serve.other_p50_ms", median(other_ms), "ms", other_ms.size(),
               "client latency from send - queue - map");

    // Codec cost of an interactive request and of its response.
    size_t sample = 0;
    while (fixed.arrivals[sample].connection != kInteractive ||
           !fixed.result.outcomes[sample].ok()) {
        ++sample;
    }
    const mg::serve::Request& request = fixed.requests[sample];
    const std::vector<uint8_t> reply_bytes =
        mg::serve::encodeResponse(fixed.result.outcomes[sample].response);
    constexpr int kIters = 2000;
    std::vector<double> encode_ns;
    std::vector<double> decode_ns;
    size_t bytes = 0;
    for (int rep = 0; rep < 21; ++rep) {
        mg::util::WallTimer t;
        for (int k = 0; k < kIters; ++k) {
            bytes += mg::serve::encodeRequest(request).size();
        }
        encode_ns.push_back(static_cast<double>(t.nanos()) / kIters);
        t.reset();
        mg::serve::Response decoded;
        for (int k = 0; k < kIters; ++k) {
            bytes += mg::serve::decodeResponse(reply_bytes, decoded).ok();
        }
        decode_ns.push_back(static_cast<double>(t.nanos()) / kIters);
    }
    mg::util::require(bytes > 0, "codec produced nothing");
    record.set("serve.encode_ns", median(encode_ns), "ns",
               encode_ns.size() * kIters, "serve::encodeRequest, interactive");
    record.set("serve.decode_ns", median(decode_ns), "ns",
               decode_ns.size() * kIters,
               "serve::decodeResponse, interactive");

    // Traced replay of the fixed phase's served reads on one thread.
    std::vector<mg::map::Read> replay_reads;
    std::string served_gaf;
    for (size_t i = 0; i < fixed.requests.size(); ++i) {
        if (fixed.result.outcomes[i].ok()) {
            replay_reads.insert(replay_reads.end(),
                                fixed.requests[i].reads.begin(),
                                fixed.requests[i].reads.end());
            served_gaf += fixed.result.outcomes[i].response.gaf;
        }
    }
    mg::map::Mapper mapper(pg.graph, pg.gbwt, pg.minimizers, pg.distance,
                           session.params().mapper);
    SpanLog log(replay_reads.size() * 5 + 2);
    ReplayRoot root(log);
    ReplayResult replay =
        replayReads(mapper, pg.minimizers, pg.distance, replay_reads,
                    session.params().post, log, root.index());
    std::string gaf;
    {
        SpanScope span(log, "io.formatGafLine", root.index(), 0);
        for (size_t i = 0; i < replay.alignments.size(); ++i) {
            gaf += mg::io::formatGafLine(replay.alignments[i],
                                         replay_reads[i], pg.graph);
            gaf += '\n';
        }
    }
    root.end();
    record.check("traced replay == served GAF", gaf == served_gaf,
                 std::to_string(replay_reads.size()) + " reads");
    record.set("io.gaf_ns_per_read",
               static_cast<double>(log.total("io.formatGafLine")) /
                   static_cast<double>(replay_reads.size()),
               "ns", replay_reads.size(), "io::formatGafLine span");
    uint64_t decodes = 0;
    const double decode_cost =
        timeRecordDecode(pg.gbwt, options.seed, &decodes);
    recordLayers(record, log, replay.counts, decode_cost, decodes, true,
                 true);
    // Tracing cost in the daemon: reads served per CPU-second with every
    // request tagged, against the untraced fixed-load phase.
    const double traced_per_cpu =
        static_cast<double>(traced.servedReads) / traced.cpuSeconds;
    recordTraceQuality(record, log, root,
                       1.0 - traced_per_cpu / (served / fixed.cpuSeconds),
                       traced.servedReads + fixed.servedReads,
                       "1 - traced / untraced reads per CPU-second served");
    log.write(options.dir + "/spans.csv");
}

} // namespace perfbench
