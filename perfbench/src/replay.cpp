#include "replay.h"

#include <algorithm>

#include "gbwt/record.h"
#include "map/cluster.h"
#include "map/seeding.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {

namespace {

/** Map one read from its seeds, with the cluster span timed alongside. */
mg::map::MapResult
traceCritical(const mg::map::Mapper& mapper,
              const mg::index::DistanceIndex& distance,
              const mg::map::Read& read, const mg::map::SeedVector& seeds,
              mg::map::MapperState& state,
              std::vector<mg::map::Cluster>& clusters, LayerCounts& counts,
              SpanLog& log, int64_t parent, uint64_t id)
{
    {
        SpanScope span(log, "map.clusterSeedsInto", parent, id);
        mg::map::clusterSeedsInto(mapper.graph(), distance, seeds,
                                  mapper.params().cluster, clusters);
    }
    mg::map::MapResult result;
    {
        SpanScope span(log, "map.mapFromSeeds", parent, id);
        result = mapper.mapFromSeeds(read, seeds, state);
    }
    ++counts.reads;
    counts.seeds += seeds.size();
    counts.clustersFormed += result.clustersFormed;
    counts.clustersProcessed += result.clustersProcessed;
    counts.extendAttempted += result.extensionsAttempted;
    counts.extendKept += result.extensions.size();
    return result;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace

ReplayResult
replayCapture(const mg::map::Mapper& mapper,
              const mg::index::DistanceIndex& distance,
              const mg::io::SeedCapture& capture, SpanLog& log,
              int64_t parent)
{
    ReplayResult out;
    out.extensions.resize(capture.entries.size());
    auto state = mapper.makeState();
    std::vector<mg::map::Cluster> clusters;
    for (size_t i = 0; i < capture.entries.size(); ++i) {
        const mg::io::ReadWithSeeds& entry = capture.entries[i];
        SpanScope read_span(log, "read", parent, i);
        mg::map::MapResult result =
            traceCritical(mapper, distance, entry.read, entry.seeds, *state,
                          clusters, out.counts, log, read_span.index(), i);
        out.extensions[i].readName = entry.read.name;
        out.extensions[i].extensions = std::move(result.extensions);
    }
    out.counts.cache = state->totalStats();
    return out;
}

ReplayResult
replayReads(const mg::map::Mapper& mapper,
            const mg::index::MinimizerIndex& minimizers,
            const mg::index::DistanceIndex& distance,
            const std::vector<mg::map::Read>& reads,
            const mg::giraffe::PostProcessParams& post, SpanLog& log,
            int64_t parent)
{
    ReplayResult out;
    out.extensions.resize(reads.size());
    out.alignments.resize(reads.size());
    auto state = mapper.makeState();
    std::vector<mg::map::Cluster> clusters;
    for (size_t i = 0; i < reads.size(); ++i) {
        const mg::map::Read& read = reads[i];
        SpanScope read_span(log, "read", parent, i);
        mg::map::SeedVector seeds;
        {
            SpanScope span(log, "map.findSeeds", read_span.index(), i);
            seeds = mg::map::findSeeds(minimizers, read,
                                       mapper.params().seeding);
        }
        mg::map::MapResult result =
            traceCritical(mapper, distance, read, seeds, *state, clusters,
                          out.counts, log, read_span.index(), i);
        {
            SpanScope span(log, "giraffe.postProcess", read_span.index(), i);
            out.alignments[i] =
                mg::giraffe::postProcess(read.name, result.extensions, post);
            out.alignments[i].degraded = result.degraded;
        }
        out.extensions[i].readName = read.name;
        out.extensions[i].extensions = std::move(result.extensions);
    }
    out.counts.cache = state->totalStats();
    return out;
}

double
timeRecordDecode(const mg::gbwt::Gbwt& gbwt, uint64_t seed,
                 uint64_t* decodes)
{
    std::vector<uint64_t> slots;
    for (uint64_t s = 0; s < gbwt.numSlots(); ++s) {
        if (gbwt.hasRecord(mg::graph::Handle::fromPacked(s))) {
            slots.push_back(s);
        }
    }
    mg::util::Rng rng(seed ^ 0xdec0de);
    rng.shuffle(slots);
    mg::gbwt::DecodedRecord record;
    std::vector<double> per_decode;
    uint64_t total = 0;
    mg::util::WallTimer budget;
    // One warm pass, then at least five timed passes and about 0.2 s.
    for (int pass = 0; pass < 6 || budget.seconds() < 0.2; ++pass) {
        mg::util::WallTimer timer;
        for (uint64_t s : slots) {
            gbwt.decodeRecordInto(mg::graph::Handle::fromPacked(s), record);
        }
        const double ns = static_cast<double>(timer.nanos());
        if (pass > 0 && !slots.empty()) {
            per_decode.push_back(ns / static_cast<double>(slots.size()));
            total += slots.size();
        }
    }
    *decodes = total;
    return median(per_decode);
}

void
recordLayers(Record& record, const SpanLog& log, const LayerCounts& c,
             double decodeNs, uint64_t decodeSamples, bool seeding,
             bool post)
{
    const double reads = static_cast<double>(c.reads);
    const uint64_t n = c.reads;
    if (seeding) {
        record.set("map.seed.ns_per_read",
                   ratio(static_cast<double>(log.total("map.findSeeds")),
                         reads),
                   "ns", n, "map::findSeeds span");
        record.set("map.seed.seeds_per_read",
                   ratio(static_cast<double>(c.seeds), reads), "count", n);
    } else {
        record.notRun("map.seed.ns_per_read", "ns",
                      "seeds come from the capture");
        record.notRun("map.seed.seeds_per_read", "count",
                      "seeds come from the capture");
    }
    const double cluster_ns =
        static_cast<double>(log.total("map.clusterSeedsInto"));
    const double map_ns = static_cast<double>(log.total("map.mapFromSeeds"));
    const double extend_ns = std::max(0.0, map_ns - cluster_ns);
    record.set("map.cluster.ns_per_read", ratio(cluster_ns, reads), "ns", n,
               "map::clusterSeedsInto span");
    record.set("map.cluster.formed_per_read",
               ratio(static_cast<double>(c.clustersFormed), reads), "count",
               n);
    record.set("map.cluster.processed_share",
               ratio(static_cast<double>(c.clustersProcessed),
                     static_cast<double>(c.clustersFormed)),
               "ratio", c.clustersFormed, "processed / formed (MapResult)");
    record.set("map.extend.ns_per_read", ratio(extend_ns, reads), "ns", n,
               "computed: mapFromSeeds span - clusterSeedsInto span");
    record.set("map.extend.attempted_per_read",
               ratio(static_cast<double>(c.extendAttempted), reads), "count",
               n);
    record.set("map.extend.kept_share",
               ratio(static_cast<double>(c.extendKept),
                     static_cast<double>(c.extendAttempted)),
               "ratio", c.extendAttempted, "returned / attempted");
    record.set("map.extend.ns_per_attempt",
               ratio(extend_ns, static_cast<double>(c.extendAttempted)),
               "ns", c.extendAttempted, "computed: extend self / attempted");

    const mg::gbwt::CacheStats& s = c.cache;
    record.set("gbwt.lookups_per_read",
               ratio(static_cast<double>(s.lookups), reads), "count", n);
    record.set("gbwt.hit_rate", s.hitRate(), "ratio", s.lookups,
               "hits / lookups (CacheStats)");
    record.set("gbwt.decodes_per_read",
               ratio(static_cast<double>(s.decodes), reads), "count", n);
    record.set("gbwt.rehashes_per_kread",
               1000.0 * ratio(static_cast<double>(s.rehashes), reads),
               "count", n);
    record.set("gbwt.probes_per_lookup",
               ratio(static_cast<double>(s.probes),
                     static_cast<double>(s.lookups)),
               "count", s.lookups);
    record.set("gbwt.decode_ns", decodeNs, "ns", decodeSamples,
               "Gbwt::decodeRecordInto, every record, seeded shuffle");
    record.set("gbwt.decode_share",
               ratio(static_cast<double>(s.decodes) * decodeNs, extend_ns),
               "ratio", s.decodes,
               "computed: decodes x decode_ns / extend self time");
    if (post) {
        record.set("giraffe.post_ns_per_read",
                   ratio(static_cast<double>(log.total("giraffe.postProcess")),
                         reads),
                   "ns", n, "giraffe::postProcess span");
    } else {
        record.notRun("giraffe.post_ns_per_read", "ns",
                      "the proxy has no post-processing");
    }
}

double
replayRate(const SpanLog& log, const ReplayRoot& root, uint64_t reads)
{
    const Span& r = log.spans()[static_cast<size_t>(root.index())];
    const double wall = static_cast<double>(r.end - r.start) -
                        static_cast<double>(log.total("map.clusterSeedsInto"));
    return ratio(static_cast<double>(reads), wall * 1e-9);
}

void
recordTraceQuality(Record& record, const SpanLog& log, const ReplayRoot& root,
                   double overhead, uint64_t samples, const std::string& how)
{
    record.set("obs.trace_overhead_share", overhead, "ratio", samples, how);
    if (overhead > 0.25) {
        record.invalid("obs.trace_overhead_share above 0.25");
    }
    const Span& r = log.spans()[static_cast<size_t>(root.index())];
    const double wall = static_cast<double>(r.end - r.start);
    const double unattributed =
        static_cast<double>(log.self(r.name) + log.self("read"));
    record.set("trace.unattributed_share", ratio(unattributed, wall),
               "ratio", log.spans().size(),
               "replay wall not covered by a stage span");
    record.set("trace.replay_cpu_share",
               ratio(static_cast<double>(root.cpuNanos()), wall), "ratio", 1,
               std::string(root.cpuSource()) + " / replay wall");
}

} // namespace perfbench
