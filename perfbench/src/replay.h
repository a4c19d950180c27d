/**
 * @file
 * The traced replay: one thread maps the workload's reads through the
 * mapper's public layer functions with a span around each call, so the
 * per-layer table can split a read's time.  map::Mapper::mapFromSeeds runs
 * clustering internally; the replay times map::clusterSeedsInto once more
 * on its own, and the extend time is computed as the mapFromSeeds span
 * minus that cluster span.  The duplicate call is measurement-only and is
 * removed before the replay's throughput is compared with the untraced run.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "gbwt/cached_gbwt.h"
#include "giraffe/alignment.h"
#include "harness.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/extensions_io.h"
#include "io/reads_bin.h"
#include "map/mapper.h"

namespace perfbench {

/** Counts the layer functions returned during a replay. */
struct LayerCounts
{
    uint64_t reads = 0;
    uint64_t seeds = 0;
    uint64_t clustersFormed = 0;
    uint64_t clustersProcessed = 0;
    uint64_t extendAttempted = 0;
    uint64_t extendKept = 0;
    mg::gbwt::CacheStats cache;
};

/** What a replay produced: the same outputs the untraced run makes. */
struct ReplayResult
{
    /** Per-read extensions (every replay). */
    std::vector<mg::io::ReadExtensions> extensions;
    /** Post-processed alignments (full-pipeline replays only). */
    std::vector<mg::giraffe::Alignment> alignments;
    LayerCounts counts;
};

/** Proxy replay: seeds come from the capture; no seeding, no post. */
ReplayResult replayCapture(const mg::map::Mapper& mapper,
                           const mg::index::DistanceIndex& distance,
                           const mg::io::SeedCapture& capture, SpanLog& log,
                           int64_t parent);

/** Full replay: findSeeds, the critical functions, then postProcess. */
ReplayResult replayReads(const mg::map::Mapper& mapper,
                         const mg::index::MinimizerIndex& minimizers,
                         const mg::index::DistanceIndex& distance,
                         const std::vector<mg::map::Read>& reads,
                         const mg::giraffe::PostProcessParams& post,
                         SpanLog& log, int64_t parent);

/**
 * Time Gbwt::decodeRecordInto over every record in a seeded shuffled
 * order; returns the median ns per decode over repeated passes.
 */
double timeRecordDecode(const mg::gbwt::Gbwt& gbwt, uint64_t seed,
                        uint64_t* decodes);

/**
 * Fill the map.*, gbwt.* and giraffe.* rows of the per-layer table from a
 * replay's spans and counts (rows of layers the workload bypasses are
 * labelled not run).  `decodeNs` is timeRecordDecode's result.
 */
void recordLayers(Record& record, const SpanLog& log,
                  const LayerCounts& counts, double decodeNs,
                  uint64_t decodeSamples, bool seeding, bool post);

/** The root span of a replay, plus the replaying thread's CPU time. */
class ReplayRoot
{
  public:
    explicit ReplayRoot(SpanLog& log)
        : log_(log), cpu0_(clock_.nanos()), span_(log.begin("replay", -1, 0))
    {}
    ReplayRoot(const ReplayRoot&) = delete;
    ReplayRoot& operator=(const ReplayRoot&) = delete;

    int64_t index() const { return span_; }
    void
    end()
    {
        log_.end(span_);
        cpuNanos_ = clock_.nanos() - cpu0_;
    }
    uint64_t cpuNanos() const { return cpuNanos_; }
    const char* cpuSource() const { return clock_.source(); }

  private:
    SpanLog& log_;
    ThreadCpuClock clock_;
    uint64_t cpu0_;
    int64_t span_;
    uint64_t cpuNanos_ = 0;
};

/**
 * Reads per second of a replay without the measurement-only duplicate
 * cluster call.
 */
double replayRate(const SpanLog& log, const ReplayRoot& root, uint64_t reads);

/**
 * The harness rows of a traced run: obs.trace_overhead_share as the
 * caller measured it, trace.unattributed_share of the replay's root span,
 * and trace.replay_cpu_share (replay CPU time / wall: below 1 the host
 * took the CPU away and the spans include that wait).
 */
void recordTraceQuality(Record& record, const SpanLog& log,
                        const ReplayRoot& root, double overhead,
                        uint64_t samples, const std::string& how);

} // namespace perfbench
