#include "map/mapper.h"

#include <algorithm>

#include "fault/fault.h"
#include "util/common.h"
#include "util/dna.h"
#include "util/timer.h"

namespace mg::map {

Mapper::Mapper(const graph::VariationGraph& graph, const gbwt::Gbwt& gbwt,
               const index::MinimizerIndex& minimizers,
               const index::DistanceIndex& distance, MapperParams params)
    : graph_(graph), gbwt_(gbwt), minimizers_(minimizers),
      distance_(distance), params_(params), extender_(graph, params.extend)
{}

void
Mapper::bindProfiler(perf::Profiler& profiler)
{
    regionFindSeeds_ = profiler.regionId(perf::regions::kFindSeeds);
    regionCluster_ = profiler.regionId(perf::regions::kClusterSeeds);
    regionProcess_ =
        profiler.regionId(perf::regions::kProcessUntilThresholdC);
    regionExtend_ = profiler.regionId(perf::regions::kExtend);
    profilerBound_ = true;
}

MapResult
Mapper::mapRead(const Read& read, MapperState& state) const
{
    SeedVector seeds;
    {
        const uint64_t seed_start =
            state.stageTrace != nullptr ? util::nowNanos() : 0;
        perf::ScopedRegion region(state.log, regionFindSeeds_);
        seeds = findSeeds(minimizers_, read, params_.seeding, state.tracer);
        if (state.stageTrace != nullptr) {
            state.stageTrace->add(obs::SpanStage::Seed,
                                  util::nowNanos() - seed_start);
        }
    }
    return mapFromSeeds(read, seeds, state);
}

MapResult
Mapper::mapFromSeeds(const Read& read, const SeedVector& seeds,
                     MapperState& state) const
{
    // Fault point: a single read poisoning its mapping task.
    fault::inject("map.read");

    const uint64_t start_nanos = util::nowNanos();
    MapResult result;
    // Fresh per-read CachedGBWT, as Giraffe's extender constructs one per
    // mapping task; its initialization is part of the read's cost.
    state.freshCache();
    state.budget.beginRead();
    // The packed-query cache keys on (pointer, length); reverseSeq is a
    // reused buffer, so a new read can alias the previous read's key with
    // different contents.  Force a repack on first use.
    state.extendScratch.query.invalidate();
    std::vector<Cluster>& clusters = state.clusters;
    if (state.flight != nullptr) {
        state.flight->stage(obs::ReadStage::Cluster);
    }
    {
        const uint64_t cluster_start =
            state.stageTrace != nullptr ? util::nowNanos() : 0;
        perf::ScopedRegion region(state.log, regionCluster_);
        clusterSeedsInto(graph_, distance_, seeds, params_.cluster,
                         clusters, state.tracer);
        if (state.stageTrace != nullptr) {
            state.stageTrace->add(obs::SpanStage::Cluster,
                                  util::nowNanos() - cluster_start);
        }
    }
    result.clustersFormed = static_cast<uint32_t>(clusters.size());
    if (state.flight != nullptr) {
        state.flight->stage(obs::ReadStage::Process);
    }
    {
        const uint64_t extend_start =
            state.stageTrace != nullptr ? util::nowNanos() : 0;
        perf::ScopedRegion region(state.log, regionProcess_);
        processUntilThresholdC(read, seeds, clusters, state, result);
        if (state.stageTrace != nullptr) {
            state.stageTrace->add(obs::SpanStage::Extend,
                                  util::nowNanos() - extend_start);
        }
    }
    result.degraded = state.budget.reason();
    state.resilience.countDegraded(result.degraded);
    const uint64_t elapsed = util::nowNanos() - start_nanos;
    state.resilience.latency.record(elapsed);
    if (state.metrics != nullptr) {
        MapperState::PendingFunnel& p = state.pending;
        ++p.reads;
        p.seeds += seeds.size();
        p.clustersFormed += result.clustersFormed;
        p.clustersProcessed += result.clustersProcessed;
        p.extensionsAttempted += result.extensionsAttempted;
        p.extensionsAborted += result.extensionsAborted;
        p.extensionsPrefiltered += result.extensionsPrefiltered;
        p.extensionsEmitted += result.extensions.size();
        switch (result.degraded) {
        case resilience::CancelReason::None: break;
        case resilience::CancelReason::Deadline: ++p.degradedDeadline; break;
        case resilience::CancelReason::StepCap: ++p.degradedStepCap; break;
        case resilience::CancelReason::LookupCap:
            ++p.degradedLookupCap;
            break;
        case resilience::CancelReason::Watchdog:
            ++p.degradedWatchdog;
            break;
        }
        p.readLatency.record(elapsed);
    }
    return result;
}

void
Mapper::processUntilThresholdC(const Read& read, const SeedVector& seeds,
                               const std::vector<Cluster>& clusters,
                               MapperState& state, MapResult& result) const
{
    if (clusters.empty()) {
        return;
    }
    const double best_score = clusters.front().score;
    const double cutoff = best_score * params_.clusterScoreFraction;
    std::vector<GaplessExtension>& candidates = state.extensionBuffer;
    candidates.clear();
    // The reverse complement is computed once per read into the state's
    // reusable buffer; both orientations' extensions compare against their
    // own oriented sequence.
    bool reverse_ready = false;

    for (size_t c = 0; c < clusters.size(); ++c) {
        const Cluster& cluster = clusters[c];
        // process_until_threshold_c: floor of minClusters, ceiling of
        // maxClusters, and a relative score cutoff in between.
        if (c >= params_.maxClusters) {
            break;
        }
        if (c >= params_.minClusters && cluster.score < cutoff) {
            break;
        }
        // Cancellation point between clusters: a degraded read keeps the
        // extensions it already produced and skips the rest.
        if (state.budget.exhausted()) {
            break;
        }
        ++result.clustersProcessed;

        std::string_view oriented = read.sequence;
        if (cluster.onReverseRead) {
            if (!reverse_ready) {
                util::reverseComplementInto(read.sequence,
                                            state.reverseSeq);
                reverse_ready = true;
            }
            oriented = state.reverseSeq;
        }

        // Pick the strongest seeds of the cluster, one per read offset.
        // Both index buffers live in MapperState and keep their capacity
        // across clusters and reads.
        std::vector<uint32_t>& chosen = state.chosenSeeds;
        chosen.clear();
        {
            std::vector<uint32_t>& sorted = state.sortedSeeds;
            sorted.assign(cluster.seedIndices.begin(),
                          cluster.seedIndices.end());
            std::sort(sorted.begin(), sorted.end(),
                      [&](uint32_t a, uint32_t b) {
                          if (seeds[a].score != seeds[b].score) {
                              return seeds[a].score > seeds[b].score;
                          }
                          return a < b;
                      });
            uint32_t last_offset = UINT32_MAX;
            for (uint32_t idx : sorted) {
                if (seeds[idx].readOffset == last_offset) {
                    continue;
                }
                chosen.push_back(idx);
                last_offset = seeds[idx].readOffset;
                if (chosen.size() >= params_.maxSeedsPerCluster) {
                    break;
                }
            }
        }

        // Score prefilter: chosen is sorted best-first, so a single scan
        // from the back trims the hopeless tail before any walk starts.
        if (params_.prefilterFraction > 0.0 && !chosen.empty()) {
            const double floor =
                seeds[chosen.front()].score * params_.prefilterFraction;
            while (!chosen.empty() &&
                   seeds[chosen.back()].score < floor) {
                chosen.pop_back();
                ++result.extensionsPrefiltered;
            }
        }

        if (state.flight != nullptr) {
            state.flight->stage(obs::ReadStage::Extend);
        }
        perf::ScopedRegion region(state.log, regionExtend_);
        for (uint32_t idx : chosen) {
            // Cancellation point between seeds of a cluster.
            if (state.budget.exhausted()) {
                break;
            }
            ++result.extensionsAttempted;
            GaplessExtension ext =
                extender_.extendSeed(seeds[idx], oriented, state.cache(),
                                     state.extendScratch);
            // An extension that left the budget exhausted was (at least
            // potentially) trimmed at a cancellation point mid-walk.
            if (state.budget.exhausted()) {
                ++result.extensionsAborted;
            }
            if (ext.readEnd > ext.readBegin) {
                candidates.push_back(std::move(ext));
            }
        }
    }

    // Deduplicate identical extensions found from different seeds, keep
    // the best-scoring ones, deterministic order; only the survivors are
    // copied into the returned result.
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    if (candidates.size() > params_.maxExtensions) {
        candidates.resize(params_.maxExtensions);
    }
    result.extensions.reserve(candidates.size());
    for (GaplessExtension& ext : candidates) {
        result.extensions.push_back(std::move(ext));
    }
}

} // namespace mg::map
