#include "giraffe/run_summary.h"

#include "machine/host.h"
#include "obs/json.h"
#include "sched/scheduler.h"

namespace mg::giraffe {

namespace {

/** Host-CPU block: the architecture that produced this summary. */
void
writeHostCpu(obs::JsonWriter& w)
{
    w.key("cpu").beginObject();
    w.field("arch", machine::hostCpu().arch);
    w.endObject();
}

/** Failure-isolation block, present in every summary. */
void
writeFailures(obs::JsonWriter& w, const sched::FailureReport& failures)
{
    w.key("failures").beginObject();
    w.field("retries", static_cast<uint64_t>(failures.retries));
    w.field("quarantined", static_cast<uint64_t>(failures.poisoned.size()));
    w.field("batch_failures",
            static_cast<uint64_t>(failures.batches.size()));
    w.field("watchdog_cancels",
            static_cast<uint64_t>(failures.watchdogCancels));
    w.endObject();
}

void
writeResilience(obs::JsonWriter& w,
                const resilience::ResilienceStats& stats)
{
    w.key("resilience").beginObject();
    w.field("deadline_hits", stats.deadlineHits);
    w.field("step_cap_hits", stats.stepCapHits);
    w.field("lookup_cap_hits", stats.lookupCapHits);
    w.field("watchdog_cancels", stats.watchdogCancels);
    w.key("read_latency_ns").beginObject();
    w.field("count", stats.latency.count());
    w.field("mean", stats.latency.meanNanos());
    w.field("p50", stats.latency.p50());
    w.field("p99", stats.latency.p99());
    w.field("p999", stats.latency.p999());
    w.endObject();
    w.endObject();
}

void
writeCache(obs::JsonWriter& w, const gbwt::CacheStats& stats)
{
    w.key("gbwt_cache").beginObject();
    w.field("lookups", stats.lookups);
    w.field("hits", stats.hits);
    w.field("hit_rate", stats.hitRate());
    w.field("decodes", stats.decodes);
    w.field("rehashes", stats.rehashes);
    w.field("probes", stats.probes);
    w.field("recycles", stats.recycles);
    w.endObject();
}

/**
 * Startup accounting: how the pangenome got into memory.  The section
 * list reports *logical* arena sizes, identical whether the arenas were
 * parsed onto the heap or mapped out of an MGZ v3 container, so summaries
 * from both modes diff cleanly.
 */
void
writeIndexInfo(obs::JsonWriter& w, const io::IndexLoadInfo& index)
{
    w.key("index").beginObject();
    w.field("load_mode", io::loadModeName(index.mode));
    w.field("load_seconds", index.loadSeconds);
    w.field("file_bytes", index.fileBytes);
    w.field("mapped_bytes", index.mappedBytes);
    w.field("resident_bytes", index.residentBytes);
    w.field("heap_bytes", index.heapBytes);
    w.key("sections").beginObject();
    for (const auto& [name, bytes] : index.sections) {
        w.field(name, bytes);
    }
    w.endObject();
    w.endObject();
}

} // namespace

std::string
summaryJson(const ProxyOutputs& outputs, const ProxyParams& params,
            const io::IndexLoadInfo* index)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("kind", "proxy");
    w.field("scheduler", sched::schedulerName(params.scheduler));
    w.field("threads", static_cast<uint64_t>(params.numThreads));
    w.field("batch_size", static_cast<uint64_t>(params.batchSize));
    w.field("cache_capacity",
            static_cast<uint64_t>(params.mapper.gbwtCacheCapacity));
    w.field("wall_seconds", outputs.wallSeconds);
    w.field("reads_mapped", outputs.readsMapped);
    uint64_t total_extensions = 0;
    for (const io::ReadExtensions& entry : outputs.extensions) {
        total_extensions += entry.extensions.size();
    }
    w.field("extensions", total_extensions);
    w.field("stopped", outputs.stopped);
    if (index != nullptr) {
        writeIndexInfo(w, *index);
    }
    writeHostCpu(w);
    writeCache(w, outputs.cacheStats);
    writeResilience(w, outputs.resilience);
    writeFailures(w, outputs.failures);
    w.endObject();
    return w.str();
}

std::string
summaryJson(const ParentOutputs& outputs, const ParentParams& params,
            const io::IndexLoadInfo* index)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("kind", "parent");
    w.field("scheduler", sched::schedulerName(params.scheduler));
    w.field("threads", static_cast<uint64_t>(params.numThreads));
    w.field("batch_size", static_cast<uint64_t>(params.batchSize));
    w.field("wall_seconds", outputs.wallSeconds);
    w.field("reads", static_cast<uint64_t>(outputs.alignments.size()));
    uint64_t mapped = 0;
    for (const Alignment& alignment : outputs.alignments) {
        if (alignment.mapped) {
            ++mapped;
        }
    }
    w.field("reads_mapped", mapped);
    w.field("stopped", outputs.stopped);
    if (!outputs.pairs.empty()) {
        uint64_t proper = 0;
        for (const PairResult& pair : outputs.pairs) {
            if (pair.properPair) {
                ++proper;
            }
        }
        w.key("pairing").beginObject();
        w.field("pairs", static_cast<uint64_t>(outputs.pairs.size()));
        w.field("proper", proper);
        w.field("rescue_attempts",
                static_cast<uint64_t>(outputs.rescue.attempted));
        w.field("rescue_hits",
                static_cast<uint64_t>(outputs.rescue.rescued));
        w.endObject();
    }
    if (index != nullptr) {
        writeIndexInfo(w, *index);
    }
    writeHostCpu(w);
    writeCache(w, outputs.cacheStats);
    writeResilience(w, outputs.resilience);
    writeFailures(w, outputs.failures);
    w.endObject();
    return w.str();
}

std::string
summaryJson(const CheckpointRunResult& result,
            const CheckpointRunParams& params)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("kind", "checkpoint");
    w.field("dir", params.dir);
    w.field("shard_reads", params.shardReads);
    w.field("wall_seconds", result.wallSeconds);
    w.field("resumed_reads", result.resumedReads);
    w.field("mapped_reads", result.mappedReads);
    w.field("dropped_shards", result.droppedShards);
    w.field("gaf_bytes", static_cast<uint64_t>(result.gaf.size()));
    w.field("stopped", result.stopped);
    writeCache(w, result.cacheStats);
    writeResilience(w, result.resilience);
    writeFailures(w, result.failures);
    w.endObject();
    return w.str();
}

} // namespace mg::giraffe
