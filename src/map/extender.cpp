#include "map/extender.h"

#include <algorithm>

#include "util/common.h"
#include "util/mem_tracer.h"
#include "util/dna.h"

namespace mg::map {

namespace {

using detail::WalkState;

/** Deterministic "is a better than b" for finished walk prefixes. */
bool
betterCandidate(const DirectionalWalk& a, const DirectionalWalk& b)
{
    if (a.score != b.score) {
        return a.score > b.score;
    }
    if (a.consumed != b.consumed) {
        return a.consumed > b.consumed;
    }
    if (a.path != b.path) {
        return a.path < b.path;
    }
    return a.mismatchOffsets < b.mismatchOffsets;
}

/** Fold a finished walk state's best prefix into the walk's best result. */
void
finishWalk(const WalkState& s, DirectionalWalk& best)
{
    if (s.bestQueryPos == 0) {
        return; // nothing consumed; can never beat even an empty best
    }
    // Cheap reject on the (score, consumed) prefix of the candidate
    // order before paying for the path/mismatch copies; the full
    // comparison below breaks exact ties deterministically.
    if (best.consumed > 0 &&
        (s.bestScore < best.score ||
         (s.bestScore == best.score && s.bestQueryPos < best.consumed))) {
        return;
    }
    // Strictly better on the (score, consumed) prefix of the candidate
    // order: accept by trimming straight into `best` (the maximum-score
    // prefix always ends on a match) — no intermediate copy.
    if (best.consumed == 0 || s.bestScore > best.score ||
        s.bestQueryPos > best.consumed) {
        best.consumed = s.bestQueryPos;
        best.score = s.bestScore;
        best.endOffset = s.bestEndOffset;
        best.mismatchOffsets.assign(
            s.mismatchOffsets.begin(),
            s.mismatchOffsets.begin() +
                static_cast<long>(s.bestMismatches));
        best.path.assign(s.path.begin(),
                         s.path.begin() + static_cast<long>(s.bestPathLen));
        return;
    }
    // Exact (score, consumed) tie: materialize the trimmed candidate and
    // break it on the full deterministic order.
    DirectionalWalk candidate;
    candidate.consumed = s.bestQueryPos;
    candidate.score = s.bestScore;
    candidate.endOffset = s.bestEndOffset;
    candidate.mismatchOffsets.assign(
        s.mismatchOffsets.begin(),
        s.mismatchOffsets.begin() + static_cast<long>(s.bestMismatches));
    candidate.path.assign(s.path.begin(),
                          s.path.begin() +
                              static_cast<long>(s.bestPathLen));
    if (betterCandidate(candidate, best)) {
        best = std::move(candidate);
    }
}

/**
 * Sort successors into descending handle order.  Branch lists are almost
 * always 1–2 entries (bubble graphs), where an insertion sort beats the
 * std::sort call; successors of one state have distinct nodes, so any
 * comparison sort yields the same order.
 */
void
sortSuccessors(std::vector<gbwt::SearchState>& successors)
{
    const size_t n = successors.size();
    if (n <= 8) {
        for (size_t i = 1; i < n; ++i) {
            gbwt::SearchState key = successors[i];
            size_t j = i;
            while (j > 0 && successors[j - 1].node < key.node) {
                successors[j] = successors[j - 1];
                --j;
            }
            successors[j] = key;
        }
        return;
    }
    std::sort(successors.begin(), successors.end(),
              [](const gbwt::SearchState& a, const gbwt::SearchState& b) {
                  return b.node < a.node;
              });
}

/** Per-thread scratch backing the convenience overloads. */
ExtendScratch&
threadScratch()
{
    static thread_local ExtendScratch scratch;
    return scratch;
}

/**
 * Per-walk invariants of the node-step loop, hoisted once per walk so the
 * per-node code touches only registers.  Graph nodes average a handful of
 * bases, so the step loop runs every few nanoseconds; re-deriving the
 * tracer and budget per node is measurable at that rate.
 */
struct StepCtx
{
    const graph::VariationGraph& graph;
    const ExtendParams& params;
    gbwt::CachedGbwt& cache;
    std::vector<gbwt::SearchState>& successors;
    uint64_t& wordsCompared;
    util::MemTracer* tracer;
    resilience::ReadBudget* budget;
};

/**
 * Advance `s` by one node: match-run within the current node, then
 * either finish the walk state (dead end, query exhausted, or no
 * haplotype-supported successor — `best` updated; returns true) or
 * branch, pushing all but the smallest-handle successor onto `stack`
 * and continuing `s` in place (returns false).  always_inline folds the
 * SWAR kernel and the best-prefix updates into the walk loop exactly as
 * they would be hand-written.
 */
[[gnu::always_inline]] inline bool
stepNode(const StepCtx& ctx, WalkState& s, const util::PackedSpan& query,
         std::vector<WalkState>& stack, DirectionalWalk& best)
{
    const uint32_t query_size = query.size;

    graph::Handle handle = s.state.node;
    // One contiguous packed span of the both-orientation arena:
    // reverse-strand bases are pre-materialized, so the compare loop
    // below never calls a per-base complement.
    util::PackedSpan node_seq = ctx.graph.packedView(handle);
    const uint32_t len = node_seq.size;
    bool dead = false;

    if (s.nodeOffset < len && s.queryPos < query_size) {
        s.path.push_back(handle);
        if (ctx.tracer != nullptr) {
            // The walk-and-compare inner loop: report the packed words the
            // wide compare is about to stream (a quarter of the byte-layout
            // traffic) and the chunk XOR/scan work.
            uint32_t span = std::min<uint32_t>(len - s.nodeOffset,
                                               query_size - s.queryPos);
            uint64_t chunk_words = (span >> 5) + 1;
            util::traceAccess(
                ctx.tracer,
                node_seq.words + ((node_seq.first + s.nodeOffset) >> 5),
                chunk_words * sizeof(uint64_t));
            util::traceAccess(
                ctx.tracer, query.words + ((query.first + s.queryPos) >> 5),
                chunk_words * sizeof(uint64_t));
            util::traceWork(ctx.tracer, chunk_words * 8);
        }
    }
    // Consume bases within the current node, a match-run at a time.
    // Within a run the score rises by matchScore per base, so taking
    // the best-prefix snapshot once at the run's end is exactly
    // equivalent to the per-base update.
    while (s.nodeOffset < len && s.queryPos < query_size) {
        const uint32_t span = std::min<uint32_t>(len - s.nodeOffset,
                                                 query_size - s.queryPos);
        const uint64_t gbase = node_seq.first + s.nodeOffset;
        const uint64_t qbase = query.first + s.queryPos;
        const uint32_t run =
            util::matchRunPacked(node_seq.words, gbase, query.words, qbase,
                                 span, ctx.wordsCompared);
        if (run > 0) {
            s.score += static_cast<int32_t>(run) * ctx.params.matchScore;
            s.nodeOffset += run;
            s.queryPos += run;
            if (s.score >= s.bestScore) {
                s.bestQueryPos = s.queryPos;
                s.bestEndOffset = s.nodeOffset;
                s.bestScore = s.score;
                s.bestMismatches = s.mismatchOffsets.size();
                s.bestPathLen = s.path.size();
            }
        }
        if (run == span) {
            continue; // node or query exhausted; loop condition exits
        }
        if (s.mismatches + 1 > ctx.params.maxMismatches) {
            dead = true;
            break;
        }
        ++s.mismatches;
        s.score -= ctx.params.mismatchPenalty;
        s.mismatchOffsets.push_back(s.queryPos);
        ++s.nodeOffset;
        ++s.queryPos;
    }

    if (dead || s.queryPos >= query_size) {
        finishWalk(s, best);
        return true;
    }

    // Node exhausted with query left: branch on haplotype-supported
    // successors.  Push in descending handle order so the DFS visits
    // smaller handles first (determinism).
    std::vector<gbwt::SearchState>& successors = ctx.successors;
    successors.clear();
    if (ctx.params.haplotypeConsistent) {
        if (ctx.budget != nullptr) {
            ctx.budget->chargeLookup();
        }
        ctx.cache.successorStatesInto(s.state, successors);
    } else {
        // Ablation mode: walk every graph edge with dummy states.
        for (graph::Handle succ : ctx.graph.successors(handle)) {
            successors.emplace_back(succ, 0, 1);
        }
    }
    if (successors.empty()) {
        finishWalk(s, best);
        return true;
    }
    if (successors.size() > 1) {
        sortSuccessors(successors);
        // Warm the cache slots and compressed records the deferred
        // branches will probe after the continued one; pure hint, no
        // decode, no stats.  The continued branch (the last entry) is
        // probed immediately by the next step — prefetching it would
        // just pay the hash probe twice — and the common single-
        // successor step of a bubble chain skips the pass entirely.
        for (size_t i = 0; i + 1 < successors.size(); ++i) {
            ctx.cache.prefetch(successors[i].node);
        }
    }
    // All but the last branch copy the state (memcpy-cheap with inline
    // storage); the last one — the smallest handle, exactly the state
    // the pop would deliver next — continues in `s` without touching
    // the stack.  The common single-successor step of a bubble chain
    // copies nothing.
    for (size_t i = 0; i + 1 < successors.size(); ++i) {
        WalkState next = s;
        next.state = successors[i];
        next.nodeOffset = 0;
        stack.push_back(std::move(next));
    }
    s.state = successors.back();
    s.nodeOffset = 0;
    return false;
}

} // namespace

void
PackedQuery::pack(std::string_view oriented)
{
    size = static_cast<uint32_t>(oriented.size());
    const uint64_t words = util::packedBufferWords(size);
    // assign() reuses capacity: zero allocations once warm.
    fwd.assign(words, 0);
    rc.assign(words, 0);
    util::packAsciiInto(oriented, fwd.data(), 0);
    util::reverseComplementPacked(fwd.data(), size, rc.data());
    keyData_ = oriented.data();
    keyLen_ = oriented.size();
}

DirectionalWalk
Extender::walkPacked(graph::Handle start, uint32_t offset,
                     util::PackedSpan query, gbwt::CachedGbwt& cache,
                     ExtendScratch& scratch) const
{
    DirectionalWalk best; // empty walk: consumed 0, score 0
    if (query.size == 0) {
        return best;
    }
    resilience::ReadBudget* budget = scratch.budget;
    if (budget != nullptr) {
        budget->chargeLookup();
    }
    gbwt::SearchState root = cache.find(start);
    if (root.empty()) {
        return best; // no haplotype visits this node in this orientation
    }

    std::vector<WalkState>& stack = scratch.stack;
    stack.clear();
    {
        WalkState init;
        init.state = root;
        init.nodeOffset = offset;
        stack.push_back(std::move(init));
    }
    size_t explored = 0;
    const StepCtx ctx{graph_,
                      params_,
                      cache,
                      scratch.successors,
                      scratch.wordsCompared,
                      cache.tracer(),
                      budget};

    bool capped = false;
    while (!stack.empty() && !capped) {
        WalkState s = std::move(stack.back());
        stack.pop_back();
        // In-place continuation: instead of pushing the deepest branch and
        // immediately popping it back (two ~250-byte WalkState moves per
        // node step), the inner loop keeps walking it in `s`.  Traversal
        // order and the explored count are exactly those of the
        // push-then-pop formulation, just without the stack round-trip.
        for (;;) {
            if (++explored > params_.maxWalkStates) {
                finishWalk(s, best);
                capped = true;
                break;
            }
            // Cancellation point: only at walk-state boundaries, so a
            // budget-exhausted walk ends exactly like a capped one — trimmed
            // to its best prefix, never torn mid-node.
            if (budget != nullptr && budget->chargeStep()) {
                finishWalk(s, best);
                capped = true;
                break;
            }
            if (stepNode(ctx, s, query, stack, best)) {
                break;
            }
        }
    }
    return best;
}

DirectionalWalk
Extender::walk(graph::Handle start, uint32_t offset, std::string_view query,
               gbwt::CachedGbwt& cache, ExtendScratch& scratch) const
{
    // Pack the ad-hoc query (tests, reference harnesses) into scratch and
    // run the packed walk — one kernel, no byte-path twin to keep in sync.
    const uint32_t len = static_cast<uint32_t>(query.size());
    scratch.walkQuery.assign(util::packedBufferWords(len), 0);
    util::packAsciiInto(query, scratch.walkQuery.data(), 0);
    return walkPacked(start, offset,
                      util::PackedSpan{scratch.walkQuery.data(), 0, len},
                      cache, scratch);
}

DirectionalWalk
Extender::walk(graph::Handle start, uint32_t offset, std::string_view query,
               gbwt::CachedGbwt& cache) const
{
    return walk(start, offset, query, cache, threadScratch());
}

GaplessExtension
Extender::mergeWalks(const Seed& seed, size_t sequence_size,
                     const DirectionalWalk& left,
                     const DirectionalWalk& right) const
{
    const graph::Position& pos = seed.position;
    const uint32_t read_offset = seed.readOffset;

    GaplessExtension ext;
    ext.onReverseRead = seed.onReverseRead;
    ext.readBegin = read_offset - left.consumed;
    ext.readEnd = read_offset + right.consumed;
    ext.score = left.score + right.score;

    // Mismatch offsets: left walk position j maps to read_offset - 1 - j.
    for (size_t i = left.mismatchOffsets.size(); i > 0; --i) {
        ext.mismatchOffsets.push_back(read_offset - 1 -
                                      left.mismatchOffsets[i - 1]);
    }
    for (uint32_t off : right.mismatchOffsets) {
        ext.mismatchOffsets.push_back(read_offset + off);
    }

    // Path: flipped left walk reversed, then the right walk; the seed node
    // appears in both when each consumed bases there.
    for (size_t i = left.path.size(); i > 0; --i) {
        ext.path.push_back(left.path[i - 1].flip());
    }
    if (!ext.path.empty() && !right.path.empty() &&
        ext.path.back() == right.path.front()) {
        ext.path.pop_back();
    }
    ext.path.insert(ext.path.end(), right.path.begin(), right.path.end());

    // Start offset within the first path node (forward coordinates).
    if (left.consumed > 0) {
        graph::Handle first = ext.path.front();
        uint32_t first_len =
            static_cast<uint32_t>(graph_.length(first.id()));
        // The left walk's final node is first.flip(); the walk consumed up
        // to flipped offset left.endOffset; mirror it to forward strand.
        ext.startOffset = first_len - left.endOffset;
    } else {
        ext.startOffset = pos.offset;
    }

    if (ext.readBegin == 0 && ext.readEnd == sequence_size) {
        ext.fullLength = true;
        ext.score += params_.fullLengthBonus;
    }
    return ext;
}

GaplessExtension
Extender::extendSeed(const Seed& seed, std::string_view sequence,
                     gbwt::CachedGbwt& cache, ExtendScratch& scratch) const
{
    const graph::Position& pos = seed.position;
    const uint32_t read_offset = seed.readOffset;
    MG_ASSERT(read_offset < sequence.size());
    const uint32_t node_len =
        static_cast<uint32_t>(graph_.length(pos.handle.id()));
    MG_ASSERT(pos.offset < node_len);

    // Pack the oriented read once (both strands); consecutive seeds of the
    // same read hit the (pointer, length) key and repack nothing.
    scratch.query.ensure(sequence);

    // Rightward: match the read suffix starting at the seed base itself.
    DirectionalWalk right =
        walkPacked(pos.handle, pos.offset, scratch.query.suffix(read_offset),
                   cache, scratch);

    // Leftward: match the reverse complement of the read prefix by walking
    // the flipped start node from the mirrored offset.  RC(prefix[0, r)) is
    // the suffix of RC(read) starting at len - r, so the packed RC words
    // computed at pack() time serve every seed with zero materialization.
    DirectionalWalk left =
        walkPacked(pos.handle.flip(), node_len - pos.offset,
                   scratch.query.rcPrefix(read_offset), cache, scratch);

    return mergeWalks(seed, sequence.size(), left, right);
}

GaplessExtension
Extender::extendSeed(const Seed& seed, std::string_view sequence,
                     gbwt::CachedGbwt& cache) const
{
    return extendSeed(seed, sequence, cache, threadScratch());
}

} // namespace mg::map
