// Input generation: a workload seed becomes a pangenome + read set through
// sim::buildInputSet, and everything the measured process needs is written
// as files.  The measuring process sees only those files.

#include "giraffe/parent.h"
#include "harness.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/extensions_io.h"
#include "io/fastq.h"
#include "io/mgz.h"
#include "io/reads_bin.h"
#include "sim/input_sets.h"
#include "util/common.h"

namespace perfbench {

namespace {

uint64_t
mix(uint64_t base, uint64_t seed)
{
    uint64_t z = base + 0x9e3779b97f4a7c15ull * (seed + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

void
generateInputs(const std::string& workload, uint64_t seed,
               const std::string& dir, size_t nproc)
{
    // human-proxy maps 4x the A-human analog's 1500 reads, so a run has
    // 12 batches of 512 to spread over the threads; the B-yeast analog's
    // 20000 reads already give 40.
    const bool human = workload == "human-proxy";
    mg::util::require(human || workload == "yeast-giraffe" ||
                          workload == "yeast-serve",
                      "unknown workload: ", workload);
    mg::sim::InputSetSpec spec =
        mg::sim::inputSetSpec(human ? "A-human" : "B-yeast");
    // The pangenome is the workload's fixed reference (the analog's own
    // seed); the workload seed draws the reads.  The generator's repeat
    // library changes with the pangenome seed, and on the small B-yeast
    // graph that alone moves mapping cost per read by about 20% between
    // seeds, more than any bound the benchmark could hold.
    spec.reads.seed = mix(spec.reads.seed, seed);
    mg::sim::InputSet set = mg::sim::buildInputSet(spec, human ? 8.0 : 1.0);

    const mg::graph::VariationGraph& graph = set.pangenome.graph;
    const mg::gbwt::Gbwt& gbwt = set.pangenome.gbwt;
    mg::index::MinimizerIndex minimizers(graph, mg::index::MinimizerParams{});
    mg::index::DistanceIndex distance(graph);
    mg::io::saveMgz3(dir + "/pangenome.mgz3", graph, gbwt, minimizers,
                     distance);
    if (!human) {
        mg::io::saveFastq(dir + "/reads.fastq", set.reads);
        return;
    }
    // The proxy's input is the parent's preprocessing capture; the parent's
    // own critical-function output is the reference it must reproduce.
    mg::giraffe::ParentParams params;
    params.numThreads = nproc;
    mg::giraffe::ParentEmulator parent(graph, gbwt, minimizers, distance,
                                       params);
    mg::io::saveSeedCapture(dir + "/capture.seeds.bin",
                            parent.capturePreprocessing(set.reads));
    mg::io::saveExtensions(dir + "/expected.ext",
                           parent.run(set.reads).extensions);
}

} // namespace perfbench
