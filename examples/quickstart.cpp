/**
 * @file
 * Quickstart: the whole miniGiraffe stack in one small program.
 *
 *   1. Generate a toy pangenome (population model) and index it (GBWT,
 *      minimizers, distance index).
 *   2. Save / reload it through the MGZ container.
 *   3. Simulate a handful of short reads.
 *   4. Map them with the full parent pipeline and print the alignments.
 *
 * Run:  ./examples/quickstart [--reads N] [--seed S]
 */
#include <cstdio>

#include "giraffe/parent.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/file.h"
#include "io/mgz.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"
#include "util/flags.h"

int
main(int argc, char** argv)
{
    mg::util::Flags flags("quickstart");
    flags.define("reads", "12", "number of reads to simulate and map")
         .define("seed", "42", "generation seed")
         .define("mgz", "", "optional path to save the pangenome as MGZ");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }

    // 1. A small pangenome: ~20 kb backbone, 8 haplotypes.
    mg::sim::PangenomeParams pparams;
    pparams.seed = flags.uinteger("seed");
    pparams.backboneLength = 20000;
    pparams.haplotypes = 8;
    mg::sim::GeneratedPangenome pg = mg::sim::generatePangenome(pparams);
    std::printf("pangenome: %zu nodes, %zu edges, %zu haplotypes, "
                "%zu graph bases\n",
                pg.graph.numNodes(), pg.graph.numEdges(),
                pg.graph.numPaths(), pg.graph.totalSequenceLength());

    // 2. Round-trip through the MGZ container (the GBZ stand-in).
    std::vector<uint8_t> mgz = mg::io::encodeMgz(pg.graph, pg.gbwt);
    std::printf("mgz container: %zu bytes compressed\n", mgz.size());
    if (!flags.str("mgz").empty()) {
        mg::io::writeFileBytes(flags.str("mgz"), mgz);
        std::printf("saved to %s\n", flags.str("mgz").c_str());
    }
    mg::io::Pangenome loaded = mg::io::decodeMgz(mgz);

    // 3. Indexes over the loaded graph.
    mg::index::MinimizerParams mparams;
    mparams.k = 15;
    mparams.w = 8;
    mg::index::MinimizerIndex minimizers(loaded.graph, mparams);
    mg::index::DistanceIndex distance(loaded.graph);
    std::printf("minimizer index: %zu keys, %zu entries\n",
                minimizers.numKeys(), minimizers.numEntries());

    // 4. Simulate reads from the *generated* haplotypes and map them
    //    against the *loaded* pangenome.
    mg::sim::ReadSimParams rparams;
    rparams.seed = pparams.seed + 1;
    rparams.count = flags.uinteger("reads");
    rparams.readLength = 120;
    rparams.errorRate = 0.01;
    mg::map::ReadSet reads = mg::sim::simulateReads(pg, rparams);

    mg::giraffe::ParentParams gparams;
    mg::giraffe::ParentEmulator giraffe(loaded.graph, loaded.gbwt,
                                        minimizers, distance, gparams);
    mg::giraffe::ParentOutputs outputs = giraffe.run(reads);

    std::printf("\n%-10s %-6s %-7s %-5s %-6s %s\n", "read", "mapped",
                "strand", "score", "mapq", "path");
    for (const mg::giraffe::Alignment& alignment : outputs.alignments) {
        if (!alignment.mapped) {
            std::printf("%-10s no\n", alignment.readName.c_str());
            continue;
        }
        std::string path;
        for (mg::graph::Handle step : alignment.path) {
            path += step.str() + " ";
        }
        std::printf("%-10s yes    %-7s %-5d %-6d %s\n",
                    alignment.readName.c_str(),
                    alignment.onReverseRead ? "-" : "+", alignment.score,
                    alignment.mappingQuality, path.c_str());
    }
    std::printf("\nmapped %zu reads in %.3f s; GBWT cache hit rate %.3f\n",
                reads.size(), outputs.wallSeconds,
                outputs.cacheStats.hitRate());
    return 0;
}
