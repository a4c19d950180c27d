/**
 * @file
 * Haplotype support reporting: map reads, then use GBWT locate() to list
 * which haplotypes contain each alignment's walk — the query behind
 * haplotype-aware genotyping.  Demonstrates the locate()/pathsThrough()
 * API on top of the mapping pipeline.
 *
 * Run:  ./examples/haplotype_support [--reads N] [--seed S]
 */
#include <cstdio>

#include "giraffe/parent.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"
#include "util/flags.h"

int
main(int argc, char** argv)
try {
    mg::util::Flags flags("haplotype_support");
    flags.define("reads", "8", "number of reads to map and report")
         .define("seed", "17", "generation seed");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }

    mg::sim::PangenomeParams pparams;
    pparams.seed = flags.uinteger("seed");
    pparams.backboneLength = 15000;
    pparams.haplotypes = 6;
    mg::sim::GeneratedPangenome pg = mg::sim::generatePangenome(pparams);

    mg::index::MinimizerParams mparams;
    mparams.k = 15;
    mparams.w = 8;
    mg::index::MinimizerIndex minimizers(pg.graph, mparams);
    mg::index::DistanceIndex distance(pg.graph);

    mg::sim::ReadSimParams rparams;
    rparams.seed = pparams.seed + 1;
    rparams.count = flags.uinteger("reads");
    rparams.readLength = 120;
    rparams.errorRate = 0.005;
    mg::map::ReadSet reads = mg::sim::simulateReads(pg, rparams);

    mg::giraffe::ParentEmulator giraffe(pg.graph, pg.gbwt, minimizers,
                                        distance,
                                        mg::giraffe::ParentParams());
    mg::giraffe::ParentOutputs outputs = giraffe.run(reads);

    std::printf("%-10s %-7s %-28s %s\n", "read", "mapped",
                "walk", "supporting haplotypes");
    for (const mg::giraffe::Alignment& alignment : outputs.alignments) {
        if (!alignment.mapped) {
            std::printf("%-10s no\n", alignment.readName.c_str());
            continue;
        }
        std::string walk;
        for (mg::graph::Handle step : alignment.path) {
            walk += step.str() + " ";
        }
        if (walk.size() > 27) {
            walk = walk.substr(0, 24) + "...";
        }
        // Oriented path ids: 2h = haplotype h forward, 2h+1 = reverse.
        std::string support;
        for (uint32_t id : pg.gbwt.pathsThrough(alignment.path)) {
            support += "hap" + std::to_string(id / 2);
            support += (id % 2) ? "-" : "+";
            support += " ";
        }
        if (support.empty()) {
            support = "(recombinant walk: no single haplotype)";
        }
        std::printf("%-10s yes     %-28s %s\n",
                    alignment.readName.c_str(), walk.c_str(),
                    support.c_str());
    }
    return 0;
} catch (const mg::util::Error& e) {
    std::fprintf(stderr, "haplotype_support: %s\n", e.what());
    return 1;
}
