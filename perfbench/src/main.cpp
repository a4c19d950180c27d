// mg_perfbench: the repository benchmark's measuring program.
//
//   mg_perfbench gen --workload W --seed N --dir D --nproc P
//       writes the workload's inputs for seed N into D;
//   mg_perfbench run --workload W --seed N --seconds S --trace 0|1
//                    --dir D --out F --nproc P --commit C --slo-p99-ms L
//       measures from the files in D, prints the table and verdict and
//       writes the full record to F.  Exit 0 means the run completed
//       (the record's `correct` says whether the outputs checked out).
//
// perfbench/run.py builds this program and drives it; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "harness.h"
#include "util/common.h"
#include "util/status.h"

namespace {

std::map<std::string, std::string>
parseArgs(int argc, char** argv)
{
    std::map<std::string, std::string> args;
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        mg::util::require(key.rfind("--", 0) == 0 && i + 1 < argc,
                          "expected --name value, got ", key);
        args[key.substr(2)] = argv[++i];
    }
    return args;
}

std::string
need(const std::map<std::string, std::string>& args, const std::string& key)
{
    auto it = args.find(key);
    mg::util::require(it != args.end(), "missing --", key);
    return it->second;
}

} // namespace

int
main(int argc, char** argv)
try {
    mg::util::require(argc >= 2, "usage: mg_perfbench gen|run --name value...");
    const std::string command = argv[1];
    const auto args = parseArgs(argc, argv);
    const std::string workload = need(args, "workload");
    const uint64_t seed =
        std::strtoull(need(args, "seed").c_str(), nullptr, 10);
    const size_t nproc =
        std::strtoull(need(args, "nproc").c_str(), nullptr, 10);
    mg::util::require(nproc >= 1, "--nproc must be at least 1");
    if (command == "gen") {
        perfbench::generateInputs(workload, seed, need(args, "dir"), nproc);
        return 0;
    }
    mg::util::require(command == "run", "unknown command: ", command);

    perfbench::Options options;
    options.workload = workload;
    options.seed = seed;
    options.nproc = nproc;
    options.seconds = std::strtod(need(args, "seconds").c_str(), nullptr);
    options.trace = need(args, "trace") == "1";
    options.dir = need(args, "dir");
    options.out = need(args, "out");
    options.commit = need(args, "commit");
    options.sloP99Ms = std::strtod(need(args, "slo-p99-ms").c_str(), nullptr);
    mg::util::require(options.seconds > 0.0, "--seconds must be positive");

    perfbench::Record record;
    perfbench::stampRun(record, options);
    if (workload == "human-proxy") {
        perfbench::runHumanProxy(options, record);
    } else if (workload == "yeast-giraffe") {
        perfbench::runYeastGiraffe(options, record);
    } else if (workload == "yeast-serve") {
        perfbench::runYeastServe(options, record);
    } else {
        throw mg::util::Error("unknown workload: " + workload);
    }
    record.print(options);
    record.write(options);
    return 0;
} catch (const mg::util::StatusError& e) {
    std::fprintf(stderr, "mg_perfbench: %s\n", e.status().toString().c_str());
    return 2;
} catch (const std::exception& e) {
    std::fprintf(stderr, "mg_perfbench: %s\n", e.what());
    return 2;
}
