/**
 * @file
 * The *host* machine, as opposed to the modelled Table II machines in
 * config.h.  Every run record (JSON summaries, bench outputs) embeds this
 * description so results stay attributable to the architecture that
 * produced them.
 */
#pragma once

#include <string>

namespace mg::machine {

/** The host CPU, described once per process. */
struct HostCpu
{
    /** Compile-target architecture ("x86_64", "aarch64", "unknown"). */
    std::string arch;
};

/** The cached description (first call fills it in). */
const HostCpu& hostCpu();

} // namespace mg::machine
