#include "machine/host.h"

namespace mg::machine {

const HostCpu&
hostCpu()
{
    static const HostCpu host = [] {
        HostCpu h;
#if defined(__x86_64__) || defined(_M_X64)
        h.arch = "x86_64";
#elif defined(__aarch64__)
        h.arch = "aarch64";
#else
        h.arch = "unknown";
#endif
        return h;
    }();
    return host;
}

} // namespace mg::machine
