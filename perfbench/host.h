#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

/**
 * @file
 * The host header every benchmark result carries: what machine and build
 * produced the numbers, and how much parallelism the machine really
 * delivers.  Effective parallelism is measured, never read from
 * std::thread::hardware_concurrency: on shared or throttled hosts N
 * spinning threads can deliver far less than N times the single-thread
 * rate.
 */

#include <cstddef>
#include <string>

namespace perfbench {

struct HostInfo {
    std::string cpuModel;
    std::string kernelIsa;
    std::string buildType;
    /** CPUs this process may run on (what `nproc` prints). */
    std::size_t nproc = 1;
    /** The fixed library pool width every workload runs with. */
    std::size_t poolWidth = 1;
    /** Aggregate spin rate of poolWidth threads over one thread's. */
    double effectiveParallelismPool = 1.0;
    /** Aggregate spin rate of nproc threads over one thread's. */
    double effectiveParallelismNproc = 1.0;
};

/** Probe the host; spins a fixed kernel for a fraction of a second. */
HostInfo probeHost(std::size_t pool_width);

/** The header as one JSON object. */
std::string hostJson(const HostInfo &h);

} // namespace perfbench

#endif // PERFBENCH_HOST_H
