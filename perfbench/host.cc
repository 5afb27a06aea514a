#include "host.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "trace/kernels.h"

namespace perfbench {

namespace {

std::string
readCpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

std::size_t
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return std::max(1u, std::thread::hardware_concurrency());
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/** A fixed, register-bound integer kernel (xorshift steps). */
std::uint64_t
spin(std::uint64_t steps)
{
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 0; i < steps; ++i) {
        x ^= x << 13U;
        x ^= x >> 7U;
        x ^= x << 17U;
    }
    return x;
}

/** Wall seconds for `threads` threads to each run `steps` spin steps. */
double
spinSeconds(std::size_t threads, std::uint64_t steps)
{
    std::vector<std::uint64_t> sink(threads);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back([&sink, t, steps] { sink[t] = spin(steps); });
    for (auto &th : pool)
        th.join();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    // Keep the kernel observable so it cannot be optimized away.
    volatile std::uint64_t keep = 0;
    for (const auto v : sink)
        keep = keep ^ v;
    (void)keep;
    return s;
}

/** threads x single-thread time / threads-wide time, median of 3. */
double
effectiveParallelism(std::size_t threads, std::uint64_t steps)
{
    if (threads <= 1)
        return 1.0;
    std::vector<double> ratios;
    for (int r = 0; r < 3; ++r) {
        const double one = spinSeconds(1, steps);
        const double many = spinSeconds(threads, steps);
        ratios.push_back(static_cast<double>(threads) * one / many);
    }
    std::sort(ratios.begin(), ratios.end());
    return ratios[1];
}

} // namespace

HostInfo
probeHost(std::size_t pool_width)
{
    HostInfo h;
    h.cpuModel = readCpuModel();
    h.kernelIsa = sosim::trace::kernelIsaName();
    h.buildType = PERFBENCH_BUILD_TYPE;
    h.nproc = affinityCpus();
    h.poolWidth = std::min(pool_width, h.nproc);
    constexpr std::uint64_t kSteps = 40'000'000;
    h.effectiveParallelismPool = effectiveParallelism(h.poolWidth, kSteps);
    h.effectiveParallelismNproc = effectiveParallelism(h.nproc, kSteps);
    return h;
}

std::string
hostJson(const HostInfo &h)
{
    std::ostringstream os;
    os << "{\"cpu_model\": \"" << h.cpuModel << "\", \"kernel_isa\": \""
       << h.kernelIsa << "\", \"build_type\": \"" << h.buildType
       << "\", \"nproc\": " << h.nproc << ", \"pool_width\": "
       << h.poolWidth << ", \"effective_parallelism_pool\": "
       << h.effectiveParallelismPool
       << ", \"effective_parallelism_nproc\": "
       << h.effectiveParallelismNproc << "}";
    return os.str();
}

} // namespace perfbench
