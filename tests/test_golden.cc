/**
 * @file
 * Golden end-to-end determinism tests.
 *
 * The repo's determinism contract — the whole pipeline is a pure
 * function of its seeds, and util::parallelFor produces identical
 * results at any thread count — is pinned here with committed digests:
 * an FNV-1a hash over the final assignment plus the headroom summary
 * (doubles rounded to 6 decimals via util::fmtFixed so the digest
 * hashes decimal text, not raw bits, and survives benign libm
 * differences), and the FaultPlan fingerprint (integer-only, therefore
 * exact on every platform).
 *
 * Updating the digests
 * --------------------
 * A digest change is a *behavioral* change to placement, remapping,
 * headroom accounting, trace generation, or fault scheduling.  If the
 * change is intentional:
 *
 *   1. Run this test; the failure message prints the new value.
 *      (Or: ctest -R Golden --output-on-failure)
 *   2. Replace the corresponding kGolden* constant below.
 *   3. Say why in the commit message — a digest bump with no stated
 *      reason is a regression until proven otherwise.
 *
 * If you did not intend to change pipeline behavior, do not update the
 * constant; find the nondeterminism or the unintended change instead.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "core/headroom.h"
#include "core/placement.h"
#include "core/remap.h"
#include "fault/fault_plan.h"
#include "power/power_tree.h"
#include "util/parallel.h"
#include "util/table.h"
#include "workload/catalog.h"
#include "workload/dc_presets.h"
#include "workload/generator.h"

namespace {

using namespace sosim;

// ---------------------------------------------------------------------
// Committed golden values.  See the header comment for the update
// procedure.

constexpr std::uint64_t kGoldenPipelineDigest = 0xe61fda27aed13ed4;
constexpr std::uint64_t kGoldenFaultFingerprint = 0xb2672a1be3790ec1;
// Fleet-scale remap digest (population 4096, parallel cluster-pruned
// swap scan; see fleetDigest below).  Same update procedure as above.
constexpr std::uint64_t kGoldenFleetDigest = 0x98e83503b0275f74;
// Fleet-scale balanced placement digest (population 4096, the k-means
// split plus size balancing at every level; see fleetPlacementDigest
// below).  Same update procedure as above.
constexpr std::uint64_t kGoldenFleetPlacementDigest = 0x490c58424abc20bb;

// ---------------------------------------------------------------------
// FNV-1a, the same construction FaultPlan::fingerprint uses.

struct Digest {
    std::uint64_t h = 1469598103934665603ull;

    void mixByte(unsigned char b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }
    void mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            mixByte(static_cast<unsigned char>(v >> (8 * i)));
    }
    /** Hash the decimal text of x, not its bits: libm-robust. */
    void mix(double x, int digits = 6)
    {
        for (const char c : util::fmtFixed(x, digits))
            mixByte(static_cast<unsigned char>(c));
    }
};

workload::DatacenterSpec
goldenSpec()
{
    workload::DatacenterSpec spec;
    spec.name = "golden";
    spec.topology.suites = 1;
    spec.topology.msbsPerSuite = 2;
    spec.topology.sbsPerMsb = 2;
    spec.topology.rppsPerSb = 2;
    spec.topology.racksPerRpp = 2;
    spec.intervalMinutes = 30;
    spec.weeks = 2;
    spec.seed = 12345;
    spec.services.push_back({workload::webFrontend(), 20});
    spec.services.push_back({workload::dbBackend(), 20});
    spec.services.push_back({workload::hadoop(), 20});
    return spec;
}

/** Generate -> place -> remap -> evaluate, digesting the outcome. */
std::uint64_t
pipelineDigest()
{
    const auto spec = goldenSpec();
    const auto dc = workload::generate(spec);
    const auto training = dc.trainingTraces();
    const auto test = dc.testTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);

    power::PowerTree tree(spec.topology);
    const auto oblivious = baseline::obliviousPlacement(tree, service_of);
    core::PlacementEngine engine(tree, {});
    auto optimized = engine.place(training, service_of);
    core::Remapper remapper(tree, {});
    const auto swaps = remapper.refine(optimized, training);
    const auto report =
        core::comparePlacements(tree, test, oblivious, optimized);

    Digest d;
    for (const auto rack : optimized)
        d.mix(static_cast<std::uint64_t>(rack));
    d.mix(static_cast<std::uint64_t>(swaps.size()));
    for (const auto &lc : report.levels) {
        d.mix(lc.baselineSumPeaks);
        d.mix(lc.optimizedSumPeaks);
        d.mix(lc.peakReductionFraction);
    }
    d.mix(report.extraServerFraction());
    return d.h;
}

TEST(Golden, PipelineDigestMatchesCommittedValue)
{
    const auto digest = pipelineDigest();
    EXPECT_EQ(digest, kGoldenPipelineDigest)
        << "Pipeline digest changed. If intentional, update "
           "kGoldenPipelineDigest in tests/test_golden.cc to 0x"
        << std::hex << digest
        << " and explain the behavioral change in the commit message.";
}

TEST(Golden, PipelineDigestIsIdenticalAcrossRuns)
{
    EXPECT_EQ(pipelineDigest(), pipelineDigest());
}

TEST(Golden, PipelineDigestIsThreadCountInvariant)
{
    util::setThreadCount(1);
    const auto serial = pipelineDigest();
    util::setThreadCount(4);
    const auto pooled = pipelineDigest();
    util::setThreadCount(0); // Back to the default policy.
    EXPECT_EQ(serial, pooled);
}

/** The 4096-instance mixed fleet both fleet digests run on. */
struct GoldenFleet {
    workload::DatacenterSpec spec;
    std::vector<trace::TimeSeries> training;
    std::vector<std::size_t> serviceOf;
};

GoldenFleet
goldenFleet()
{
    workload::PresetOptions options;
    options.intervalMinutes = 30;
    options.weeks = 2;
    GoldenFleet fleet;
    fleet.spec = workload::buildFleetSpec(4096, options);
    const auto dc = workload::generate(fleet.spec);
    fleet.training = dc.trainingTraces();
    fleet.serviceOf.resize(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        fleet.serviceOf[i] = dc.serviceOf(i);
    return fleet;
}

/**
 * Fleet-scale remap: oblivious placement of a 4096-instance mixed fleet,
 * refined by the parallel, cluster-pruned swap scan.  The digest covers
 * the refined assignment and the full swap plan (instances plus rounded
 * scores), so it pins the fleet path's determinism the way
 * pipelineDigest pins the bench-scale pipeline.
 */
std::uint64_t
fleetDigest()
{
    const auto fleet = goldenFleet();
    power::PowerTree tree(fleet.spec.topology);
    auto assignment = baseline::obliviousPlacement(tree, fleet.serviceOf);
    core::RemapConfig config;
    config.maxSwaps = 16;
    config.prune = core::PruneMode::kCluster;
    config.pruneKeepFraction = 0.25;
    core::Remapper remapper(tree, config);
    const auto swaps = remapper.refine(assignment, fleet.training);

    Digest d;
    for (const auto rack : assignment)
        d.mix(static_cast<std::uint64_t>(rack));
    d.mix(static_cast<std::uint64_t>(swaps.size()));
    for (const auto &swap : swaps) {
        d.mix(static_cast<std::uint64_t>(swap.instanceA));
        d.mix(static_cast<std::uint64_t>(swap.instanceB));
        d.mix(swap.scoreAtAAfter - swap.scoreAtABefore);
        d.mix(swap.scoreAtBAfter - swap.scoreAtBBefore);
    }
    return d.h;
}

TEST(Golden, FleetDigestMatchesCommittedValueAtAnyThreadCount)
{
    util::setThreadCount(1);
    const auto serial = fleetDigest();
    util::setThreadCount(4);
    const auto pooled = fleetDigest();
    util::setThreadCount(0);
    EXPECT_EQ(serial, pooled)
        << "fleet digest differs between 1 and 4 threads — the parallel "
           "scan broke the serial==parallel contract.";
    EXPECT_EQ(serial, kGoldenFleetDigest)
        << "Fleet digest changed. If intentional, update "
           "kGoldenFleetDigest in tests/test_golden.cc to 0x"
        << std::hex << serial
        << " and explain the behavioral change in the commit message.";
}

/**
 * Fleet-scale balanced placement: PlacementEngine::place on the same
 * 4096-instance fleet.  At this population every split runs k-means and
 * then cluster::equalizeClusterSizes on hundreds of points, so the
 * digest pins the size balancing that the pipeline digest (population
 * 384) covers only at small n.
 */
std::uint64_t
fleetPlacementDigest()
{
    const auto fleet = goldenFleet();
    power::PowerTree tree(fleet.spec.topology);
    const auto assignment = core::PlacementEngine(tree, {}).place(
        fleet.training, fleet.serviceOf);

    Digest d;
    for (const auto rack : assignment)
        d.mix(static_cast<std::uint64_t>(rack));
    return d.h;
}

TEST(Golden, FleetPlacementDigestMatchesCommittedValueAtAnyThreadCount)
{
    util::setThreadCount(1);
    const auto serial = fleetPlacementDigest();
    util::setThreadCount(4);
    const auto pooled = fleetPlacementDigest();
    util::setThreadCount(0);
    EXPECT_EQ(serial, pooled)
        << "fleet placement digest differs between 1 and 4 threads.";
    EXPECT_EQ(serial, kGoldenFleetPlacementDigest)
        << "Fleet placement digest changed. If intentional, update "
           "kGoldenFleetPlacementDigest in tests/test_golden.cc to 0x"
        << std::hex << serial
        << " and explain the behavioral change in the commit message.";
}

TEST(Golden, FaultPlanFingerprintMatchesCommittedValue)
{
    // Integer-only RNG draws: exact on every platform and toolchain.
    const auto plan = fault::FaultPlan::build(
        7, fault::faultProfile("harsh"), {120, 336});
    EXPECT_EQ(plan.fingerprint(), kGoldenFaultFingerprint)
        << "FaultPlan schedule changed. If intentional, update "
           "kGoldenFaultFingerprint in tests/test_golden.cc to 0x"
        << std::hex << plan.fingerprint()
        << " and explain the scheduling change in the commit message.";
}

} // namespace
