/**
 * @file
 * Property tests for the TraceArena SoA store and the arena-side
 * kernels (trace/arena.h, trace/kernels.h): arena round-trips,
 * early-reject decision parity (NaN-laced inputs included), the
 * arena-packed embedding, and a remap fuzz that checks the
 * incremental running-sum scores against full from-scratch
 * recomputation.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/oblivious.h"
#include "core/asynchrony.h"
#include "core/remap.h"
#include "power/power_tree.h"
#include "trace/arena.h"
#include "trace/kernels.h"
#include "trace/time_series.h"
#include "workload/catalog.h"
#include "workload/generator.h"

namespace {

using namespace sosim;
using trace::peakOfAddScaledDiff;
using trace::peakOfAddScaledDiffEarlyReject;
using trace::peakOfScaledSum;
using trace::peakOfScaledSumEarlyReject;
using trace::TimeSeries;
using trace::TraceArena;
using trace::TraceView;

/** Peaks agree: equal, or both NaN. */
bool
samePeak(double got, double want)
{
    return got == want || (std::isnan(got) && std::isnan(want));
}

/** Random finite trace with positive, negative and zero stretches. */
TimeSeries
randomTrace(std::mt19937 &rng, std::size_t n, int interval = 5)
{
    std::uniform_real_distribution<double> dist(-3.0, 3.0);
    std::bernoulli_distribution zero_run(0.1);
    std::vector<double> samples(n);
    for (auto &s : samples)
        s = zero_run(rng) ? 0.0 : dist(rng);
    return TimeSeries(std::move(samples), interval);
}

TEST(TraceArena, RoundTripsSeriesAndAlignsRows)
{
    std::mt19937 rng(7);
    std::vector<TimeSeries> bundle;
    for (int i = 0; i < 5; ++i)
        bundle.push_back(randomTrace(rng, 203));

    const TraceArena arena = TraceArena::fromSeries(bundle, 2);
    EXPECT_EQ(arena.size(), 5u);
    EXPECT_EQ(arena.capacity(), 7u);
    EXPECT_EQ(arena.samplesPerTrace(), 203u);
    EXPECT_EQ(arena.rowStride() % TraceArena::kAlignDoubles, 0u);

    for (std::size_t i = 0; i < bundle.size(); ++i) {
        const TraceView v = arena.view(i);
        ASSERT_EQ(v.size(), bundle[i].size());
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                      TraceArena::kAlignBytes,
                  0u);
        // The row holds the series' samples and interval exactly.
        EXPECT_EQ(std::vector<double>(v.begin(), v.end()),
                  bundle[i].samples());
        EXPECT_EQ(v.intervalMinutes(), bundle[i].intervalMinutes());
        // The padding tail past the last sample reads as zeros.
        for (std::size_t s = arena.samplesPerTrace(); s < arena.rowStride();
             ++s)
            EXPECT_EQ(arena.row(i)[s], 0.0);
    }
}

TEST(TraceArena, CopiesAreDeepAndZeroRowsAreZero)
{
    std::mt19937 rng(17);
    std::vector<TimeSeries> bundle = {randomTrace(rng, 64)};
    TraceArena a = TraceArena::fromSeries(bundle, 1);
    const trace::TraceId scratch = a.addZeros();
    for (std::size_t s = 0; s < a.samplesPerTrace(); ++s)
        EXPECT_EQ(a.view(scratch)[s], 0.0);

    TraceArena b = a;
    b.mutableRow(0)[0] = 42.0;
    EXPECT_EQ(a.view(0)[0], bundle[0][0]);
    EXPECT_EQ(b.view(0)[0], 42.0);

    // A move takes the rows over; a copy-assignment is deep again.
    TraceArena c = std::move(b);
    EXPECT_EQ(c.view(0)[0], 42.0);
    c = a;
    EXPECT_EQ(c.view(0)[0], bundle[0][0]);
    c.mutableRow(0)[0] = 7.0;
    EXPECT_EQ(a.view(0)[0], bundle[0][0]);

    // A fresh arena of the same size reads as zeros, padding included.
    c = TraceArena(a.capacity(), a.samplesPerTrace(), a.intervalMinutes());
    for (std::size_t r = 0; r < c.capacity(); ++r) {
        const trace::TraceId id = c.addZeros();
        for (std::size_t s = 0; s < c.rowStride(); ++s)
            ASSERT_EQ(c.row(id)[s], 0.0);
    }
}

TEST(EarlyRejectKernels, DecisionsAndAcceptedValuesMatchFullScan)
{
    std::mt19937 rng(37);
    std::uniform_real_distribution<double> scales(0.05, 4.0);
    std::uniform_real_distribution<double> numerators(0.1, 8.0);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t n = 1 + rng() % 300;
        const TimeSeries a = randomTrace(rng, n);
        const TimeSeries b = randomTrace(rng, n);
        const TimeSeries c = randomTrace(rng, n);
        const double s = scales(rng);
        const double num = numerators(rng);

        const auto scoreOf = [&](double peak) {
            return peak <= 0.0 ? 0.0 : num / peak;
        };
        const double full_ss = peakOfScaledSum(a, b, s);
        const double full_asd = peakOfAddScaledDiff(c, a, b, s);
        // Thresholds straddling the true score exercise both branches;
        // the caller-side accept test must take the identical branch,
        // and accepted values must be bit-identical.
        for (const double threshold :
             {scoreOf(full_ss) * 0.7, scoreOf(full_ss) * 1.3, 0.0}) {
            const double er =
                peakOfScaledSumEarlyReject(a, b, s, num, threshold);
            EXPECT_EQ(scoreOf(er) > threshold,
                      scoreOf(full_ss) > threshold);
            if (scoreOf(er) > threshold) {
                EXPECT_EQ(er, full_ss);
            }
        }
        for (const double threshold :
             {scoreOf(full_asd) * 0.7, scoreOf(full_asd) * 1.3, 0.0}) {
            const double er = peakOfAddScaledDiffEarlyReject(
                c, a, b, s, num, threshold);
            EXPECT_EQ(scoreOf(er) > threshold,
                      scoreOf(full_asd) > threshold);
            if (scoreOf(er) > threshold) {
                EXPECT_EQ(er, full_asd);
            }
        }
    }

    // NaN-laced operands, against the materialized peak() with a
    // threshold that never rejects (numerator / peak > 0 for any
    // positive peak).  A NaN at a chunk start (256, 512) must not lose
    // that chunk; a NaN first element makes the whole peak NaN.
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t n = 1; n <= 600; ++n) {
        for (const std::size_t pos : {std::size_t{0}, std::size_t{256},
                                      std::size_t{512}, rng() % n, n - 1}) {
            if (pos >= n)
                continue;
            TimeSeries a = randomTrace(rng, n);
            TimeSeries b = randomTrace(rng, n);
            TimeSeries c = randomTrace(rng, n);
            const double s = scales(rng);
            const double num = numerators(rng);
            TimeSeries *const operands[] = {&a, &b, &c};
            (*operands[rng() % 3])[pos] = kNaN;

            EXPECT_PRED2(samePeak,
                         peakOfScaledSumEarlyReject(a, b, s, num, 0.0),
                         (a + b * s).peak());
            EXPECT_PRED2(samePeak,
                         peakOfAddScaledDiffEarlyReject(c, a, b, s, num, 0.0),
                         (c + (a - b) * s).peak());
        }
    }
}

TEST(ScoreVectorsBlocked, MatchesFusedEmbeddingOnFiniteTraces)
{
    workload::DatacenterSpec spec;
    spec.name = "arena-test";
    spec.topology = {1, 1, 2, 2, 2};
    spec.intervalMinutes = 60;
    spec.weeks = 2;
    spec.seed = 5;
    spec.services.push_back({workload::webFrontend(), 6});
    spec.services.push_back({workload::dbBackend(), 6});
    const auto dc = workload::generate(spec);
    const auto itraces = dc.trainingTraces();
    std::vector<TimeSeries> straces;
    for (int i = 0; i < 4; ++i)
        straces.push_back(itraces[i * 2]);

    const auto fused = core::scoreVectors(itraces, straces);
    const auto blocked = core::scoreVectorsBlocked(itraces, straces);
    ASSERT_EQ(blocked.size(), fused.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
        ASSERT_EQ(blocked[i].size(), fused[i].size());
        for (std::size_t j = 0; j < fused[i].size(); ++j)
            EXPECT_DOUBLE_EQ(blocked[i][j], fused[i][j]);
    }
}

/**
 * Differential score of `inst` against the other members of a rack,
 * recomputed from scratch with materializing TimeSeries arithmetic —
 * the formulation core::remap's incremental running-sum rows replace.
 */
double
diffScoreRecomputed(const TimeSeries &inst,
                    const std::vector<const TimeSeries *> &others)
{
    if (others.empty())
        return 2.0;
    TimeSeries agg = TimeSeries::zeros(
        inst.size(), inst.intervalMinutes());
    for (const TimeSeries *o : others)
        agg = agg + *o;
    const double s = 1.0 / static_cast<double>(others.size());
    const double numerator = inst.peak() + s * agg.peak();
    const double denominator = (inst + agg * s).peak();
    return denominator <= 0.0 ? 0.0 : numerator / denominator;
}

TEST(RemapFuzz, IncrementalScoresMatchRecomputeAndReplay)
{
    workload::DatacenterSpec spec;
    spec.name = "remap-fuzz";
    spec.topology = {2, 2, 2, 2, 2};
    spec.intervalMinutes = 60;
    spec.weeks = 2;
    spec.seed = 23;
    spec.services.push_back({workload::webFrontend(), 16});
    spec.services.push_back({workload::dbBackend(), 16});
    spec.services.push_back({workload::hadoop(), 16});
    const auto dc = workload::generate(spec);
    const auto itraces = dc.trainingTraces();
    std::vector<std::size_t> service_of(dc.instanceCount());
    for (std::size_t i = 0; i < dc.instanceCount(); ++i)
        service_of[i] = dc.serviceOf(i);

    power::PowerTree tree(dc.spec().topology);
    const power::Assignment start =
        baseline::obliviousPlacement(tree, service_of);

    core::RemapConfig rc;
    rc.maxSwaps = 8;
    const core::Remapper remapper(tree, rc);
    power::Assignment refined = start;
    const auto swaps = remapper.refine(refined, itraces);
    ASSERT_FALSE(swaps.empty());

    // Replay each swap on a copy, checking the recorded before/after
    // scores against full from-scratch recomputation at every step —
    // the arena's incremental running-sum rows must not drift.
    power::Assignment replay = start;
    const auto membersOf = [&](power::NodeId rack, std::size_t except) {
        std::vector<const TimeSeries *> members;
        for (std::size_t i = 0; i < replay.size(); ++i)
            if (replay[i] == rack && i != except)
                members.push_back(&itraces[i]);
        return members;
    };
    for (const auto &swap : swaps) {
        ASSERT_EQ(replay[swap.instanceA], swap.rackA);
        ASSERT_EQ(replay[swap.instanceB], swap.rackB);
        const auto others_a = membersOf(swap.rackA, swap.instanceA);
        const auto others_b = membersOf(swap.rackB, swap.instanceB);
        EXPECT_NEAR(swap.scoreAtABefore,
                    diffScoreRecomputed(itraces[swap.instanceA], others_a),
                    1e-9);
        EXPECT_NEAR(swap.scoreAtBBefore,
                    diffScoreRecomputed(itraces[swap.instanceB], others_b),
                    1e-9);
        EXPECT_NEAR(swap.scoreAtAAfter,
                    diffScoreRecomputed(itraces[swap.instanceB], others_a),
                    1e-9);
        EXPECT_NEAR(swap.scoreAtBAfter,
                    diffScoreRecomputed(itraces[swap.instanceA], others_b),
                    1e-9);
        // Accepted swaps must improve both sides (section 3.6).
        EXPECT_GT(swap.scoreAtAAfter, swap.scoreAtABefore);
        EXPECT_GT(swap.scoreAtBAfter, swap.scoreAtBBefore);
        replay[swap.instanceA] = swap.rackB;
        replay[swap.instanceB] = swap.rackA;
    }
    EXPECT_EQ(replay, refined);
}

} // namespace
