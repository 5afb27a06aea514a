/**
 * @file
 * Property tests for the fused trace kernels (trace/kernels.h) against
 * the materializing reference formulas, plus TraceStats and the rule
 * that stats always reflect the current samples.  The kernels' contract is bit-identity with
 * the TimeSeries-temporary formulation they replace, over arbitrary
 * sample values — including negative and all-zero traces.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "trace/kernels.h"
#include "trace/time_series.h"
#include "util/error.h"

namespace {

using sosim::trace::accumulatePeak;
using sosim::trace::computeStats;
using sosim::trace::peakOf;
using sosim::trace::peakOfAddScaledDiff;
using sosim::trace::peakOfDiff;
using sosim::trace::peakOfScaledSum;
using sosim::trace::peakOfSum;
using sosim::trace::TimeSeries;
using sosim::trace::TraceView;
using sosim::util::FatalError;

/** Peaks agree: equal, or both NaN. */
bool
samePeak(double got, double want)
{
    return got == want || (std::isnan(got) && std::isnan(want));
}

/**
 * The materializing reference peak: the strict left-to-right scalar scan
 * of computeStats(), not the vector scan peak() shares with the kernels.
 */
double
scalarPeak(const TimeSeries &t)
{
    return computeStats(t).peak;
}

/** Random trace with positive, negative and zero stretches. */
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

TEST(TraceView, ViewsSeriesWithoutOwning)
{
    TimeSeries t({1.0, 2.0, 3.0}, 5);
    TraceView v(t);
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v.intervalMinutes(), 5);
    EXPECT_EQ(v.data(), t.samples().data());
    EXPECT_DOUBLE_EQ(v[1], 2.0);

    const auto sub = v.slice(1, 2);
    EXPECT_EQ(sub.size(), 2u);
    EXPECT_DOUBLE_EQ(sub[0], 2.0);
    EXPECT_THROW(v.slice(2, 2), FatalError);
    // first + len wraps around; the check must not.
    EXPECT_THROW(v.slice(1, SIZE_MAX), FatalError);
    EXPECT_THROW(v.slice(4, 0), FatalError);

    TraceView other(t.samples().data(), 3, 5);
    EXPECT_TRUE(v.alignedWith(other));
    TraceView coarser(t.samples().data(), 3, 10);
    EXPECT_FALSE(v.alignedWith(coarser));
}

TEST(Kernels, FusedPeaksMatchMaterializingReferenceOnRandomTraces)
{
    std::mt19937 rng(11);
    std::uniform_real_distribution<double> scales(0.05, 4.0);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 1 + rng() % 257;
        const TimeSeries a = randomTrace(rng, n);
        const TimeSeries b = randomTrace(rng, n);
        const TimeSeries c = randomTrace(rng, n);
        const double s = scales(rng);

        EXPECT_DOUBLE_EQ(peakOf(a), scalarPeak(a));
        EXPECT_DOUBLE_EQ(peakOfSum(a, b), scalarPeak(a + b));
        EXPECT_DOUBLE_EQ(peakOfScaledSum(a, b, s), scalarPeak(a + b * s));
        EXPECT_DOUBLE_EQ(peakOfDiff(a, b), scalarPeak(a - b));
        EXPECT_DOUBLE_EQ(peakOfAddScaledDiff(c, a, b, s),
                         scalarPeak(c + (a - b) * s));
    }

    // NaN-laced operands: the peak is NaN exactly when the first
    // element is, and later NaNs are skipped — the rule of
    // computeStats().  Positions cover the scan's first element,
    // 256-element chunk starts, a random element and the last one.
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
            TimeSeries *const operands[] = {&a, &b, &c};
            (*operands[rng() % 3])[pos] = kNaN;

            for (const TimeSeries *t : operands)
                EXPECT_PRED2(samePeak, peakOf(*t), scalarPeak(*t));
            EXPECT_PRED2(samePeak, peakOfSum(a, b), scalarPeak(a + b));
            EXPECT_PRED2(samePeak, peakOfScaledSum(a, b, s),
                         scalarPeak(a + b * s));
            EXPECT_PRED2(samePeak, peakOfDiff(a, b), scalarPeak(a - b));
            EXPECT_PRED2(samePeak, peakOfAddScaledDiff(c, a, b, s),
                         scalarPeak(c + (a - b) * s));
        }
    }
}

TEST(Kernels, AllZeroTraces)
{
    const TimeSeries zero = TimeSeries::zeros(16, 5);
    EXPECT_DOUBLE_EQ(peakOfSum(zero, zero), 0.0);
    EXPECT_DOUBLE_EQ(peakOfScaledSum(zero, zero, 2.5), 0.0);
    EXPECT_DOUBLE_EQ(peakOfDiff(zero, zero), 0.0);
    EXPECT_DOUBLE_EQ(peakOfAddScaledDiff(zero, zero, zero, 2.5), 0.0);
    TimeSeries acc = TimeSeries::zeros(16, 5);
    EXPECT_DOUBLE_EQ(accumulatePeak(acc, zero), 0.0);
}

TEST(Kernels, AllNegativeTraces)
{
    const TimeSeries a({-3.0, -1.0, -2.0}, 5);
    const TimeSeries b({-0.5, -4.0, -0.25}, 5);
    EXPECT_DOUBLE_EQ(peakOfSum(a, b), (a + b).peak());
    EXPECT_DOUBLE_EQ(peakOfSum(a, b), -2.25);
    EXPECT_DOUBLE_EQ(peakOfDiff(a, b), (a - b).peak());
    EXPECT_DOUBLE_EQ(peakOfScaledSum(a, b, 0.5), (a + b * 0.5).peak());
}

TEST(Kernels, AccumulatePeakSumsInPlaceAndReturnsRunningPeak)
{
    std::mt19937 rng(23);
    std::vector<TimeSeries> members;
    for (int i = 0; i < 6; ++i)
        members.push_back(randomTrace(rng, 64));

    TimeSeries acc = TimeSeries::zeros(64, 5);
    TimeSeries expected = TimeSeries::zeros(64, 5);
    for (const auto &m : members) {
        expected += m;
        EXPECT_DOUBLE_EQ(accumulatePeak(acc, m), expected.peak());
    }
    EXPECT_EQ(acc.samples(), expected.samples());
}

TEST(Kernels, RejectMisalignedAndEmptyOperands)
{
    const TimeSeries a({1.0, 2.0}, 5);
    const TimeSeries shorter({1.0}, 5);
    const TimeSeries coarser({1.0, 2.0}, 10);
    EXPECT_THROW(peakOfSum(a, shorter), FatalError);
    EXPECT_THROW(peakOfSum(a, coarser), FatalError);
    EXPECT_THROW(peakOfSum(TraceView(), TraceView()), FatalError);
    EXPECT_THROW(computeStats(TraceView()), FatalError);
    TimeSeries acc({1.0, 2.0}, 5);
    EXPECT_THROW(accumulatePeak(acc, shorter), FatalError);
}

TEST(TraceStats, OnePassStatsMatchDirectComputation)
{
    std::mt19937 rng(31);
    const TimeSeries t = randomTrace(rng, 128);
    const auto &st = t.stats();
    double peak = t[0], valley = t[0], sum = 0.0;
    std::size_t peak_index = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i] > peak) {
            peak = t[i];
            peak_index = i;
        }
        valley = std::min(valley, t[i]);
        sum += t[i];
    }
    EXPECT_DOUBLE_EQ(st.peak, peak);
    EXPECT_DOUBLE_EQ(st.valley, valley);
    EXPECT_DOUBLE_EQ(st.sum, sum);
    EXPECT_DOUBLE_EQ(st.mean, sum / 128.0);
    EXPECT_EQ(st.peakIndex, peak_index);
    // peakIndex is the *first* maximum, matching std::max_element.
    TimeSeries ties({2.0, 5.0, 5.0, 1.0}, 5);
    EXPECT_EQ(ties.peakIndex(), 1u);
}

TEST(TraceStats, CacheInvalidatedByEveryMutatingOperation)
{
    TimeSeries t({1.0, 5.0, 2.0}, 5);
    EXPECT_DOUBLE_EQ(t.peak(), 5.0);

    t[1] = 0.5; // Mutable operator[].
    EXPECT_DOUBLE_EQ(t.peak(), 2.0);

    t.at(2) = 9.0; // Mutable at().
    EXPECT_DOUBLE_EQ(t.peak(), 9.0);

    t *= 2.0;
    EXPECT_DOUBLE_EQ(t.peak(), 18.0);

    t += TimeSeries({1.0, 1.0, 1.0}, 5);
    EXPECT_DOUBLE_EQ(t.peak(), 19.0);

    t -= TimeSeries({0.0, 0.0, 10.0}, 5);
    EXPECT_DOUBLE_EQ(t.peak(), 9.0);
    EXPECT_DOUBLE_EQ(t.valley(), 2.0);

    t.clamp(0.0, 4.0);
    EXPECT_DOUBLE_EQ(t.peak(), 4.0);

    TimeSeries acc = TimeSeries::zeros(3, 5);
    EXPECT_DOUBLE_EQ(acc.peak(), 0.0);
    accumulatePeak(acc, t);
    EXPECT_DOUBLE_EQ(acc.peak(), 4.0);
}

TEST(TraceStats, CopiesCarryTheCacheIndependently)
{
    TimeSeries t({1.0, 3.0}, 5);
    EXPECT_DOUBLE_EQ(t.peak(), 3.0);
    TimeSeries copy = t;
    copy[0] = 10.0;
    EXPECT_DOUBLE_EQ(copy.peak(), 10.0);
    EXPECT_DOUBLE_EQ(t.peak(), 3.0); // Original cache untouched.
}

} // namespace
