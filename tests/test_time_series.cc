/**
 * @file
 * Unit tests for trace::TimeSeries: construction, statistics, arithmetic,
 * slicing/resampling, and the week-averaging operator (Eq. 4).
 */

#include <cmath>
#include <cstdint>
#include <random>

#include <gtest/gtest.h>

#include "trace/time_series.h"
#include "util/error.h"

namespace {

using sosim::trace::TimeSeries;
using sosim::trace::averageWeeks;
using sosim::trace::sumSeries;
using sosim::util::FatalError;

TEST(TimeSeries, DefaultConstructedIsEmpty)
{
    TimeSeries ts;
    EXPECT_TRUE(ts.empty());
    EXPECT_EQ(ts.size(), 0u);
    EXPECT_EQ(ts.intervalMinutes(), 1);
}

TEST(TimeSeries, ConstructionStoresSamplesAndInterval)
{
    TimeSeries ts({1.0, 2.0, 3.0}, 5);
    EXPECT_EQ(ts.size(), 3u);
    EXPECT_EQ(ts.intervalMinutes(), 5);
    EXPECT_EQ(ts.durationMinutes(), 15);
    EXPECT_DOUBLE_EQ(ts[0], 1.0);
    EXPECT_DOUBLE_EQ(ts[2], 3.0);
}

TEST(TimeSeries, RejectsNonPositiveInterval)
{
    EXPECT_THROW(TimeSeries({1.0}, 0), FatalError);
    EXPECT_THROW(TimeSeries({1.0}, -3), FatalError);
}

TEST(TimeSeries, ZerosAndConstantFactories)
{
    const auto z = TimeSeries::zeros(4, 2);
    EXPECT_EQ(z.size(), 4u);
    EXPECT_DOUBLE_EQ(z.sum(), 0.0);
    const auto c = TimeSeries::constant(3, 2.5);
    EXPECT_DOUBLE_EQ(c.sum(), 7.5);
    EXPECT_DOUBLE_EQ(c.peak(), 2.5);
    EXPECT_DOUBLE_EQ(c.valley(), 2.5);
}

TEST(TimeSeries, CheckedAccessThrowsOutOfRange)
{
    TimeSeries ts({1.0, 2.0});
    EXPECT_DOUBLE_EQ(ts.at(1), 2.0);
    EXPECT_THROW(ts.at(2), FatalError);
    ts.at(0) = 9.0;
    EXPECT_DOUBLE_EQ(ts[0], 9.0);
}

TEST(TimeSeries, PeakValleyMean)
{
    TimeSeries ts({1.0, 5.0, 3.0, 5.0, 0.5});
    EXPECT_DOUBLE_EQ(ts.peak(), 5.0);
    EXPECT_EQ(ts.peakIndex(), 1u); // First maximum wins.
    EXPECT_DOUBLE_EQ(ts.valley(), 0.5);
    EXPECT_DOUBLE_EQ(ts.mean(), 14.5 / 5.0);
}

TEST(TimeSeries, StatisticsOnEmptySeriesThrow)
{
    TimeSeries ts;
    EXPECT_THROW(ts.peak(), FatalError);
    EXPECT_THROW(ts.valley(), FatalError);
    EXPECT_THROW(ts.mean(), FatalError);
    EXPECT_THROW(ts.percentile(50.0), FatalError);
}

TEST(TimeSeries, IntegralScalesWithInterval)
{
    TimeSeries one_min({2.0, 2.0}, 1);
    TimeSeries five_min({2.0, 2.0}, 5);
    EXPECT_DOUBLE_EQ(one_min.integralMinutes(), 4.0);
    EXPECT_DOUBLE_EQ(five_min.integralMinutes(), 20.0);
}

TEST(TimeSeries, PercentileInterpolatesOrderStatistics)
{
    TimeSeries ts({4.0, 1.0, 3.0, 2.0});
    EXPECT_DOUBLE_EQ(ts.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(ts.percentile(100.0), 4.0);
    EXPECT_DOUBLE_EQ(ts.percentile(50.0), 2.5);
    EXPECT_THROW(ts.percentile(-1.0), FatalError);
    EXPECT_THROW(ts.percentile(101.0), FatalError);
}

TEST(TimeSeries, PercentileSingleSample)
{
    TimeSeries ts({7.0});
    EXPECT_DOUBLE_EQ(ts.percentile(3.0), 7.0);
    EXPECT_DOUBLE_EQ(ts.percentile(97.0), 7.0);
}

TEST(TimeSeries, SliceExtractsSubRange)
{
    TimeSeries ts({1.0, 2.0, 3.0, 4.0, 5.0}, 5);
    const auto s = ts.slice(1, 3);
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.intervalMinutes(), 5);
    EXPECT_DOUBLE_EQ(s[0], 2.0);
    EXPECT_DOUBLE_EQ(s[2], 4.0);
    EXPECT_THROW(ts.slice(3, 3), sosim::util::FatalError);
    // first + len wraps around; the check must not.
    EXPECT_THROW(ts.slice(1, SIZE_MAX), sosim::util::FatalError);
    EXPECT_THROW(ts.slice(6, 0), sosim::util::FatalError);
}

TEST(TimeSeries, ResampleAveragesBuckets)
{
    TimeSeries ts({1.0, 3.0, 5.0, 7.0}, 5);
    const auto r = ts.resample(10);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r.intervalMinutes(), 10);
    EXPECT_DOUBLE_EQ(r[0], 2.0);
    EXPECT_DOUBLE_EQ(r[1], 6.0);
}

TEST(TimeSeries, ResamplePreservesMeanAndIntegral)
{
    TimeSeries ts({1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, 5);
    const auto r = ts.resample(15);
    EXPECT_DOUBLE_EQ(r.mean(), ts.mean());
    EXPECT_DOUBLE_EQ(r.integralMinutes(), ts.integralMinutes());
}

TEST(TimeSeries, ResampleRejectsBadIntervals)
{
    TimeSeries ts({1.0, 2.0, 3.0, 4.0}, 5);
    EXPECT_THROW(ts.resample(3), FatalError);   // Finer than current.
    EXPECT_THROW(ts.resample(7), FatalError);   // Not a multiple.
    EXPECT_THROW(ts.resample(15), FatalError);  // Doesn't divide evenly.
}

TEST(TimeSeries, ArithmeticIsElementWise)
{
    TimeSeries a({1.0, 2.0}, 5);
    TimeSeries b({10.0, 20.0}, 5);
    const auto sum = a + b;
    EXPECT_DOUBLE_EQ(sum[0], 11.0);
    EXPECT_DOUBLE_EQ(sum[1], 22.0);
    const auto diff = b - a;
    EXPECT_DOUBLE_EQ(diff[0], 9.0);
    const auto scaled = a * 3.0;
    EXPECT_DOUBLE_EQ(scaled[1], 6.0);
    const auto scaled2 = 3.0 * a;
    EXPECT_DOUBLE_EQ(scaled2[1], 6.0);
}

TEST(TimeSeries, ArithmeticRejectsMisalignedSeries)
{
    TimeSeries a({1.0, 2.0}, 5);
    TimeSeries size_mismatch({1.0}, 5);
    TimeSeries interval_mismatch({1.0, 2.0}, 10);
    EXPECT_THROW(a + size_mismatch, FatalError);
    EXPECT_THROW(a + interval_mismatch, FatalError);
    EXPECT_FALSE(a.alignedWith(size_mismatch));
    EXPECT_FALSE(a.alignedWith(interval_mismatch));
    EXPECT_TRUE(a.alignedWith(a));
}

TEST(TimeSeries, ElementWiseMax)
{
    TimeSeries a({1.0, 5.0, 2.0});
    TimeSeries b({3.0, 1.0, 2.0});
    const auto m = a.elementWiseMax(b);
    EXPECT_DOUBLE_EQ(m[0], 3.0);
    EXPECT_DOUBLE_EQ(m[1], 5.0);
    EXPECT_DOUBLE_EQ(m[2], 2.0);
}

TEST(TimeSeries, ClampBoundsSamples)
{
    TimeSeries ts({-1.0, 0.5, 2.0});
    ts.clamp(0.0, 1.0);
    EXPECT_DOUBLE_EQ(ts[0], 0.0);
    EXPECT_DOUBLE_EQ(ts[1], 0.5);
    EXPECT_DOUBLE_EQ(ts[2], 1.0);
    EXPECT_THROW(ts.clamp(1.0, 0.0), FatalError);
}

TEST(TimeSeries, SumSeriesAddsAllMembers)
{
    std::vector<sosim::trace::TimeSeries> v = {
        TimeSeries({1.0, 1.0}, 5),
        TimeSeries({2.0, 3.0}, 5),
    };
    const auto s = sumSeries(v);
    EXPECT_DOUBLE_EQ(s[0], 3.0);
    EXPECT_DOUBLE_EQ(s[1], 4.0);
}

TEST(TimeSeries, SumSeriesOfPointersSkipsNull)
{
    TimeSeries a({1.0, 2.0}, 5);
    TimeSeries b({3.0, 4.0}, 5);
    const auto s = sumSeries(
        std::vector<const TimeSeries *>{&a, nullptr, &b});
    EXPECT_DOUBLE_EQ(s[0], 4.0);
    EXPECT_DOUBLE_EQ(s[1], 6.0);
    EXPECT_THROW(
        sumSeries(std::vector<const TimeSeries *>{nullptr, nullptr}),
        FatalError);
}

TEST(TimeSeries, AverageWeeksIsElementWiseMean)
{
    std::vector<sosim::trace::TimeSeries> weeks = {
        TimeSeries({2.0, 4.0}, 5),
        TimeSeries({4.0, 8.0}, 5),
    };
    const auto avg = averageWeeks(weeks);
    EXPECT_DOUBLE_EQ(avg[0], 3.0);
    EXPECT_DOUBLE_EQ(avg[1], 6.0);
    EXPECT_THROW(averageWeeks({}), FatalError);
}

/**
 * Property sweep: resampling by any divisor preserves the mean exactly
 * (it is a partition into equal buckets).
 */
class ResampleProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ResampleProperty, MeanInvariantUnderCoarsening)
{
    const int factor = GetParam();
    std::vector<double> samples(120);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = std::sin(static_cast<double>(i) * 0.37) + 2.0;
    TimeSeries ts(samples, 1);
    const auto r = ts.resample(factor);
    EXPECT_NEAR(r.mean(), ts.mean(), 1e-12);
    EXPECT_EQ(r.size(), samples.size() / static_cast<std::size_t>(factor));
}

INSTANTIATE_TEST_SUITE_P(Factors, ResampleProperty,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 10, 12, 15,
                                           20, 24, 30, 40, 60));

/**
 * Property sweep: peak of a sum never exceeds the sum of peaks
 * (the inequality underlying the asynchrony score's range).
 */
class PeakSubadditivity : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PeakSubadditivity, PeakOfSumAtMostSumOfPeaks)
{
    std::mt19937 rng(GetParam());
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    std::vector<double> a(50), b(50);
    for (std::size_t i = 0; i < 50; ++i) {
        a[i] = dist(rng);
        b[i] = dist(rng);
    }
    TimeSeries ta(a), tb(b);
    EXPECT_LE((ta + tb).peak(), ta.peak() + tb.peak() + 1e-12);
    EXPECT_GE((ta + tb).peak(), std::max(ta.peak(), tb.peak()) - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeakSubadditivity,
                         ::testing::Range(0u, 10u));

} // namespace
