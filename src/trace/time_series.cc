#include "time_series.h"

#include <algorithm>
#include <cmath>

#include "trace/kernels.h"
#include "util/error.h"

namespace sosim::trace {

TimeSeries::TimeSeries(std::vector<double> samples, int interval_minutes)
    : samples_(std::move(samples)), intervalMinutes_(interval_minutes)
{
    SOSIM_REQUIRE(interval_minutes >= 1,
                  "TimeSeries: interval must be >= 1 minute");
}

TimeSeries
TimeSeries::zeros(std::size_t n, int interval_minutes)
{
    return TimeSeries(std::vector<double>(n, 0.0), interval_minutes);
}

TimeSeries
TimeSeries::constant(std::size_t n, double value, int interval_minutes)
{
    return TimeSeries(std::vector<double>(n, value), interval_minutes);
}

double
TimeSeries::at(std::size_t i) const
{
    SOSIM_REQUIRE(i < samples_.size(), "TimeSeries::at: index out of range");
    return samples_[i];
}

double &
TimeSeries::at(std::size_t i)
{
    SOSIM_REQUIRE(i < samples_.size(), "TimeSeries::at: index out of range");
    return samples_[i];
}

TraceStats
TimeSeries::stats() const
{
    SOSIM_REQUIRE(!empty(), "TimeSeries::stats: series is empty");
    return computeStats(*this);
}

double
TimeSeries::peak() const
{
    SOSIM_REQUIRE(!empty(), "TimeSeries::peak: series is empty");
    return peakOf(*this);
}

std::size_t
TimeSeries::peakIndex() const
{
    return stats().peakIndex;
}

double
TimeSeries::valley() const
{
    return stats().valley;
}

double
TimeSeries::mean() const
{
    return stats().mean;
}

double
TimeSeries::sum() const
{
    if (empty())
        return 0.0;
    return stats().sum;
}

double
TimeSeries::integralMinutes() const
{
    return sum() * static_cast<double>(intervalMinutes_);
}

double
TimeSeries::percentile(double p) const
{
    SOSIM_REQUIRE(!empty(), "TimeSeries::percentile: series is empty");
    SOSIM_REQUIRE(p >= 0.0 && p <= 100.0,
                  "TimeSeries::percentile: p must be in [0, 100]");
    std::vector<double> sorted(samples_);
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1)
        return sorted.front();
    const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

TimeSeries
TimeSeries::slice(std::size_t first, std::size_t len) const
{
    SOSIM_REQUIRE(first <= samples_.size() && len <= samples_.size() - first,
                  "TimeSeries::slice: range out of bounds");
    std::vector<double> out(samples_.begin() + (long)first,
                            samples_.begin() + (long)(first + len));
    return TimeSeries(std::move(out), intervalMinutes_);
}

TimeSeries
TimeSeries::resample(int interval_minutes) const
{
    SOSIM_REQUIRE(interval_minutes >= intervalMinutes_,
                  "TimeSeries::resample: can only coarsen");
    SOSIM_REQUIRE(interval_minutes % intervalMinutes_ == 0,
                  "TimeSeries::resample: target interval must be a "
                  "multiple of the current interval");
    const std::size_t stride =
        static_cast<std::size_t>(interval_minutes / intervalMinutes_);
    SOSIM_REQUIRE(samples_.size() % stride == 0,
                  "TimeSeries::resample: target interval must divide the "
                  "duration evenly");
    std::vector<double> out;
    out.reserve(samples_.size() / stride);
    for (std::size_t i = 0; i < samples_.size(); i += stride) {
        double acc = 0.0;
        for (std::size_t j = 0; j < stride; ++j)
            acc += samples_[i + j];
        out.push_back(acc / static_cast<double>(stride));
    }
    return TimeSeries(std::move(out), interval_minutes);
}

TimeSeries &
TimeSeries::operator+=(const TimeSeries &other)
{
    SOSIM_REQUIRE(alignedWith(other), "TimeSeries::+=: misaligned series");
    for (std::size_t i = 0; i < samples_.size(); ++i)
        samples_[i] += other.samples_[i];
    return *this;
}

TimeSeries &
TimeSeries::operator-=(const TimeSeries &other)
{
    SOSIM_REQUIRE(alignedWith(other), "TimeSeries::-=: misaligned series");
    for (std::size_t i = 0; i < samples_.size(); ++i)
        samples_[i] -= other.samples_[i];
    return *this;
}

TimeSeries &
TimeSeries::operator*=(double factor)
{
    for (auto &s : samples_)
        s *= factor;
    return *this;
}

bool
TimeSeries::alignedWith(const TimeSeries &other) const
{
    return samples_.size() == other.samples_.size() &&
           intervalMinutes_ == other.intervalMinutes_;
}

TimeSeries
TimeSeries::elementWiseMax(const TimeSeries &other) const
{
    SOSIM_REQUIRE(alignedWith(other),
                  "TimeSeries::elementWiseMax: misaligned series");
    std::vector<double> out(samples_.size());
    for (std::size_t i = 0; i < samples_.size(); ++i)
        out[i] = std::max(samples_[i], other.samples_[i]);
    return TimeSeries(std::move(out), intervalMinutes_);
}

void
TimeSeries::clamp(double lo, double hi)
{
    SOSIM_REQUIRE(lo <= hi, "TimeSeries::clamp: lo must be <= hi");
    for (auto &s : samples_)
        s = std::clamp(s, lo, hi);
}

TimeSeries
operator+(TimeSeries lhs, const TimeSeries &rhs)
{
    lhs += rhs;
    return lhs;
}

TimeSeries
operator-(TimeSeries lhs, const TimeSeries &rhs)
{
    lhs -= rhs;
    return lhs;
}

TimeSeries
operator*(TimeSeries lhs, double factor)
{
    lhs *= factor;
    return lhs;
}

TimeSeries
operator*(double factor, TimeSeries rhs)
{
    rhs *= factor;
    return rhs;
}

TimeSeries
sumSeries(const std::vector<TimeSeries> &series)
{
    if (series.empty())
        return TimeSeries();
    TimeSeries acc = TimeSeries::zeros(series.front().size(),
                                       series.front().intervalMinutes());
    for (const auto &s : series)
        acc += s;
    return acc;
}

TimeSeries
sumSeries(const std::vector<const TimeSeries *> &series)
{
    const TimeSeries *first = nullptr;
    for (const auto *s : series) {
        if (s) {
            first = s;
            break;
        }
    }
    SOSIM_REQUIRE(first != nullptr,
                  "sumSeries: need at least one non-null series");
    TimeSeries acc =
        TimeSeries::zeros(first->size(), first->intervalMinutes());
    for (const auto *s : series)
        if (s)
            acc += *s;
    return acc;
}

TimeSeries
averageWeeks(const std::vector<TimeSeries> &weeks)
{
    SOSIM_REQUIRE(!weeks.empty(), "averageWeeks: need at least one week");
    TimeSeries acc = sumSeries(weeks);
    acc *= 1.0 / static_cast<double>(weeks.size());
    return acc;
}

} // namespace sosim::trace
