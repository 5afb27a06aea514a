#ifndef SOSIM_TRACE_TIME_SERIES_H
#define SOSIM_TRACE_TIME_SERIES_H

/**
 * @file
 * Fixed-interval time series: the representation of every power trace in
 * the system (instance power traces, service power traces, node aggregate
 * traces) as well as load traces consumed by the reshaping runtime.
 *
 * The paper treats power traces as plain vectors ("since power traces are
 * simply vectors, vector arithmetic can be directly applied", section 3.3);
 * TimeSeries is that vector plus its sampling interval, with the arithmetic
 * checked for alignment.  It holds samples only: peak() and stats() scan
 * the samples on every call, so a const series is safe to read from any
 * number of threads.  Callers that read one peak many times compute it
 * once and keep the value (core::scoreVectors, core::Remapper::refine).
 */

#include <cstddef>
#include <vector>

namespace sosim::trace {

struct TraceStats; // trace/kernels.h

/** Minutes in a day; traces are sampled on minute multiples. */
inline constexpr int kMinutesPerDay = 24 * 60;
/** Minutes in a week; the paper's unit of trace evaluation is one week. */
inline constexpr int kMinutesPerWeek = 7 * kMinutesPerDay;

/**
 * A time series sampled at a fixed interval, in minutes.
 *
 * Value semantics throughout: a TimeSeries is cheap enough to copy at the
 * sizes this project uses (a 5-minute-resolution week is 2016 doubles) and
 * moves are free.
 */
class TimeSeries
{
  public:
    /** An empty series with a 1-minute interval. */
    TimeSeries() = default;

    /**
     * Construct from samples.
     *
     * @param samples          Sample values.
     * @param interval_minutes Sampling interval; must be >= 1.
     */
    explicit TimeSeries(std::vector<double> samples,
                        int interval_minutes = 1);

    /** A zero-valued series of n samples at the given interval. */
    static TimeSeries zeros(std::size_t n, int interval_minutes = 1);

    /** A constant-valued series of n samples at the given interval. */
    static TimeSeries constant(std::size_t n, double value,
                               int interval_minutes = 1);

    /** Number of samples. */
    std::size_t size() const { return samples_.size(); }

    /** True when the series holds no samples. */
    bool empty() const { return samples_.empty(); }

    /** Sampling interval in minutes. */
    int intervalMinutes() const { return intervalMinutes_; }

    /** Covered duration in minutes (size * interval). */
    long durationMinutes() const
    {
        return static_cast<long>(samples_.size()) * intervalMinutes_;
    }

    /** Value at sample index i (checked). */
    double at(std::size_t i) const;

    /** Writable value at sample index i (checked). */
    double &at(std::size_t i);

    /** Unchecked element access. */
    double operator[](std::size_t i) const { return samples_[i]; }
    double &operator[](std::size_t i) { return samples_[i]; }

    /** Underlying sample storage. */
    const std::vector<double> &samples() const { return samples_; }

    /** Writable sample row (size() doubles), for in-place kernels. */
    double *data() { return samples_.data(); }

    /**
     * One-pass summary statistics (trace::computeStats), computed on
     * every call.  Requires non-empty.
     */
    TraceStats stats() const;

    /**
     * Maximum sample value; the paper's peak(P).  One vector scan
     * (trace::peakOf) per call.  Requires non-empty.
     */
    double peak() const;

    /** Index of the first maximum sample. Requires non-empty. */
    std::size_t peakIndex() const;

    /** Minimum sample value. Requires non-empty. */
    double valley() const;

    /** Arithmetic mean of the samples. Requires non-empty. */
    double mean() const;

    /** Sum of the samples (0.0 for an empty series). */
    double sum() const;

    /**
     * Integral over time in (value * minutes); used for energy slack
     * (Eq. 2), where the value is power and the result is energy.
     */
    double integralMinutes() const;

    /**
     * The p-th percentile (0 <= p <= 100) by linear interpolation between
     * order statistics. Requires non-empty.
     */
    double percentile(double p) const;

    /** Contiguous sub-series of len samples starting at sample `first`. */
    TimeSeries slice(std::size_t first, std::size_t len) const;

    /**
     * Re-sample to a coarser interval by averaging whole buckets.
     *
     * @param interval_minutes Target interval; must be a multiple of the
     *                         current interval and divide the duration
     *                         evenly.
     */
    TimeSeries resample(int interval_minutes) const;

    /** Element-wise sum; series must be aligned (same size & interval). */
    TimeSeries &operator+=(const TimeSeries &other);

    /** Element-wise difference; series must be aligned. */
    TimeSeries &operator-=(const TimeSeries &other);

    /** Scale every sample by a factor. */
    TimeSeries &operator*=(double factor);

    /** True when size and interval match (arithmetic is legal). */
    bool alignedWith(const TimeSeries &other) const;

    /** Element-wise maximum with another aligned series. */
    TimeSeries elementWiseMax(const TimeSeries &other) const;

    /** Clamp every sample into [lo, hi]. */
    void clamp(double lo, double hi);

  private:
    std::vector<double> samples_;
    int intervalMinutes_ = 1;
};

/** Element-wise sum of two aligned series. */
TimeSeries operator+(TimeSeries lhs, const TimeSeries &rhs);

/** Element-wise difference of two aligned series. */
TimeSeries operator-(TimeSeries lhs, const TimeSeries &rhs);

/** Scalar scaling. */
TimeSeries operator*(TimeSeries lhs, double factor);
TimeSeries operator*(double factor, TimeSeries rhs);

/**
 * Sum a collection of aligned series; returns zeros-like of the first
 * element when the collection is empty (size 0 series if truly empty).
 */
TimeSeries sumSeries(const std::vector<TimeSeries> &series);

/**
 * Sum a collection of aligned series referenced by pointer; null entries
 * are skipped.  Requires at least one non-null entry.
 */
TimeSeries sumSeries(const std::vector<const TimeSeries *> &series);

/**
 * Average several single-week traces into the paper's averaged I-trace
 * (Eq. 4): element-wise mean across weeks.  All weeks must be aligned.
 */
TimeSeries averageWeeks(const std::vector<TimeSeries> &weeks);

} // namespace sosim::trace

#endif // SOSIM_TRACE_TIME_SERIES_H
