#include "arena.h"

#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/error.h"

namespace sosim::trace {

namespace {

/** Round n up to a multiple of the row alignment, in doubles. */
std::size_t
paddedStride(std::size_t samples)
{
    const std::size_t unit = TraceArena::kAlignDoubles;
    return (samples + unit - 1) / unit * unit;
}

} // namespace

std::unique_ptr<double[], TraceArena::RowsFree>
TraceArena::allocateRows(std::size_t capacity, std::size_t stride)
{
    const std::size_t bytes = capacity * stride * sizeof(double);
    if (bytes == 0)
        return nullptr;
    // aligned_alloc requires the size to be a multiple of the alignment;
    // the stride already is, in doubles.
    void *p = std::aligned_alloc(kAlignBytes, bytes);
    SOSIM_REQUIRE(p != nullptr, "TraceArena: allocation failed");
    std::memset(p, 0, bytes);
    return std::unique_ptr<double[], RowsFree>(static_cast<double *>(p));
}

TraceArena::TraceArena(std::size_t capacity, std::size_t samples_per_trace,
                       int interval_minutes)
    : capacity_(capacity), samples_(samples_per_trace),
      stride_(paddedStride(samples_per_trace)),
      intervalMinutes_(interval_minutes)
{
    SOSIM_REQUIRE(samples_per_trace >= 1,
                  "TraceArena: samples_per_trace must be >= 1");
    SOSIM_REQUIRE(interval_minutes >= 1,
                  "TraceArena: interval_minutes must be >= 1");
    data_ = allocateRows(capacity_, stride_);
}

TraceArena
TraceArena::fromSeries(const std::vector<TimeSeries> &series,
                       std::size_t extra_rows)
{
    SOSIM_REQUIRE(!series.empty() && !series.front().empty(),
                  "TraceArena::fromSeries: need at least one non-empty "
                  "series");
    TraceArena arena(series.size() + extra_rows, series.front().size(),
                     series.front().intervalMinutes());
    for (const auto &s : series)
        arena.addTrace(s);
    return arena;
}

TraceArena::TraceArena(const TraceArena &other)
    : capacity_(other.capacity_), samples_(other.samples_),
      stride_(other.stride_), rows_(other.rows_),
      intervalMinutes_(other.intervalMinutes_)
{
    data_ = allocateRows(capacity_, stride_);
    if (data_ != nullptr)
        std::memcpy(data_.get(), other.data_.get(),
                    capacity_ * stride_ * sizeof(double));
}

TraceArena &
TraceArena::operator=(const TraceArena &other)
{
    if (this == &other)
        return *this;
    TraceArena copy(other);
    *this = std::move(copy);
    return *this;
}

TraceId
TraceArena::addTrace(TraceView v)
{
    SOSIM_REQUIRE(alignedWith(v),
                  "TraceArena::addTrace: view shape does not match arena");
    const TraceId id = addZeros();
    std::memcpy(data_.get() + id * stride_, v.data(),
                samples_ * sizeof(double));
    return id;
}

TraceId
TraceArena::addZeros()
{
    SOSIM_REQUIRE(rows_ < capacity_, "TraceArena: capacity exhausted");
    // Rows are zero-initialized at allocation and never removed, so the
    // claimed row (and its padding tail) is already all zeros.
    return rows_++;
}

double *
TraceArena::mutableRow(TraceId id)
{
    SOSIM_REQUIRE(id < rows_, "TraceArena: row id out of range");
    return data_.get() + id * stride_;
}

const double *
TraceArena::rowPtr(TraceId id) const
{
    SOSIM_REQUIRE(id < rows_, "TraceArena: row id out of range");
    return data_.get() + id * stride_;
}

} // namespace sosim::trace
